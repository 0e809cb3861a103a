/**
 * @file
 * Logging and error-reporting helpers in the gem5 style.
 *
 * panic()  - internal invariant violated; this is a bug in the library.
 *            Aborts (so a debugger or core dump can capture state).
 * fatal()  - the *user* asked for something impossible (bad workload
 *            description, invalid architecture, ...). Exits with code 1.
 * warn()   - something questionable happened but execution continues.
 * inform() - status messages.
 * debug()  - chatty diagnostics, off by default.
 *
 * Verbosity is a global LogLevel, initialized from the SUNSTONE_LOG
 * environment variable ("debug", "info", "warn", or "silent"; default
 * "info") and adjustable at runtime via setLogLevel(). Messages carry a
 * wall-clock [HH:MM:SS.mmm] timestamp. panic/fatal banners always print.
 */

#ifndef SUNSTONE_COMMON_LOGGING_HH
#define SUNSTONE_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace sunstone {

/** Global verbosity, most to least verbose. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Silent = 3 };

/**
 * Thrown by fatal() instead of exiting while a ScopedFatalCapture is
 * active on the calling thread. The message includes the source
 * location the banner would have printed.
 */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * While alive on a thread, fatal() on that thread throws FatalError
 * instead of terminating the process. This is how a long-running
 * service (the scheduler session's request loop) turns a bad *request*
 * — unparsable einsum, unknown architecture — into an error response
 * without dying; panic() still aborts, since that is a library bug.
 * Captures nest; the process-exit behavior returns when the outermost
 * scope ends. Thread-local: worker threads spawned inside a captured
 * region keep the default exit-on-fatal behavior.
 */
class ScopedFatalCapture
{
  public:
    ScopedFatalCapture();
    ~ScopedFatalCapture();

    ScopedFatalCapture(const ScopedFatalCapture &) = delete;
    ScopedFatalCapture &operator=(const ScopedFatalCapture &) = delete;

    /** Whether a capture is active on the calling thread. */
    static bool active();
};

namespace detail {

/** Terminates the process after printing a panic banner. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminates the process after printing a fatal banner. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Prints a warning banner. */
void warnImpl(const std::string &msg);

/** Prints an informational message. */
void informImpl(const std::string &msg);

/** Prints a debug diagnostic. */
void debugImpl(const std::string &msg);

/** Folds a parameter pack into a string via an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Sets the global verbosity threshold. */
void setLogLevel(LogLevel level);

/** @return the global verbosity threshold. */
LogLevel logLevel();

} // namespace sunstone

#define SUNSTONE_PANIC(...)                                                 \
    ::sunstone::detail::panicImpl(__FILE__, __LINE__,                       \
                                  ::sunstone::detail::concat(__VA_ARGS__))

#define SUNSTONE_FATAL(...)                                                 \
    ::sunstone::detail::fatalImpl(__FILE__, __LINE__,                       \
                                  ::sunstone::detail::concat(__VA_ARGS__))

#define SUNSTONE_WARN(...)                                                  \
    ::sunstone::detail::warnImpl(::sunstone::detail::concat(__VA_ARGS__))

#define SUNSTONE_INFORM(...)                                                \
    ::sunstone::detail::informImpl(::sunstone::detail::concat(__VA_ARGS__))

#define SUNSTONE_DEBUG(...)                                                 \
    ::sunstone::detail::debugImpl(::sunstone::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; compiled in all build types. */
#define SUNSTONE_ASSERT(cond, ...)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            SUNSTONE_PANIC("assertion failed: " #cond " ", __VA_ARGS__);    \
        }                                                                   \
    } while (0)

#endif // SUNSTONE_COMMON_LOGGING_HH
