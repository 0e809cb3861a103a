#include "service/serve.hh"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "service/signals.hh"

namespace sunstone {
namespace service {

namespace {

/** Longest request line served. A longer one is answered ok:false once
 *  and its bytes up to the next newline are dropped unread, so a line
 *  that never ends cannot grow the input buffer without limit. */
constexpr std::size_t kMaxLineBytes = std::size_t(1) << 20;

void
writeResponse(const MappingResponse &resp)
{
    std::printf("%s\n", resp.toJson().c_str());
    std::fflush(stdout);
}

/** Answers an over-long line. */
void
rejectLongLine()
{
    MappingResponse resp;
    resp.error = "bad request: line longer than " +
                 std::to_string(kMaxLineBytes) + " bytes";
    writeResponse(resp);
}

/** One request line in, one response line out. */
void
serveLine(SchedulerSession &session, const std::string &line)
{
    MappingRequest req;
    std::string err;
    JsonValue v;
    if (!parseJson(line, v, &err) ||
        !MappingRequest::fromJson(v, req, &err)) {
        MappingResponse resp;
        // Echo the id when the line parsed far enough to carry one.
        if (const JsonValue *id = v.isObject() ? v.find("id") : nullptr)
            resp.id = id->asString();
        resp.error = "bad request: " + err;
        writeResponse(resp);
        return;
    }
    writeResponse(session.execute(req));
}

} // anonymous namespace

int
runServe(ServeOptions opts)
{
    // Serve must survive bad requests: fatals become error responses.
    opts.session.captureFatals = true;
    SchedulerSession session(opts.session);

    SignalBridge::instance().install();
    SignalBridge::instance().attach(&session.cancellation());

    std::fprintf(stderr,
                 "sunstone serve: ready (%u threads, queue %zu); one "
                 "JSON request per line\n",
                 session.threads(), opts.session.queueCapacity);

    std::string buffer;
    // Set while the rest of an over-long line is being dropped.
    bool skipping = false;
    bool eof = false;
    while (!eof && SignalBridge::instance().signalCount() == 0) {
        struct pollfd pfd = {opts.inputFd, POLLIN, 0};
        // A short poll keeps the loop responsive to signals even when
        // no input arrives (the read below never blocks without data).
        const int pr = poll(&pfd, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "sunstone serve: poll failed\n");
            break;
        }
        if (pr == 0)
            continue;
        char chunk[4096];
        const ssize_t n = read(opts.inputFd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "sunstone serve: read failed\n");
            break;
        }
        std::string_view in(chunk, n > 0 ? static_cast<std::size_t>(n) : 0);
        if (n == 0)
            eof = true;
        if (skipping) {
            const std::size_t nl = in.find('\n');
            skipping = nl == std::string_view::npos;
            in.remove_prefix(skipping ? in.size() : nl + 1);
        }
        buffer.append(in);
        std::size_t start = 0;
        for (std::size_t nl; (nl = buffer.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1) {
            if (nl - start > kMaxLineBytes) {
                rejectLongLine();
                continue;
            }
            const std::string line = buffer.substr(start, nl - start);
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            serveLine(session, line);
            if (SignalBridge::instance().signalCount() > 0)
                break;
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxLineBytes) {
            rejectLongLine();
            buffer.clear();
            skipping = true;
        }
    }
    // EOF with a trailing unterminated line: still a request.
    if (eof && SignalBridge::instance().signalCount() == 0 &&
        buffer.find_first_not_of(" \t\r") != std::string::npos)
        serveLine(session, buffer);

    const bool signalled = SignalBridge::instance().signalCount() > 0;
    if (!opts.metricsPath.empty()) {
        std::ofstream os(opts.metricsPath);
        if (os)
            os << session.healthJson() << "\n";
        else
            std::fprintf(stderr, "sunstone serve: cannot write '%s'\n",
                         opts.metricsPath.c_str());
    }
    std::fprintf(stderr, "sunstone serve: %s; served %lld requests\n",
                 signalled ? "signal shutdown" : "stdin closed",
                 static_cast<long long>(session.counters().executed));
    // A signalled shutdown is a clean shutdown: telemetry is flushed
    // above, so the exit status stays 0.
    return 0;
}

} // namespace service
} // namespace sunstone
