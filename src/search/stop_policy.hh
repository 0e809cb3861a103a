/**
 * @file
 * The unified termination contract for every search in the repository
 * (DESIGN.md §12). Before the SearchDriver refactor each of the seven
 * search loops invented its own knobs — TimeloopMapper counted
 * consecutive invalid samples in a field named `timeout`, dMaze and
 * Interstellar truncated on ad-hoc eval budgets, Sunstone core and
 * refine had no wall-clock bound at all. A StopPolicy expresses all of
 * them in one place; the SearchDriver is the only code that enforces
 * them, and a StopReason records which bound fired.
 */

#ifndef SUNSTONE_SEARCH_STOP_POLICY_HH
#define SUNSTONE_SEARCH_STOP_POLICY_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace sunstone {

/** Why a search ended. */
enum class StopReason {
    /** Still running (the zero value inside the driver). */
    None,
    /** The candidate stream ran out of candidates. */
    Exhausted,
    /** StopPolicy::deadlineSeconds (or a context hard deadline) fired. */
    Deadline,
    /** StopPolicy::maxEvals consumed. */
    MaxEvals,
    /** StopPolicy::plateau consecutive valid non-improving evals. */
    Plateau,
    /** StopPolicy::maxConsecutiveInvalid invalid evals in a row. */
    InvalidStreak,
    /** The cooperative cancellation flag was raised (e.g. SIGTERM). */
    Cancelled,
    /** The search rejected the problem before evaluating (mapper bail). */
    Unsupported,
};

/** @return a stable lowercase name ("max-evals", "cancelled", ...). */
const char *stopReasonName(StopReason r);

/**
 * Declarative termination bounds. A zero (or negative) field means "no
 * bound of this kind". All fields compose: the first bound to trip ends
 * the search.
 */
struct StopPolicy
{
    /**
     * Wall-clock budget for the search, in seconds. 0 means no bound; a
     * negative value is an already-expired deadline — the search stops
     * before evaluating anything (the CLI's "--budget -0.5").
     */
    double deadlineSeconds = 0;

    /** Total candidate evaluations the driver may consume. */
    std::int64_t maxEvals = 0;

    /**
     * Consecutive *valid* evaluations without improving the incumbent
     * (Timeloop's "victory condition").
     */
    std::int64_t plateau = 0;

    /**
     * Consecutive *invalid* evaluations (Timeloop's misnamed legacy
     * `timeout` knob).
     */
    std::int64_t maxConsecutiveInvalid = 0;

    /**
     * Cooperative cancellation flag, polled by the driver at batch
     * boundaries. Not owned; may be null. The CLI points this at the
     * SIGTERM/SIGINT flag so an interrupted run checkpoints and exits
     * cleanly.
     */
    std::atomic<bool> *cancel = nullptr;

    /** @return true when no field bounds the search. */
    bool unbounded() const;

    /**
     * @return this policy with every unset (<= 0) field filled from
     * `defaults`. Used by mappers to layer their legacy per-mapper knobs
     * under whatever the caller set explicitly.
     */
    StopPolicy withDefaults(const StopPolicy &defaults) const;

    /** @return the tighter of each bound (min of the set values). */
    static StopPolicy combine(const StopPolicy &a, const StopPolicy &b);
};

/**
 * Parses a stop-policy text config: one `key value` (or `key = value`)
 * pair per line, '#' comments. Keys: deadline_ms, deadline_s, max_evals,
 * plateau (alias: victory), max_consecutive_invalid, seed. Timeloop's
 * `timeout` (which counts consecutive invalid samples, never time) is
 * spelled max_consecutive_invalid here; any other key, `timeout`
 * included, is an unknown-key error.
 *
 * @param seed optional; set to the `seed` key's value when present
 * @param err optional; receives a message naming the offending line
 * @return false on malformed input
 */
bool parseStopPolicyText(const std::string &text, StopPolicy &out,
                         std::optional<std::uint64_t> *seed = nullptr,
                         std::string *err = nullptr);

/** File-loading wrapper over parseStopPolicyText. */
bool loadStopPolicyFile(const std::string &path, StopPolicy &out,
                        std::optional<std::uint64_t> *seed = nullptr,
                        std::string *err = nullptr);

} // namespace sunstone

#endif // SUNSTONE_SEARCH_STOP_POLICY_HH
