/**
 * @file
 * Live search-progress telemetry (DESIGN.md §14).
 *
 * Three cooperating pieces:
 *
 *  - SearchStatus / ProgressBoard: a process-wide board of per-search
 *    live state. Every SearchDriver opens one entry and keeps it
 *    current with relaxed atomic stores (evaluations, incumbent,
 *    plateau length, done + stop reason), so readers — the progress
 *    line, the snapshot writer, and eventually a scrape endpoint — can
 *    observe a running search without any coordination with it.
 *    Entries are shared between the board, their search and readers;
 *    the board keeps the running entries plus the newest finished ones,
 *    so a long-lived process holds a bounded number. It additionally
 *    carries coarse "unit" counters the network scheduler uses to
 *    report per-layer / per-fused-chain phase progress.
 *
 *  - computeEta(): the pure ETA math. Each StopPolicy bound (deadline,
 *    max-evals, plateau) projects its own time-to-trip from the current
 *    evaluation rate; the estimate is the minimum and names the
 *    dominant bound. Pure so tests can pin the dominance logic without
 *    clocks or threads.
 *
 *  - ProgressReporter: a background thread rendering a throttled
 *    single-line summary of the board to stderr (overwritten in place
 *    with '\r'). Enabled by the CLI's --progress; costs nothing when
 *    not constructed.
 */

#ifndef SUNSTONE_OBS_PROGRESS_HH
#define SUNSTONE_OBS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sunstone {
namespace obs {

/**
 * Live state of one search. Writers (the owning SearchDriver) use
 * relaxed atomics; readers take an instantaneous, possibly slightly
 * stale view — fine for progress display. The stop-reason pointer must
 * reference a string with static storage duration (stopReasonName()
 * returns exactly that).
 */
class SearchStatus
{
  public:
    SearchStatus(std::string label, std::int64_t max_evals,
                 double deadline_seconds, std::int64_t plateau_bound)
        : label_(std::move(label)), maxEvals_(max_evals),
          deadlineSeconds_(deadline_seconds), plateauBound_(plateau_bound),
          start_(std::chrono::steady_clock::now())
    {
    }

    const std::string &label() const { return label_; }
    std::int64_t maxEvals() const { return maxEvals_; }
    double deadlineSeconds() const { return deadlineSeconds_; }
    std::int64_t plateauBound() const { return plateauBound_; }

    void
    noteEvaluated(std::int64_t n)
    {
        evaluated_.fetch_add(n, std::memory_order_relaxed);
    }

    void
    noteImprovement(double metric)
    {
        bestMetric_.store(metric, std::memory_order_relaxed);
        improvements_.fetch_add(1, std::memory_order_relaxed);
        found_.store(true, std::memory_order_relaxed);
    }

    void
    notePlateau(std::int64_t length)
    {
        plateauLength_.store(length, std::memory_order_relaxed);
    }

    /** @param reason must have static storage duration. */
    void
    finish(const char *reason)
    {
        stopReason_.store(reason, std::memory_order_relaxed);
        done_.store(true, std::memory_order_release);
    }

    std::int64_t
    evaluated() const
    {
        return evaluated_.load(std::memory_order_relaxed);
    }

    bool found() const { return found_.load(std::memory_order_relaxed); }

    double
    bestMetric() const
    {
        return bestMetric_.load(std::memory_order_relaxed);
    }

    std::int64_t
    improvements() const
    {
        return improvements_.load(std::memory_order_relaxed);
    }

    std::int64_t
    plateauLength() const
    {
        return plateauLength_.load(std::memory_order_relaxed);
    }

    bool done() const { return done_.load(std::memory_order_acquire); }

    /** @return "" while running, the final stop reason once done. */
    const char *
    stopReason() const
    {
        const char *r = stopReason_.load(std::memory_order_relaxed);
        return r ? r : "";
    }

    /** Wall-clock seconds since the entry was opened. */
    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    const std::string label_;
    const std::int64_t maxEvals_;
    const double deadlineSeconds_;
    const std::int64_t plateauBound_;
    const std::chrono::steady_clock::time_point start_;

    std::atomic<std::int64_t> evaluated_{0};
    std::atomic<std::int64_t> improvements_{0};
    std::atomic<std::int64_t> plateauLength_{0};
    std::atomic<double> bestMetric_{
        std::numeric_limits<double>::infinity()};
    std::atomic<bool> found_{false};
    std::atomic<bool> done_{false};
    std::atomic<const char *> stopReason_{nullptr};
};

/**
 * The process-wide board. open() hands out shared entries, so a search
 * and any reader keep theirs alive after the board drops it; snapshot()
 * returns the current entry set in open order. The board holds every
 * running entry plus the newest kMaxFinished finished ones: open() and
 * snapshot() retire the oldest finished entries beyond that, folding
 * their evaluations into a counter so totalEvaluated() stays exact.
 */
class ProgressBoard
{
  public:
    /** Finished entries kept for readers; older ones are retired. */
    static constexpr std::size_t kMaxFinished = 64;

    std::shared_ptr<SearchStatus> open(const std::string &label,
                                       std::int64_t max_evals = 0,
                                       double deadline_seconds = 0,
                                       std::int64_t plateau_bound = 0);

    std::vector<std::shared_ptr<const SearchStatus>> snapshot();

    /** Sum of evaluated() over every entry ever opened, retired ones
     *  included (fast aggregate). */
    std::int64_t totalEvaluated() const;

    // -- Coarse phase units (the net scheduler's layer/chain counts) ---

    /** Announces `n` more schedulable units (unique layers, chains). */
    void addUnits(std::int64_t n);

    /** Marks one unit complete. */
    void noteUnitDone();

    std::int64_t unitsTotal() const
    {
        return unitsTotal_.load(std::memory_order_relaxed);
    }

    std::int64_t unitsDone() const
    {
        return unitsDone_.load(std::memory_order_relaxed);
    }

    /** Drops every entry and zeroes the counters. Test-only. */
    void resetForTests();

  private:
    /** Drops the oldest finished entries beyond kMaxFinished; call
     *  with mtx_ held. */
    void retireFinished();

    mutable std::mutex mtx_;
    std::vector<std::shared_ptr<SearchStatus>> entries_;
    /** Evaluations of the retired entries (guarded by mtx_). */
    std::int64_t retiredEvaluated_ = 0;
    std::atomic<std::int64_t> unitsTotal_{0};
    std::atomic<std::int64_t> unitsDone_{0};
};

/** @return the process-wide board. */
ProgressBoard &progressBoard();

/** Projected time to the first StopPolicy bound that will trip. */
struct EtaEstimate
{
    /** Seconds until the dominant bound fires; +inf when unbounded. */
    double seconds = std::numeric_limits<double>::infinity();
    /** "deadline", "max-evals", "plateau", or "" when unbounded. */
    const char *bound = "";
};

/**
 * Pure ETA math. Each set bound projects its own time-to-trip:
 *  - deadline: whatever wall-clock remains;
 *  - max-evals: remaining evaluations at the observed rate;
 *  - plateau: remaining non-improving evaluations at the observed rate
 *    (the projection assumes no further improvement, so it is the
 *    earliest the bound can fire).
 * The estimate is the minimum of the projections; ties break in the
 * order deadline, max-evals, plateau (a wall-clock bound is exact, the
 * others extrapolate). A zero/negative rate leaves the eval-denominated
 * bounds unbounded. Already-exceeded bounds project 0 seconds.
 */
EtaEstimate computeEta(std::int64_t evaluated, std::int64_t max_evals,
                       double elapsed_seconds, double deadline_seconds,
                       std::int64_t plateau_length,
                       std::int64_t plateau_bound,
                       double evals_per_second);

/**
 * Renders a throttled one-line progress summary of the board to stderr
 * under its own thread. The line shows completed/total units, total
 * evaluations and their rate, the incumbent metric of the most recent
 * active search, and the dominant-bound ETA. Stop (or destruction)
 * terminates the line with '\n' so subsequent output starts clean.
 */
class ProgressReporter
{
  public:
    /** @param interval_ms redraw period (min 20, default 500). */
    explicit ProgressReporter(int interval_ms = 500);
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    void start();
    void stop();

    /**
     * Composes the progress line from the current board state (also
     * used by stop() for the final render). Exposed for tests.
     */
    std::string renderLine();

  private:
    void loop();

    const int intervalMs_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::mutex mtx_; // guards start/stop transitions

    // Rate window: evaluations seen at the previous render.
    std::int64_t lastEvals_ = 0;
    std::chrono::steady_clock::time_point lastTime_;
    double smoothedRate_ = 0;
    std::size_t lastLineLen_ = 0;
};

} // namespace obs
} // namespace sunstone

#endif // SUNSTONE_OBS_PROGRESS_HH
