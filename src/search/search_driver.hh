/**
 * @file
 * The one audited search loop (DESIGN.md §12). Every search in the
 * repository — Sunstone's per-level beam, the refine hill-climb, and
 * all six baseline mappers — runs through a SearchDriver, which owns,
 * in exactly one place:
 *
 *  - batching candidates into EvalEngine::evaluateBatch (parallel
 *    evaluation, *serial* in-order result consumption, so outcomes are
 *    bit-identical regardless of thread count);
 *  - best-so-far tracking and the convergence trajectory;
 *  - StopPolicy enforcement (deadline, max-evals, plateau, invalid
 *    streak, cooperative cancellation) with a recorded StopReason;
 *  - the monotonic clock and the evaluation counters every
 *    MapperResult reports;
 *  - checkpoint save/resume at candidate-batch boundaries.
 *
 * Two usage modes:
 *  - Stream mode: the search implements CandidateStream (a pull-model
 *    `nextBatch()`) and calls run(). Used by all six mappers.
 *  - Manual mode: structured searches (the beam, the hill-climb) keep
 *    their own loop shape and use shouldStop()/noteEvaluated()/offer()
 *    plus checkpointNow() so accounting and termination still live
 *    here.
 */

#ifndef SUNSTONE_SEARCH_SEARCH_DRIVER_HH
#define SUNSTONE_SEARCH_SEARCH_DRIVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.hh"
#include "model/eval_engine.hh"
#include "obs/progress.hh"
#include "search/search_context.hh"

namespace sunstone {

/**
 * A pull-model source of candidate mappings. Implementations are only
 * ever called from the driver thread (generation and result observation
 * are serial by design — that is what makes results independent of
 * --threads).
 */
class CandidateStream
{
  public:
    virtual ~CandidateStream() = default;

    /** How a resumed run repositions this stream. */
    enum class ResumeMode {
        /** restoreState() consumes the checkpoint payload. */
        State,
        /** skip(consumed) replays and discards the prefix. */
        Replay,
        /** Nothing to do; restored RNG cursors reposition it. */
        RngCursor,
    };

    /**
     * Writes the next batch of at most `max` candidates into `out`. The
     * vector arrives holding the previous batch (the driver's reused
     * slots): implementations overwrite those Mappings in place and
     * leave exactly the new batch behind (`out.resize(k)`, k <= max).
     * @return false when the stream is exhausted (an empty batch with
     *         a true return is also treated as exhaustion).
     */
    virtual bool nextBatch(std::size_t max, std::vector<Mapping> &out) = 0;

    /**
     * Serial, in-generation-order observation of every consumed result
     * (stateful streams — the GA — build their next round from these).
     */
    virtual void
    onResult(std::size_t index_in_batch, const Mapping &m,
             const CostResult &cr)
    {
        (void)index_in_batch;
        (void)m;
        (void)cr;
    }

    virtual EvalEngine::CachePolicy
    cachePolicy() const
    {
        return EvalEngine::CachePolicy::UseCache;
    }

    virtual CostModelOptions costOptions() const { return {}; }

    virtual ResumeMode resumeMode() const { return ResumeMode::State; }

    /** Opaque checkpoint payload (a JSON object rendered to text). */
    virtual std::string saveState() const { return "{}"; }

    /** @return false when the payload is malformed. */
    virtual bool
    restoreState(const std::string &payload)
    {
        (void)payload;
        return true;
    }

    /**
     * Generates and discards `n` candidates (ResumeMode::Replay) by
     * pulling them through nextBatch() into one reused slot vector.
     */
    void skip(std::int64_t n);
};

/**
 * Adapts a push-style enumeration (nested loops, recursion) into a
 * CandidateStream: the producer runs on a dedicated thread and blocks
 * on a bounded queue; nextBatch() pops in production order, so the
 * stream is deterministic. Resume is by replay (generation is cheap for
 * enumerations; no RNG involved).
 */
class GeneratorStream : public CandidateStream
{
  public:
    /** Pushes one candidate; returns false when producing must stop. */
    using Sink = std::function<bool(Mapping &&)>;
    using Producer = std::function<void(const Sink &)>;

    explicit GeneratorStream(Producer producer,
                             std::size_t queue_capacity = 2048);
    ~GeneratorStream() override;

    bool nextBatch(std::size_t max, std::vector<Mapping> &out) override;
    ResumeMode resumeMode() const override { return ResumeMode::Replay; }

  private:
    void ensureStarted();

    Producer producer_;
    const std::size_t cap_;
    std::thread worker_;
    std::mutex mtx_;
    std::condition_variable cv_;
    std::deque<Mapping> queue_;
    bool started_ = false;
    bool done_ = false;
    bool stopRequested_ = false;
};

/** What a SearchDriver hands back. */
struct DriverOutcome
{
    bool found = false;
    Mapping best;
    CostResult bestCost;
    double bestMetric = std::numeric_limits<double>::infinity();

    /** Candidates consumed by the driver (== MapperResult count). */
    std::int64_t evaluated = 0;

    /** Wall-clock of the search, resumed time included. */
    double seconds = 0;

    StopReason reason = StopReason::Exhausted;

    /** Diagnostic from the first invalid evaluation ("" when none). */
    std::string firstInvalidReason;
};

class SearchDriver
{
  public:
    /**
     * @param label search name for checkpoints/telemetry/convergence
     * @param optimize_edp minimize EDP when true, energy otherwise
     */
    SearchDriver(SearchContext &sc, EvalEngine &engine, const BoundArch &ba,
                 std::string label, bool optimize_edp);

    SearchDriver(const SearchDriver &) = delete;
    SearchDriver &operator=(const SearchDriver &) = delete;

    /** Runs the stream to a stop condition (stream mode). */
    DriverOutcome run(CandidateStream &stream);

    // -- Manual mode ----------------------------------------------------

    /**
     * Thread-safe stop check for structured searches: deadline, hard
     * deadline, cancellation, and max-evals. The first reason to trip
     * is latched. `pending` is the caller's evaluations not yet passed
     * to noteEvaluated(); they count toward max-evals, so a search that
     * reports its evaluations in batches still stops on the candidate
     * that reaches the bound, unless other threads hold unreported
     * evaluations too.
     */
    bool shouldStop(std::int64_t pending = 0);

    /** Thread-safe evaluation accounting (manual mode). */
    void
    noteEvaluated(std::int64_t n = 1)
    {
        evaluated_.fetch_add(n, std::memory_order_relaxed);
        status_->noteEvaluated(n);
    }

    /**
     * Offers a candidate to the incumbent (serial calls only).
     * @return true when it improved the incumbent.
     */
    bool offer(const Mapping &m, const CostResult &cr);

    /**
     * Consumes the context's pending resume snapshot: validates label /
     * fingerprint / seed, restores RNG cursors, counters, and the
     * incumbent (re-evaluating its cost through the engine).
     * @return the opaque stream payload, or "" when there is nothing
     *         to resume.
     */
    std::string consumeResumePayload();

    /** Writes a checkpoint immediately with the given payload. */
    void checkpointNow(const std::string &payload);

    /**
     * Evaluates the context's warm-start seed mappings (serially, once,
     * at a fresh start — run() calls this itself; manual-mode searches
     * call it before building their initial population/beam). Seeds
     * count as evaluations and may set the incumbent, but never advance
     * the plateau or invalid-streak windows.
     */
    void seedWarmStarts();

    /**
     * Finalizes accounting and telemetry; records the final convergence
     * point. `natural` is the reason reported when no StopPolicy bound
     * fired. @return the outcome.
     */
    DriverOutcome finish(StopReason natural = StopReason::Exhausted);

    // -- Accessors ------------------------------------------------------

    std::int64_t
    evaluated() const
    {
        return evaluated_.load(std::memory_order_relaxed);
    }

    /** Elapsed seconds, including time from resumed runs. */
    double seconds() const { return baseSeconds_ + timer_.seconds(); }

    StopReason
    reason() const
    {
        return static_cast<StopReason>(
            reason_.load(std::memory_order_relaxed));
    }

    EvalEngine &engine() { return engine_; }
    SearchContext &context() { return sc_; }
    const std::string &label() const { return label_; }
    bool optimizeEdp() const { return optimizeEdp_; }
    bool found() const { return found_; }
    double bestMetric() const { return bestMetric_; }
    const Mapping &bestMapping() const { return bestMapping_; }

  private:
    /** The optimized metric; +inf for an invalid result. */
    double metricOf(const CostResult &cr) const;
    /** Latches `r` as the stop reason if none is set yet. */
    bool latchReason(StopReason r);
    void maybeCheckpoint(const CandidateStream *stream, bool force);
    void writeCheckpoint(const std::string &payload);
    /**
     * Advances the serial incumbent and streak state by one evaluated
     * result. @return true when a streak bound (plateau, invalid) fired.
     */
    bool consume(const Mapping &m, const CostResult &cr);

    SearchContext &sc_;
    EvalEngine &engine_;
    EvalEngine::Context evalCtx_;
    const std::string label_;
    const bool optimizeEdp_;

    Timer timer_;
    double baseSeconds_ = 0;
    std::atomic<std::int64_t> evaluated_{0};
    std::atomic<int> reason_{static_cast<int>(StopReason::None)};

    // Incumbent state; mutated only from the (serial) driver thread.
    bool found_ = false;
    double bestMetric_ = std::numeric_limits<double>::infinity();
    Mapping bestMapping_;
    CostResult bestCost_;
    std::string firstInvalidReason_;

    // Stream-mode streak counters (serial).
    std::int64_t plateauLength_ = 0;
    std::int64_t invalidStreak_ = 0;

    // Stream positions generated (serial). Warm-start seeds are
    // evaluated outside the stream, so consumed_ trails evaluated_ by
    // the seed count; Replay resume repositions by consumed_.
    std::int64_t consumed_ = 0;
    bool streamMode_ = false;

    obs::ConvergenceTrajectory *traj_ = nullptr;
    obs::SearchStatus *status_ = nullptr; // board entry; never null
    double lastCheckpointSeconds_ = -1;
    bool finished_ = false;
};

} // namespace sunstone

#endif // SUNSTONE_SEARCH_SEARCH_DRIVER_HH
