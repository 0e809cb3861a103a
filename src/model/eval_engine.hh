/**
 * @file
 * The unified evaluation engine: a single instrumented substrate through
 * which every search in the repository (the Sunstone driver, the local
 * refinement pass, and all baseline mappers) evaluates mappings.
 *
 * The engine provides, in one place:
 *  - atomic telemetry counters (evaluations, invalid mappings,
 *    alpha-beta prunes, scratch reuses, batches), exported as a
 *    SearchStats snapshot with JSON rendering (wall-clock attribution is
 *    left to the trace spans);
 *  - a lazily created shared ThreadPool, so nested searches (network
 *    scheduler over per-layer searches, the core beam's expansions) stop
 *    oversubscribing threads.
 *
 * The engine keeps no cache: every evaluation runs the analytical model
 * in the calling thread. evaluate() is a batch of one, so evaluate() and
 * evaluateBatch() share one evaluation loop and every counter, and every
 * evaluation walks all levels of the mapping (DESIGN.md §11). The pool
 * size is the one construction argument.
 *
 * The free function evaluateMapping() in cost_model.hh remains the raw
 * analytical model (and the engine's backend); search code must evaluate
 * through an EvalEngine.
 */

#ifndef SUNSTONE_MODEL_EVAL_ENGINE_HH
#define SUNSTONE_MODEL_EVAL_ENGINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "model/cost_model.hh"
#include "obs/metrics.hh"

namespace sunstone {

/** Snapshot of the engine's telemetry counters. */
struct SearchStats
{
    /** Evaluation requests routed through the engine. */
    std::int64_t evaluations = 0;
    /**
     * Always 0: the engine keeps no result memo. Kept only because the
     * repository benchmark's driver still reads these fields, together
     * with `evictions` below; nothing writes them.
     */
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
    /**
     * Returned results whose mapping failed the validity check: one per
     * invalid evaluation request and per invalid scoreEnergy() call.
     */
    std::int64_t invalidMappings = 0;
    /** Alpha-beta prunes recorded by searches via notePrune(). */
    std::int64_t prunes = 0;
    /** Always 0; see cacheHits. */
    std::int64_t evictions = 0;
    /**
     * Always 0: nothing caches decided-prefix terms any more. Kept, like
     * cacheHits, only because the repository benchmark's driver still
     * reads them; nothing writes them.
     */
    std::int64_t prefixHits = 0;
    std::int64_t prefixMisses = 0;
    /** Model invocations that reused the per-thread scratch arena. */
    std::int64_t scratchReuses = 0;
    /** evaluateBatch() calls routed through the engine. */
    std::int64_t batches = 0;
    /** Latency of analytical-model invocations. */
    obs::HistogramSnapshot evalLatencyUs;
    /** Distribution of evaluateBatch() sizes. */
    obs::HistogramSnapshot batchSize;

    /** Renders the snapshot as a JSON object. */
    std::string toJson() const;

    /**
     * Counter-wise difference of two snapshots of one engine
     * (this - earlier): what a bounded span of work — e.g. one service
     * request on a long-lived session engine — contributed. Histograms
     * are not differenced; the delta keeps this snapshot's copies.
     */
    SearchStats deltaSince(const SearchStats &earlier) const;
};

/**
 * FNV-1a over a factor vector; also used by search frontiers that dedup
 * factor vectors (e.g. the top-down tiling frontier).
 */
std::uint64_t hashFactors(const std::vector<std::int64_t> &v,
                          std::uint64_t seed = 0xcbf29ce484222325ULL);

/** The unified evaluation engine. Thread-safe. */
class EvalEngine
{
  public:
    /**
     * A bound (architecture, workload) pair plus its precomputed
     * structural fingerprint. Cheap to copy; valid only while the
     * BoundArch it was created from is alive. Identical layer structures
     * produce identical fingerprints regardless of display names, which
     * is what makes cross-layer deduplication work.
     */
    class Context
    {
      public:
        const BoundArch &boundArch() const { return *ba_; }
        std::uint64_t fingerprint() const { return fp_; }

      private:
        friend class EvalEngine;
        Context(const BoundArch *ba, std::uint64_t fp) : ba_(ba), fp_(fp)
        {
        }
        const BoundArch *ba_;
        std::uint64_t fp_;
    };

    /** `threads` sizes the shared pool; 0 means hardware_concurrency(). */
    explicit EvalEngine(unsigned threads = 1);
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /** Fingerprints the pair; do once per search, not per evaluation. */
    Context context(const BoundArch &ba) const;

    /**
     * Evaluates one mapping: a batch of one (see evaluateBatch()), so it
     * counts and times exactly as a one-mapping batch.
     */
    CostResult evaluate(const Context &ctx, const Mapping &m,
                        const CostModelOptions &opts = {});

    /**
     * Caller-owned counts of scoreEnergy() calls, added to the engine's
     * counters by addScores(). A search keeps one per worker task, so
     * scoring a candidate writes no shared state (DESIGN.md §11,
     * "Scoring tallies").
     */
    struct ScoreTally
    {
        std::int64_t calls = 0;
        std::int64_t invalid = 0;
        std::int64_t scratchReuses = 0;
        /** The calls that read the clock (one in kScoreSampleEvery). */
        std::int64_t timedCalls = 0;
        double timedUs = 0;
    };

    /** scoreEnergy() times call 0, N, 2N, ... of a tally. */
    static constexpr std::int64_t kScoreSampleEvery = 64;

    /**
     * Allocation-free scoring fast path: runs scoreEnergyInto() on
     * per-thread buffers and returns only the total energy (pJ);
     * infinity for invalid mappings. This is what high-volume completion
     * scoring calls — identical numbers to evaluate(...).totalEnergyPj,
     * and no CostResult is built.
     * The call is counted in `tally`, not in the engine: it makes no
     * atomic write, and reads the clock only for one call in
     * kScoreSampleEvery.
     */
    double scoreEnergy(const Context &ctx, const Mapping &m,
                       const CostModelOptions &opts, ScoreTally &tally);

    /**
     * Adds a tally's calls, invalid results and scratch reuses to the
     * counters and zeroes it. The latency histogram gets one sample,
     * the timed calls' mean weighted by every call: its count stays
     * exact and its sum is a sampled estimate.
     */
    void addScores(ScoreTally &tally);

    /**
     * Evaluates a batch of mappings in the calling thread: one loop of
     * evaluateMappingInto() on the thread's scratch. out[i] corresponds
     * to ms[i] and is bit-identical to evaluateMapping() of ms[i],
     * invalidReason included. The per-eval latency histogram gets one
     * sample per batch, the batch's mean weighted by its evaluations.
     */
    void evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts,
                       std::vector<CostResult> &out);

    /**
     * The shared worker pool, created on first use with the configured
     * thread count. The engine itself never uses it; the searches that
     * share the engine do (TaskGroup/parallelFor for scoped joins).
     */
    ThreadPool &pool();

    /** Records alpha-beta (or equivalent) prunes for telemetry. */
    void notePrune(std::int64_t n) { prunes_.add(n); }

    /** @return a consistent snapshot of the counters. */
    SearchStats stats() const;

  private:
    /** The one evaluation loop: evaluate() and evaluateBatch(). */
    void evaluateSpan(const Context &ctx, std::span<const Mapping> ms,
                      const CostModelOptions &opts, std::span<CostResult> out);

    unsigned threads_;

    // Per-engine telemetry uses the obs primitives directly (not the
    // process-wide registry) so two engines in one process — e.g. the
    // Sunstone and baseline engines in fig7 — stay separable.
    obs::Counter evaluations_;
    obs::Counter invalid_;
    obs::Counter prunes_;
    obs::Counter scratchReuses_;
    obs::Counter batches_;
    obs::Histogram evalLatencyUs_;
    obs::Histogram batchSize_;

    mutable std::mutex poolMtx_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace sunstone

#endif // SUNSTONE_MODEL_EVAL_ENGINE_HH
