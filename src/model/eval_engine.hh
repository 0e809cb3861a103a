/**
 * @file
 * The unified evaluation engine: a single instrumented substrate through
 * which every search in the repository (the Sunstone driver, the local
 * refinement pass, and all baseline mappers) evaluates mappings.
 *
 * The engine provides, in one place, what each search previously
 * hand-rolled or lacked entirely:
 *  - atomic telemetry counters (evaluations, invalid mappings,
 *    alpha-beta prunes, prefix lookups), exported as a SearchStats
 *    snapshot with JSON rendering (wall-clock attribution is left to
 *    the trace spans);
 *  - a bounded cache of decided-prefix cost terms (see prefix()), keyed
 *    by a structural fingerprint of the bound architecture/workload
 *    pair plus the prefix's factors and cost-relevant loop orders
 *    (DESIGN.md §8, §11);
 *  - a lazily created shared ThreadPool, so nested searches (network
 *    scheduler over per-layer searches) stop oversubscribing threads.
 *
 * Every evaluation runs the analytical model: there is no result memo.
 * evaluate() is a batch of one, so evaluate() and evaluateBatch() share
 * one chunk loop and every counter. The pool size is the one
 * construction argument.
 *
 * The free function evaluateMapping() in cost_model.hh remains the raw
 * analytical model (and the engine's backend); search code must evaluate
 * through an EvalEngine.
 */

#ifndef SUNSTONE_MODEL_EVAL_ENGINE_HH
#define SUNSTONE_MODEL_EVAL_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
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
    /** Prefix-term cache hits/misses (see EvalEngine::prefix()). A miss
     *  counts only when its insert creates the entry, so the counts do
     *  not depend on thread timing. */
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

    /**
     * A shared, immutable snapshot of the contribution terms of a
     * decided-level prefix (see PrefixTerms in cost_model.hh). Obtained
     * from prefix(); cheap to copy and safe to share across threads. A
     * default-constructed (empty) handle is valid everywhere a handle is
     * accepted and simply selects the non-incremental path.
     */
    class PrefixHandle
    {
      public:
        PrefixHandle() = default;
        bool valid() const { return terms_ != nullptr; }
        int prefixLevels() const
        {
            return terms_ ? terms_->prefixLevels : 0;
        }

      private:
        friend class EvalEngine;
        std::shared_ptr<const PrefixTerms> terms_;
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
     * counts and times exactly as a one-mapping batch chunk. With a
     * non-empty `ph` the model reuses the handle's decided-prefix terms
     * and only recomputes the undecided levels; the result is
     * bit-identical to the plain evaluation for any mapping whose
     * canonical prefix matches the handle's.
     */
    CostResult evaluate(const Context &ctx, const Mapping &m,
                        const CostModelOptions &opts = {},
                        const PrefixHandle &ph = {});

    /**
     * Returns (building on demand) the contribution terms of levels
     * [0, prefix_levels) of `base`. Handles are memoized in a bounded
     * cache keyed by the context fingerprint plus the canonical prefix:
     * factors and the orders of loops with a temporal factor above 1,
     * level 0's order dropped (the cost model consumes neither), so
     * repeated requests for equivalent prefixes share one snapshot.
     * prefix_levels <= 0 returns an empty handle. A miss counts only
     * when this call's insert creates the entry.
     */
    PrefixHandle prefix(const Context &ctx, const Mapping &base,
                        int prefix_levels);

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
     * infinity for invalid mappings. This is what
     * high-volume completion scoring calls — identical numbers to
     * evaluate(...).totalEnergyPj, and no CostResult is built.
     * The call is counted in `tally`, not in the engine: it makes no
     * atomic write, and reads the clock only for one call in
     * kScoreSampleEvery.
     */
    double scoreEnergy(const Context &ctx, const PrefixHandle &ph,
                       const Mapping &m, const CostModelOptions &opts,
                       ScoreTally &tally);

    /**
     * Adds a tally's calls, invalid results and scratch reuses to the
     * counters and zeroes it. The latency histogram gets one sample,
     * the timed calls' mean weighted by every call: its count stays
     * exact and its sum is a sampled estimate.
     */
    void addScores(ScoreTally &tally);

    /**
     * Evaluates a batch of mappings: the batch is cut into fixed-size
     * chunks (independent of the pool size, so the latency samples are
     * the same for any thread count) and the chunks
     * are spread over the pool. out[i] corresponds to ms[i] and is
     * bit-identical to evaluateMapping() of ms[i], invalidReason
     * included. A chunk runs evaluateMappingInto() on the thread's
     * scratch for each of its mappings. The per-eval latency histogram
     * gets one sample per chunk, the chunk's mean weighted by its
     * evaluations.
     */
    void evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts,
                       std::vector<CostResult> &out);

    /**
     * The shared worker pool, created on first use with the configured
     * thread count. Use TaskGroup/parallelFor for scoped joins.
     */
    ThreadPool &pool();

    /** Records alpha-beta (or equivalent) prunes for telemetry. */
    void notePrune(std::int64_t n) { prunes_.add(n); }

    /** @return a consistent snapshot of the counters. */
    SearchStats stats() const;

  private:
    struct PrefixEntry
    {
        std::vector<std::int64_t> key;
        std::shared_ptr<const PrefixTerms> terms;
    };

    void canonicalPrefixKey(const Mapping &m, int prefix_levels,
                            std::vector<std::int64_t> &out) const;
    /** The one evaluation loop: evaluate() and every evaluateBatch()
     *  chunk. */
    void evaluateChunk(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts,
                       const PrefixTerms *prefix,
                       std::span<CostResult> out);

    unsigned threads_;

    /** Bounded cache of prefix-term snapshots (cleared when full). */
    static constexpr std::size_t kMaxPrefixEntries = 4096;
    mutable std::mutex prefixMtx_;
    std::unordered_map<std::uint64_t, PrefixEntry> prefixCache_;

    // Per-engine telemetry uses the obs primitives directly (not the
    // process-wide registry) so two engines in one process — e.g. the
    // Sunstone and baseline engines in fig7 — stay separable.
    obs::Counter evaluations_;
    obs::Counter invalid_;
    obs::Counter prunes_;
    obs::Counter prefixHits_;
    obs::Counter prefixMisses_;
    obs::Counter scratchReuses_;
    obs::Counter batches_;
    obs::Histogram evalLatencyUs_;
    obs::Histogram batchSize_;

    mutable std::mutex poolMtx_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace sunstone

#endif // SUNSTONE_MODEL_EVAL_ENGINE_HH
