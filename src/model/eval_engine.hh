/**
 * @file
 * The unified evaluation engine: a single instrumented substrate through
 * which every search in the repository (the Sunstone driver, the local
 * refinement pass, and all baseline mappers) evaluates mappings.
 *
 * The engine provides, in one place, what each search previously
 * hand-rolled or lacked entirely:
 *  - a sharded (striped-mutex) memoization cache from a canonical
 *    mapping key to the full CostResult, so re-evaluations — final
 *    ranking, hill-climb revisits, repeated layers of a network — hit
 *    the cache instead of the analytical model;
 *  - atomic telemetry counters (evaluations, cache hits/misses, invalid
 *    mappings, alpha-beta prunes, evictions), exported as a SearchStats
 *    snapshot with JSON rendering (wall-clock attribution is left to
 *    the trace spans);
 *  - a lazily created shared ThreadPool, so nested searches (network
 *    scheduler over per-layer searches) stop oversubscribing threads.
 *
 * Cache-key canonicalization (see DESIGN.md §8): the key folds a
 * structural fingerprint of the bound architecture/workload pair with the
 * mapping's factors and *cost-relevant* loop orders — per level the loop
 * order restricted to dims with temporal factor > 1 (the cost model skips
 * factor-1 loops), and level 0's order dropped entirely (no loop below it
 * consumes it). Two mappings differing only in the placement of trivial
 * loops therefore share one cache entry. The full canonical key is stored
 * alongside each entry and compared on lookup, so a 64-bit hash collision
 * degrades to a miss, never to a wrong result.
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
    /** Evaluation requests routed through the engine (hits included). */
    std::int64_t evaluations = 0;
    std::int64_t cacheHits = 0;
    /**
     * Memo lookups that found no entry. Two lookups that miss the same
     * key before either inserts it (two threads, or two chunks of one
     * batch) both evaluate it and both count a miss, so with more than
     * one worker the count can vary between runs.
     */
    std::int64_t cacheMisses = 0;
    /**
     * Analytical-model invocations (cache misses, bypassed lookups and
     * scoreEnergy() calls) whose mapping failed the validity check. A
     * memo hit on an invalid mapping is not counted again.
     */
    std::int64_t invalidMappings = 0;
    /** Alpha-beta prunes recorded by searches via notePrune(). */
    std::int64_t prunes = 0;
    /** Entries dropped when a full shard was reset. */
    std::int64_t evictions = 0;
    /** Prefix-term cache hits/misses (see EvalEngine::prefix()). */
    std::int64_t prefixHits = 0;
    std::int64_t prefixMisses = 0;
    /** Model invocations that reused the per-thread scratch arena. */
    std::int64_t scratchReuses = 0;
    /** evaluateBatch() calls routed through the engine. */
    std::int64_t batches = 0;
    /** Latency of analytical-model invocations (cache hits excluded). */
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

    /** Cache hits over cache lookups (hits + misses); 1 when no lookup
     *  happened (an all-cached span has nothing left to miss). */
    double hitRate() const;
};

/**
 * FNV-1a over a factor vector; also used by search frontiers that dedup
 * factor vectors (e.g. the top-down tiling frontier).
 */
std::uint64_t hashFactors(const std::vector<std::int64_t> &v,
                          std::uint64_t seed = 0xcbf29ce484222325ULL);

/** Engine construction knobs. */
struct EvalEngineOptions
{
    /** Shared pool size; 0 means hardware_concurrency(). */
    unsigned threads = 1;
    /** Cache stripe count (rounded up to a power of two). */
    unsigned shards = 16;
    /** Per-shard entry cap; a full shard is reset (epoch eviction). */
    std::size_t maxEntriesPerShard = 16384;
    bool enableCache = true;
};

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
     * Bypass skips the cache for this call (still counted as an
     * evaluation). Used for high-volume, low-reuse paths such as the
     * Sunstone completion scoring, where caching would only churn.
     */
    enum class CachePolicy { UseCache, Bypass };

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

    explicit EvalEngine(EvalEngineOptions opts = {});
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /** Fingerprints the pair; do once per search, not per evaluation. */
    Context context(const BoundArch &ba) const;

    /** Evaluates through the memoization cache. */
    CostResult evaluate(const Context &ctx, const Mapping &m,
                        const CostModelOptions &opts = {},
                        CachePolicy policy = CachePolicy::UseCache);

    /** Convenience overload fingerprinting on every call. */
    CostResult evaluate(const BoundArch &ba, const Mapping &m,
                        const CostModelOptions &opts = {},
                        CachePolicy policy = CachePolicy::UseCache);

    /**
     * Returns (building on demand) the contribution terms of levels
     * [0, prefix_levels) of `base`. Handles are memoized in a bounded
     * cache keyed by the context fingerprint plus the canonical prefix
     * (factors + reduced orders — the same rules the memo cache uses),
     * so repeated requests for equivalent prefixes share one snapshot.
     * prefix_levels <= 0 returns an empty handle.
     */
    PrefixHandle prefix(const Context &ctx, const Mapping &base,
                        int prefix_levels);

    /**
     * Like evaluate(), but mappings sharing the handle's decided prefix
     * reuse its cached terms and only recompute the undecided levels.
     * Bit-identical to evaluate() for any mapping whose canonical prefix
     * matches the handle's; results share the same memo-cache entries.
     */
    CostResult evaluateWithPrefix(const Context &ctx,
                                  const PrefixHandle &ph, const Mapping &m,
                                  const CostModelOptions &opts = {},
                                  CachePolicy policy =
                                      CachePolicy::UseCache);

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
     * Allocation-free scoring fast path: evaluates into per-thread
     * buffers and returns only the total energy (pJ); infinity for
     * invalid mappings. Never cached. This is what high-volume
     * completion scoring calls — identical numbers to
     * evaluate(...).totalEnergyPj without materializing a CostResult.
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
     * chunks (independent of the pool size, so results and cache
     * contents are deterministic for any thread count) and the chunks
     * are spread over the pool. out[i] corresponds to ms[i] and is
     * bit-identical to evaluate() of ms[i], invalidReason included.
     * Under CachePolicy::UseCache, hits are served per mapping and the
     * misses are evaluated with evaluateMappingInto() on the thread's
     * scratch (and are then inserted). The per-eval latency histogram
     * records one sample per chunk (the chunk mean) rather than one per
     * evaluation.
     */
    void evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts, CachePolicy policy,
                       std::vector<CostResult> &out);

    /** Convenience overload returning the results by value. */
    std::vector<CostResult>
    evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                  const CostModelOptions &opts = {},
                  CachePolicy policy = CachePolicy::UseCache);

    /**
     * The shared worker pool, created on first use with the configured
     * thread count. Use TaskGroup/parallelFor for scoped joins.
     */
    ThreadPool &pool();

    /** Records alpha-beta (or equivalent) prunes for telemetry. */
    void notePrune(std::int64_t n) { prunes_.add(n); }

    /** @return a consistent snapshot of the counters. */
    SearchStats stats() const;

    /** @return total entries currently cached (approximate under load). */
    std::size_t cacheSize() const;

  private:
    struct Entry
    {
        std::vector<std::int64_t> key;
        CostResult result;
    };
    /**
     * Worker threads lock shards once per mapping. The shards sit in one
     * array, each starting on a cache line of its own, so which of their
     * fields share a line does not depend on where an allocator puts
     * them.
     */
    struct alignas(64) Shard
    {
        mutable std::mutex mtx;
        std::unordered_map<std::uint64_t, Entry> map;
    };
    struct PrefixEntry
    {
        std::vector<std::int64_t> key;
        std::shared_ptr<const PrefixTerms> terms;
    };

    void canonicalKey(const Mapping &m, const CostModelOptions &opts,
                      std::vector<std::int64_t> &out) const;
    void canonicalPrefixKey(const Mapping &m, int prefix_levels,
                            std::vector<std::int64_t> &out) const;
    CostResult evaluateImpl(const Context &ctx, const Mapping &m,
                            const CostModelOptions &opts, CachePolicy policy,
                            const PrefixTerms *prefix);
    void evaluateChunk(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts, CachePolicy policy,
                       std::vector<CostResult> &out, std::size_t lo,
                       std::size_t hi);

    EvalEngineOptions opts_;
    std::vector<Shard> shards_;

    /** Bounded memo of prefix-term snapshots (cleared when full). */
    static constexpr std::size_t kMaxPrefixEntries = 4096;
    mutable std::mutex prefixMtx_;
    std::unordered_map<std::uint64_t, PrefixEntry> prefixCache_;

    // Per-engine telemetry uses the obs primitives directly (not the
    // process-wide registry) so two engines in one process — e.g. the
    // Sunstone and baseline engines in fig7 — stay separable.
    obs::Counter evaluations_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter invalid_;
    obs::Counter prunes_;
    obs::Counter evictions_;
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
