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
 * One memo path: evaluate() is a batch of one, so evaluate() and
 * evaluateBatch() share the lookup, the insert, the epoch reset and
 * every counter. A miss counts only when its insert creates the entry,
 * so the counts do not depend on which thread evaluated a key first.
 * The shard count and per-shard cap are constants; the pool size is
 * the one construction argument.
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
    /**
     * Memo lookups served by a stored entry, plus misses whose insert
     * found the key already stored (another thread or an earlier mapping
     * of the same chunk evaluated it first).
     */
    std::int64_t cacheHits = 0;
    /**
     * Memo misses whose insert created the entry: one per distinct key,
     * so hits and misses do not depend on thread timing as long as no
     * shard is reset.
     */
    std::int64_t cacheMisses = 0;
    /**
     * Returned results whose mapping failed the validity check: one per
     * invalid evaluation request (memo hits included) and per invalid
     * scoreEnergy() call.
     */
    std::int64_t invalidMappings = 0;
    /** Alpha-beta prunes recorded by searches via notePrune(). */
    std::int64_t prunes = 0;
    /** Entries dropped when a full shard was reset. */
    std::int64_t evictions = 0;
    /** Prefix-term cache hits/misses (see EvalEngine::prefix()),
     *  counted by the same rule as cacheHits/cacheMisses. */
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

    /** `threads` sizes the shared pool; 0 means hardware_concurrency(). */
    explicit EvalEngine(unsigned threads = 1);
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /** Fingerprints the pair; do once per search, not per evaluation. */
    Context context(const BoundArch &ba) const;

    /**
     * Evaluates one mapping: a batch of one (see evaluateBatch()), so it
     * counts, caches and times exactly as a one-mapping batch chunk.
     * With a non-empty `ph` the model reuses the handle's decided-prefix
     * terms and only recomputes the undecided levels; the result is
     * bit-identical to the plain evaluation for any mapping whose
     * canonical prefix matches the handle's, and shares its memo entry.
     */
    CostResult evaluate(const Context &ctx, const Mapping &m,
                        const CostModelOptions &opts = {},
                        CachePolicy policy = CachePolicy::UseCache,
                        const PrefixHandle &ph = {});

    /**
     * Returns (building on demand) the contribution terms of levels
     * [0, prefix_levels) of `base`. Handles are memoized in a bounded
     * cache keyed by the context fingerprint plus the canonical prefix
     * (factors + reduced orders — the same rules the memo cache uses),
     * so repeated requests for equivalent prefixes share one snapshot.
     * prefix_levels <= 0 returns an empty handle. Counted like the memo:
     * a miss only when this call's insert creates the entry.
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
     * infinity for invalid mappings. Never cached. This is what
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
     * chunks (independent of the pool size, so results and cache
     * contents are deterministic for any thread count) and the chunks
     * are spread over the pool. out[i] corresponds to ms[i] and is
     * bit-identical to evaluateMapping() of ms[i], invalidReason
     * included. Under CachePolicy::UseCache a chunk first looks every
     * mapping up, then evaluates its misses with evaluateMappingInto()
     * on the thread's scratch, then inserts them. The per-eval latency
     * histogram gets one sample per chunk, the chunk's mean weighted by
     * the evaluations it timed.
     */
    void evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts, CachePolicy policy,
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
    /** The one memo path: evaluate() and every evaluateBatch() chunk. */
    void evaluateChunk(const Context &ctx, std::span<const Mapping> ms,
                       const CostModelOptions &opts, CachePolicy policy,
                       const PrefixTerms *prefix,
                       std::span<CostResult> out);

    unsigned threads_;
    /** Memo stripes, each its own lock and map. */
    static constexpr std::size_t kShards = 16;
    /** Per-shard entry cap; a full shard is reset (epoch eviction). */
    static constexpr std::size_t kMaxEntriesPerShard = 16384;
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
