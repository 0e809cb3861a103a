/**
 * @file
 * The Sunstone scheduler (the paper's contribution, Sections III-IV):
 * level-by-level dataflow optimization where each step jointly picks
 *  - the reuse suffix of the loop ordering *above* the level being tiled
 *    (ordering trie, Section IV-A),
 *  - the level's temporal tile, grown only along the indexing dims of the
 *    reused operand (Tiling Principle + tree of Section IV-B), after
 *    greedily absorbing the previous step's reuse-suffix loops, and
 *  - the spatial unrolling of the fanout above, restricted by the Spatial
 *    Unrolling Principle and a throughput filter (Section III-B).
 *
 * Candidates are scored by completing the partial mapping (all residual
 * loops to DRAM) and evaluating its energy; a beam plus alpha-beta
 * pruning against the incumbent keeps the per-level frontier small
 * (Section V-C). Both the bottom-up and top-down inter-level orders and
 * all intra-level decision orders of Table VI are supported.
 */

#ifndef SUNSTONE_CORE_SUNSTONE_HH
#define SUNSTONE_CORE_SUNSTONE_HH

#include <cstdint>
#include <string>

#include "model/cost_model.hh"
#include "search/search_context.hh"

namespace sunstone {

/** Search configuration. */
struct SunstoneOptions
{
    /** Inter-level optimization order (Table VI). */
    enum class LevelOrder { BottomUp, TopDown };

    /**
     * Intra-level decision order (Table VI):
     *  - UnrollTileOrder (default, the paper's implementation): per
     *    candidate ordering, spatial unrolling is decided before the
     *    temporal tile, so parallelism and tiling do not starve each
     *    other.
     *  - TileUnrollOrder: per candidate ordering, temporal tile first.
     *  - OrderTileUnroll: tile and unrolling are enumerated over the
     *    union of every ordering's principle-allowed dims and the
     *    ordering is bound last (a larger space, same principles).
     */
    enum class IntraOrder { OrderTileUnroll, TileUnrollOrder,
                            UnrollTileOrder };

    LevelOrder levelOrder = LevelOrder::BottomUp;
    IntraOrder intraOrder = IntraOrder::UnrollTileOrder;

    /** Partial mappings carried between levels. */
    int beamWidth = 32;

    /** Keep unrollings with >= threshold * best-achievable utilization. */
    double utilizationThreshold = 0.75;

    /** Alpha-beta pruning of partials against the incumbent energy. */
    bool alphaBeta = true;

    /** Prune partials whose estimate exceeds incumbent * slack. */
    double alphaSlack = 2.0;

    /** Rank final candidates by EDP (default) or energy alone. */
    bool optimizeEdp = true;

    /** Hill-climb the winning mapping with single-factor moves. */
    bool polish = true;

    /**
     * Add one unconstrained (empty-suffix) ordering candidate per level
     * so unrollings mixing reduction and output dims stay reachable.
     */
    bool generalistOrdering = true;

    /**
     * Name of the convergence trajectory the search opens when its
     * context carries a recorder: one point per incumbent improvement
     * plus one final point equal to the returned result.
     */
    std::string searchLabel = "sunstone";
};

/** Search outcome. */
struct SunstoneResult
{
    bool found = false;
    Mapping mapping;
    CostResult cost;

    /** (order, tile, unroll) combinations examined — the "space size". */
    std::int64_t candidatesExamined = 0;
    /** Wall-clock time of the search (cumulative across resumes). */
    double seconds = 0;

    /** Why the search ended (a stable stopReasonName() string). */
    std::string stopReason;
};

/**
 * Runs the Sunstone search for a workload/architecture pair under the
 * caller's SearchContext (StopPolicy, checkpoint/resume, convergence,
 * shared engine). Resuming assumes the same SunstoneOptions as the run
 * that wrote the checkpoint.
 */
SunstoneResult sunstoneOptimize(SearchContext &sc, const BoundArch &ba,
                                const SunstoneOptions &opts = {});

/** Convenience overload running under a fresh default context. */
SunstoneResult sunstoneOptimize(const BoundArch &ba,
                                const SunstoneOptions &opts = {});

} // namespace sunstone

#endif // SUNSTONE_CORE_SUNSTONE_HH
