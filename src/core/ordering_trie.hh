/**
 * @file
 * Loop-ordering search over the trie representation of Section IV-A.
 *
 * A candidate ordering is represented by its *reuse suffix*: the run of
 * innermost loops that actually creates inter-tile reuse. Ordering
 * Principle 3 says the loops above the suffix do not change any access
 * count, so a full ordering is recovered by placing the remaining
 * dimensions outside in a canonical order.
 *
 * The trie is grown innermost-out. A dimension extends a suffix only if
 * it adds reuse of some tensor (Ordering Principles 1 and 2):
 *  - full reuse of tensor T: the dim does not index T and no dim already
 *    in the suffix indexes T;
 *  - partial (sliding-window) reuse of T: the dim indexes T only through
 *    a compound expression and no dim already in the suffix indexes T.
 * Leaves are deduplicated by reuse signature and dominance-pruned (the
 * sibling-subsumption rule of Fig. 4).
 */

#ifndef SUNSTONE_CORE_ORDERING_TRIE_HH
#define SUNSTONE_CORE_ORDERING_TRIE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace sunstone {

/** One surviving loop-ordering candidate. */
struct OrderingCandidate
{
    /** Reuse suffix, innermost loop first. */
    std::vector<DimId> suffix;

    /** Per-tensor dims across which the tensor is fully reused. */
    std::vector<DimSet> fullReuse;

    /** Per-tensor dims providing partial (sliding-window) reuse. */
    std::vector<DimSet> partialReuse;

    /** @return tensors with at least one full-reuse dim in the suffix. */
    std::vector<TensorId> fullyReusedTensors() const;

    std::string toString(const Workload &wl) const;
};

/**
 * Writes the complete outermost-first loop order for a reuse suffix into
 * `order`, reusing its storage: the non-suffix dims in ascending DimId
 * order, then the suffix (innermost last).
 */
void loopOrderForSuffix(const std::vector<DimId> &suffix, int num_dims,
                        std::vector<DimId> &order);

/** Statistics from one trie construction. */
struct OrderingTrieStats
{
    std::int64_t nodesVisited = 0;
    std::int64_t leaves = 0;
    std::int64_t survivors = 0;
};

/**
 * Enumerates the pruned set of ordering candidates for a workload.
 *
 * @param wl the workload
 * @param active_dims dims that still have loop iterations left at this
 *        level (quotient > 1); others cannot provide reuse
 * @param stats optional construction statistics
 */
std::vector<OrderingCandidate>
orderingCandidates(const Workload &wl, DimSet active_dims,
                   OrderingTrieStats *stats = nullptr);

} // namespace sunstone

#endif // SUNSTONE_CORE_ORDERING_TRIE_HH
