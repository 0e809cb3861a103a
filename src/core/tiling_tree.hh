/**
 * @file
 * Tile-growth search tree of Section IV-B. Starting from a base tile, the
 * tree grows one dimension at a time to the next-larger divisor of that
 * dimension's remaining quotient, but only along the *grow dimensions*
 * selected by the Tiling Principle (the indexing dims of the tensor(s)
 * the upper-level ordering reuses). A node with any fitting child is
 * strictly dominated (the child reuses more) and is pruned; the surviving
 * candidates are the maximal fitting tiles (Fig. 5). The walk itself is
 * a column walk (DESIGN.md §4): the fitting tiles along one grow dim are
 * a prefix, so it binary-searches each prefix's top and visits only the
 * tops, deriving the counts of the nodes in between.
 */

#ifndef SUNSTONE_CORE_TILING_TREE_HH
#define SUNSTONE_CORE_TILING_TREE_HH

#include <cstdint>
#include <vector>

#include "arch/arch.hh"
#include "workload/dim_set.hh"

namespace sunstone {

/** Result of one tiling-tree search. */
struct TilingTreeResult
{
    /** Maximal fitting factor vectors (per dim, this level only), in
     *  breadth-first order: divisor-index depth ascending, then the
     *  vector lexicographically descending in DimId order. */
    std::vector<std::vector<std::int64_t>> maximal;
    /** Size of the explored tree (the "space size" contribution): every
     *  fitting tile plus every rejected growth of one. A lattice count
     *  the walk derives from the prefix tops, not a count of probes. */
    std::int64_t nodesVisited = 0;
    /** Capacity checks the walk made, the check of the unit tile
     *  included. */
    std::int64_t fitProbes = 0;
    /** Size of the unpruned grow-dim divisor lattice (0 when even the
     *  unit tile overflows). */
    std::int64_t unprunedSpace = 0;
};

/**
 * Enumerates maximal fitting temporal-factor vectors for one level.
 *
 * @param ba bound architecture
 * @param level storage level whose capacity constrains the tile
 * @param base_shape cumulative tile shape from the levels below,
 *        including this level's spatial factors and any pre-absorbed
 *        temporal factors
 * @param remaining per-dim quotients still available for this level
 * @param grow_dims dims the Tiling Principle allows to grow
 */
TilingTreeResult
growTiles(const BoundArch &ba, int level,
          const std::vector<std::int64_t> &base_shape,
          const std::vector<std::int64_t> &remaining, DimSet grow_dims);

} // namespace sunstone

#endif // SUNSTONE_CORE_TILING_TREE_HH
