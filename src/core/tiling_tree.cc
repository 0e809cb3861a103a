#include "core/tiling_tree.hh"

#include <algorithm>
#include <utility>

#include "common/math_utils.hh"

namespace sunstone {

namespace {

/**
 * Canonical-order depth-first walk over the fitting divisor-index
 * vectors. A node grows only the grow dims at or after the one it was
 * grown in, so each fitting vector is reached along exactly one path and
 * no visited set is needed. Footprints are monotone in every dim, so a
 * growth that overflows at a node overflows everywhere in the node's
 * subtree (which never grows that dim again): the dim is blocked there
 * and its probes are rejected without a fit check.
 */
struct CanonicalWalk
{
    const BoundArch &ba;
    const int level;
    const std::vector<std::int64_t> &base;
    std::vector<DimId> grow{};
    std::vector<const std::vector<std::int64_t> *> divs{};
    /** Divisor index, factor and tile extent (base × factor) per dim. */
    std::vector<std::size_t> idx{};
    std::vector<std::int64_t> node{}, shape{};
    /** Maximal tiles with their divisor-index depth. */
    std::vector<std::pair<int, std::vector<std::int64_t>>> found{};
    std::int64_t visited = 0;

    void
    step(DimId d, int by)
    {
        idx[d] += by;
        node[d] = (*divs[d])[idx[d]];
        shape[d] = satMul(base[d], node[d]);
    }

    /** Walks the subtree of the current node, last grown in grow[first]. */
    void
    visit(std::size_t first, DimSet blocked, int depth)
    {
        ++visited;
        DimSet fitting;
        for (DimId d : grow) {
            if (idx[d] + 1 == divs[d]->size())
                continue; // dim exhausted
            bool fits = false;
            if (!blocked.contains(d)) {
                step(d, 1);
                fits = ba.fitsShape(level, shape);
                step(d, -1);
            }
            if (fits) {
                fitting.add(d);
            } else {
                ++visited; // examined and rejected
                blocked.add(d);
            }
        }
        if (fitting.empty()) {
            found.emplace_back(depth, node);
            return;
        }
        for (std::size_t i = first; i < grow.size(); ++i) {
            if (!fitting.contains(grow[i]))
                continue;
            step(grow[i], 1);
            visit(i, blocked, depth + 1);
            step(grow[i], -1);
        }
    }
};

} // anonymous namespace

TilingTreeResult
growTiles(const BoundArch &ba, int level,
          const std::vector<std::int64_t> &base_shape,
          const std::vector<std::int64_t> &remaining, DimSet grow_dims)
{
    TilingTreeResult res;
    if (!ba.fitsShape(level, base_shape)) {
        // Even the unit tile overflows (the base shape is too large);
        // no candidates at this level.
        return res;
    }
    const std::size_t nd = remaining.size();
    CanonicalWalk walk{ba, level, base_shape};
    walk.divs.assign(nd, nullptr);
    walk.idx.assign(nd, 0);
    walk.node.assign(nd, 1);
    walk.shape = base_shape;
    // The unpruned grow-dim space, for reporting: every combination of
    // divisors along the grow dims.
    res.unprunedSpace = 1;
    for (DimId d : grow_dims) {
        const auto &divs = cachedDivisors(remaining[d]);
        walk.grow.push_back(d);
        walk.divs[d] = &divs;
        res.unprunedSpace = satMul(res.unprunedSpace,
                                   static_cast<std::int64_t>(divs.size()));
    }
    walk.visit(0, DimSet(), 0);
    res.nodesVisited = walk.visited;

    // Report in breadth-first order: divisor-index depth ascending, then
    // the vector lexicographically descending.
    std::sort(walk.found.begin(), walk.found.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second > b.second;
              });
    for (auto &f : walk.found)
        res.maximal.push_back(std::move(f.second));
    return res;
}

} // namespace sunstone
