#include "core/tiling_tree.hh"

#include <algorithm>
#include <utility>

#include "common/math_utils.hh"

namespace sunstone {

namespace {

/**
 * Column walk over the fitting divisor-index vectors (DESIGN.md §4). One
 * grow dim is the column; the others are the rows. Footprints are
 * monotone in every dim, so the fitting set is downward closed: at each
 * row vector the fitting column indices are a prefix [0, top]. The walk
 * visits only row vectors, in canonical depth-first order (a node grows
 * only the rows at or after the one it was grown in, so each row vector
 * is reached along exactly one path), and finds each neighbour row's top
 * by binary search below the node's own. The lattice counts of every
 * fitting node and every rejected growth follow from the tops without
 * probing the nodes in between.
 */
struct ColumnWalk
{
    const BoundArch &ba;
    const int level;
    const std::vector<std::int64_t> &base;
    DimId col = 0;
    int colSize = 1;
    std::vector<DimId> rows{};
    std::vector<const std::vector<std::int64_t> *> divs{};
    /** Divisor index, factor and tile extent (base × factor) per dim. */
    std::vector<std::size_t> idx{};
    std::vector<std::int64_t> node{}, shape{};
    /** Maximal tiles with their divisor-index depth. */
    std::vector<std::pair<int, std::vector<std::int64_t>>> found{};
    std::int64_t visited = 0;
    std::int64_t probes = 0;

    void
    set(DimId d, std::size_t i)
    {
        idx[d] = i;
        node[d] = (*divs[d])[i];
        shape[d] = satMul(base[d], node[d]);
    }

    /** Whether the current row vector fits at column index k. */
    bool
    fitsAt(int k)
    {
        set(col, static_cast<std::size_t>(k));
        ++probes;
        return ba.fitsShape(level, shape);
    }

    /** The top of the current row vector, given that column index lo
     *  fits (or is -1) and hi does not (or is colSize). */
    int
    lastFit(int lo, int hi)
    {
        while (hi - lo > 1) {
            const int mid = lo + (hi - lo) / 2;
            if (fitsAt(mid))
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    /** Walks the row subtree of the current row vector, last grown in
     *  rows[first], whose column top is m. */
    void
    visit(std::size_t first, DimSet blocked, int depth, int m)
    {
        // Tiles (row, 0..m) fit; the growth past the top is rejected.
        visited += m + 1;
        if (m + 1 < colSize)
            ++visited;
        int tops[MaxDims];
        bool maximal = true;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const DimId d = rows[i];
            tops[i] = -1;
            if (idx[d] + 1 == divs[d]->size())
                continue; // dim exhausted
            if (!blocked.contains(d)) {
                // The neighbour's top is at most m: try m, then search.
                set(d, idx[d] + 1);
                tops[i] = fitsAt(m) ? m : lastFit(-1, m);
                set(d, idx[d] - 1);
            }
            // Row growths of (row, k) are rejected for k above tops[i].
            visited += m - tops[i];
            if (tops[i] < 0)
                blocked.add(d);
            if (tops[i] == m)
                maximal = false;
        }
        if (maximal) {
            set(col, static_cast<std::size_t>(m));
            found.emplace_back(depth + m, node);
        }
        for (std::size_t i = first; i < rows.size(); ++i) {
            if (tops[i] < 0)
                continue;
            const DimId d = rows[i];
            set(d, idx[d] + 1);
            visit(i, blocked, depth + 1, tops[i]);
            set(d, idx[d] - 1);
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
    res.fitProbes = 1;
    if (!ba.fitsShape(level, base_shape)) {
        // Even the unit tile overflows (the base shape is too large);
        // no candidates at this level.
        return res;
    }
    const std::size_t nd = remaining.size();
    res.unprunedSpace = 1;
    if (grow_dims.empty()) {
        // Nothing may grow: the unit tile is the single maximal one.
        res.nodesVisited = 1;
        res.maximal.emplace_back(nd, 1);
        return res;
    }
    ColumnWalk walk{ba, level, base_shape};
    walk.divs.assign(nd, nullptr);
    walk.idx.assign(nd, 0);
    walk.node.assign(nd, 1);
    walk.shape = base_shape;
    // The column is the grow dim with the most divisors (the first on a
    // tie). The unpruned grow-dim space, for reporting: every combination
    // of divisors along the grow dims.
    std::size_t col_size = 0;
    for (DimId d : grow_dims) {
        const auto &divs = cachedDivisors(remaining[d]);
        walk.divs[d] = &divs;
        if (divs.size() > col_size) {
            col_size = divs.size();
            walk.col = d;
        }
        res.unprunedSpace = satMul(res.unprunedSpace,
                                   static_cast<std::int64_t>(divs.size()));
    }
    walk.colSize = static_cast<int>(col_size);
    for (DimId d : grow_dims)
        if (d != walk.col)
            walk.rows.push_back(d);
    walk.visit(0, DimSet(), 0, walk.lastFit(0, walk.colSize));
    res.nodesVisited = walk.visited;
    res.fitProbes += walk.probes;

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
