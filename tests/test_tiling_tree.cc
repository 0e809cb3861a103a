/** @file Tests for the tiling tree (Sections III-A, IV-B). */

#include <gtest/gtest.h>

#include <random>

#include "arch/presets.hh"
#include "common/math_utils.hh"
#include "core/tiling_tree.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

std::int64_t
footprintAll(const Workload &wl, const std::vector<std::int64_t> &shape)
{
    std::int64_t fp = 0;
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        fp += wl.tensor(t).footprint(shape);
    return fp;
}

/** The Fig. 5 example: K=4, P=14, C=4, R=4 sliding-window conv with a
 *  unified 8-entry L1, growing only the ofmap indexing dims K and P. */
class FigFiveTest : public ::testing::Test
{
  protected:
    FigFiveTest()
        : wl(makeConv1D(4, 4, 14, 4)), arch(makeToyArch(8, 1)),
          ba(arch, wl)
    {
        grow.add(wl.dimByName("k"));
        grow.add(wl.dimByName("p"));
    }

    Workload wl;
    ArchSpec arch;
    BoundArch ba;
    DimSet grow;
};

TEST_F(FigFiveTest, MaximalTilesFitAndCannotGrow)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    ASSERT_FALSE(res.maximal.empty());
    for (const auto &tile : res.maximal) {
        EXPECT_LE(footprintAll(wl, tile) * 16, 8 * 16);
        // Growing any grow-dim to the next divisor must overflow (or be
        // impossible).
        for (DimId d : grow) {
            const std::int64_t nf = nextDivisor(wl.dimSize(d), tile[d]);
            if (nf == 0)
                continue;
            auto bigger = tile;
            bigger[d] = nf;
            EXPECT_GT(footprintAll(wl, bigger) * 16, 8 * 16)
                << "tile could still grow in dim " << wl.dimName(d);
        }
    }
}

TEST_F(FigFiveTest, OnlyGrowDimsChange)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    const DimId c = wl.dimByName("c"), r = wl.dimByName("r");
    for (const auto &tile : res.maximal) {
        EXPECT_EQ(tile[c], 1);
        EXPECT_EQ(tile[r], 1);
    }
}

TEST_F(FigFiveTest, ExactMaximalList)
{
    // k, c, p, r: the only maximal tile is K=2, P=2 (ofmap 4 + ifmap 2
    // + weight 2 = 8 words); the tree visits 4 fitting tiles and
    // rejects 4 growths out of the 4 x 3 (K, P) divisor pairs.
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    EXPECT_EQ(res.maximal,
              (std::vector<std::vector<std::int64_t>>{{2, 1, 2, 1}}));
    EXPECT_EQ(res.nodesVisited, 8);
    EXPECT_EQ(res.unprunedSpace, 12);
}

TEST_F(FigFiveTest, PruningShrinksTheSpace)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    // The unpruned grow space is all divisor pairs of (K, P); the
    // surviving frontier must be strictly smaller.
    EXPECT_LT((std::int64_t)res.maximal.size(), res.unprunedSpace);
    EXPECT_GT(res.nodesVisited, 0);
}

TEST(TilingTree, RespectsBaseShape)
{
    Workload wl = makeGemm(16, 16, 16);
    ArchSpec arch = makeToyArch(64, 1);
    BoundArch ba(arch, wl);
    // A base shape that nearly fills L1 leaves little room to grow.
    std::vector<std::int64_t> base{4, 4, 1}; // out 16 + a 4 + b 4 = 24
    std::vector<std::int64_t> remaining{4, 4, 16};
    auto res = growTiles(ba, 0, base, remaining, DimSet::all(3));
    for (const auto &tile : res.maximal) {
        std::vector<std::int64_t> shape(3);
        for (int d = 0; d < 3; ++d)
            shape[d] = base[d] * tile[d];
        EXPECT_LE(footprintAll(wl, shape), 64);
    }
}

TEST(TilingTree, OverflowingBaseYieldsNoCandidates)
{
    Workload wl = makeGemm(16, 16, 16);
    ArchSpec arch = makeToyArch(8, 1);
    BoundArch ba(arch, wl);
    std::vector<std::int64_t> base{16, 16, 1}; // 256-word output alone
    auto res = growTiles(ba, 0, base, {1, 1, 16}, DimSet::all(3));
    EXPECT_TRUE(res.maximal.empty());
}

TEST(TilingTree, ExhaustedDimIsMaximal)
{
    // When remaining = 1 along every grow dim, the unit tile itself is
    // the single maximal candidate.
    Workload wl = makeGemm(4, 4, 4);
    BoundArch ba(makeToyArch(1024, 1), wl);
    auto res = growTiles(ba, 0, {1, 1, 1}, {1, 1, 1}, DimSet::all(3));
    ASSERT_EQ(res.maximal.size(), 1u);
    EXPECT_EQ(res.maximal[0], (std::vector<std::int64_t>{1, 1, 1}));
}

TEST(TilingTree, PartitionedCapacityIsPerDatatype)
{
    // On the Simba-like PE level the weight partition (32 KB) dominates;
    // the tree must respect each partition separately.
    ConvShape sh;
    sh.k = 64;
    sh.c = 64;
    sh.p = 8;
    sh.q = 8;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    DimSet grow;
    grow.add(wl.dimByName("k"));
    grow.add(wl.dimByName("c"));
    auto res = growTiles(ba, 1, std::vector<std::int64_t>(7, 1),
                         wl.shape(), grow);
    for (const auto &tile : res.maximal) {
        // weight tile k*c (r=s=1) must fit 32 KB of 8-bit words.
        EXPECT_LE(tile[wl.dimByName("k")] * tile[wl.dimByName("c")],
                  32 * 1024);
        // ofmap tile k (p=q=1) must fit 3 KB of 24-bit words.
        EXPECT_LE(tile[wl.dimByName("k")] * 24, 3 * 8 * 1024);
    }
    EXPECT_FALSE(res.maximal.empty());
}

/** Section III-A claim: the Tiling Principle prunes a large fraction of
 *  the L1 tile space for ResNet-style layers (up to 80% in the paper). */
TEST(TilingTree, PruningRatioIsSubstantial)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 56;
    sh.q = 56;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeConventional(), wl);
    DimSet grow; // ofmap-indexing dims for an ofmap-reusing order
    for (DimId d : wl.reuse(wl.tensorByName("ofmap")).indexing)
        grow.add(d);
    auto res = growTiles(ba, 0, std::vector<std::int64_t>(7, 1),
                         wl.shape(), grow);
    ASSERT_FALSE(res.maximal.empty());
    const double kept = static_cast<double>(res.maximal.size()) /
                        static_cast<double>(res.unprunedSpace);
    EXPECT_LT(kept, 0.5) << "maximal=" << res.maximal.size()
                         << " unpruned=" << res.unprunedSpace;
}

/**
 * Brute-force reference for growTiles(): enumerates the whole grow-dim
 * divisor lattice with an independent capacity check, then replays the
 * breadth-first tiling tree over it with an exact visited set. The
 * replay defines the contract: maximal tiles in breadth-first discovery
 * order, nodesVisited = every fitting node plus every rejected growth
 * probe of one, unprunedSpace = the lattice size (0 when even the unit
 * tile overflows).
 */
TilingTreeResult
bruteForceTiles(const BoundArch &ba, int level,
                const std::vector<std::int64_t> &base,
                const std::vector<std::int64_t> &remaining, DimSet grow)
{
    const Workload &wl = ba.workload();
    const std::size_t nd = remaining.size();
    auto fitsFactors = [&](const std::vector<std::int64_t> &factors) {
        std::vector<std::int64_t> shape(nd), fp(wl.numTensors(), 0);
        for (std::size_t d = 0; d < nd; ++d)
            shape[d] = satMul(base[d], factors[d]);
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            if (ba.stores(level, t))
                fp[t] = wl.tensor(t).footprint(shape);
        return ba.fits(level, fp);
    };

    TilingTreeResult ref;
    if (!fitsFactors(std::vector<std::int64_t>(nd, 1)))
        return ref;

    // Mixed-radix lattice over the grow dims: node id = sum idx * stride.
    std::vector<DimId> dims;
    std::vector<std::vector<std::int64_t>> divs;
    std::vector<std::size_t> stride;
    std::size_t size = 1;
    for (DimId d : grow) {
        dims.push_back(d);
        divs.push_back(divisors(remaining[d]));
        stride.push_back(size);
        size *= divs.back().size();
    }
    ref.unprunedSpace = static_cast<std::int64_t>(size);
    auto factorsOf = [&](std::size_t id) {
        std::vector<std::int64_t> f(nd, 1);
        for (std::size_t i = 0; i < dims.size(); ++i)
            f[dims[i]] = divs[i][(id / stride[i]) % divs[i].size()];
        return f;
    };
    std::vector<char> fit(size);
    for (std::size_t id = 0; id < size; ++id)
        fit[id] = fitsFactors(factorsOf(id));

    std::vector<char> seen(size, 0);
    std::vector<std::size_t> frontier{0};
    seen[0] = 1;
    while (!frontier.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t id : frontier) {
            ++ref.nodesVisited;
            bool any_fitting_child = false;
            for (std::size_t i = 0; i < dims.size(); ++i) {
                if ((id / stride[i]) % divs[i].size() + 1 ==
                    divs[i].size())
                    continue; // dim exhausted
                const std::size_t child = id + stride[i];
                if (!fit[child]) {
                    ++ref.nodesVisited;
                    continue;
                }
                any_fitting_child = true;
                if (!seen[child]) {
                    seen[child] = 1;
                    next.push_back(child);
                }
            }
            if (!any_fitting_child)
                ref.maximal.push_back(factorsOf(id));
        }
        frontier = std::move(next);
    }
    return ref;
}

/** One seeded random growTiles() problem. */
struct TileCase
{
    std::string label;
    Workload wl;
    ArchSpec arch;
    int level = 0;
    std::vector<std::int64_t> base, remaining;
    DimSet grow;
};

TileCase
randomTileCase(std::mt19937_64 &rng)
{
    auto pick = [&](std::initializer_list<std::int64_t> v) {
        return *(v.begin() + rng() % v.size());
    };
    auto dim = [&] { return pick({1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 28}); };
    TileCase c;
    switch (rng() % 8) {
      case 0: {
        ConvShape sh;
        sh.n = pick({1, 2});
        sh.k = dim();
        sh.c = dim();
        sh.p = dim();
        sh.q = dim();
        sh.r = pick({1, 3});
        sh.s = pick({1, 3});
        sh.strideH = sh.strideW = pick({1, 2});
        c.wl = makeConv2D(sh);
        break;
      }
      case 1:
        c.wl = makeConv1D(dim(), dim(), dim(), pick({1, 3, 5}));
        break;
      case 2:
        c.wl = makeGemm(dim(), dim(), dim());
        break;
      case 3:
        c.wl = makeMTTKRP(dim(), dim(), dim(), dim());
        break;
      case 4:
        c.wl = makeSDDMM(dim(), dim(), dim());
        break;
      case 5:
        c.wl = makeTTMc(dim(), dim(), dim(), dim(), dim());
        break;
      case 6:
        c.wl = makeMMc(dim(), dim(), dim(), dim());
        break;
      default:
        c.wl = makeTCL(dim(), dim(), dim(), dim(), dim(), dim());
        break;
    }
    // The partitioned presets bind exactly three tensors.
    const bool three_tensors = c.wl.numTensors() == 3;
    switch (rng() % 4) {
      case 0:
        c.arch = three_tensors ? makeDianNaoLike() : makeEyerissLike();
        break;
      case 1:
        if (!three_tensors) {
            c.arch = makeConventional();
            break;
        }
        c.arch = makeSimbaLike();
        applySimbaPrecisions(c.wl);
        break;
      case 2:
        c.arch = makeConventional();
        break;
      default:
        c.arch = makeToyArch(pick({4, 8, 16, 32, 64, 256}), 4);
        break;
    }
    // Mostly the innermost level, where capacity binds soonest.
    c.level = rng() % 3 == 0
                  ? static_cast<int>(rng() % (c.arch.numLevels() - 1))
                  : 0;

    // Base shapes carry factors from the levels below (including spatial
    // ones); a base that takes the whole dim leaves it exhausted.
    const int nd = c.wl.numDims();
    c.base.assign(nd, 1);
    c.remaining = c.wl.shape();
    for (int d = 0; d < nd; ++d) {
        const auto &dv = divisors(c.remaining[d]);
        switch (rng() % 6) {
          case 0:
            c.base[d] = dv[rng() % dv.size()];
            break;
          case 1:
            c.base[d] = c.remaining[d];
            break;
          default:
            break;
        }
        c.remaining[d] /= c.base[d];
    }
    if (rng() % 12 != 0)
        for (int d = 0; d < nd; ++d)
            if (rng() % 3 != 0)
                c.grow.add(d);
    // Keep the lattice enumerable.
    for (int d = nd - 1; d >= 0; --d) {
        std::size_t size = 1;
        for (DimId g : c.grow)
            size *= divisors(c.remaining[g]).size();
        if (size <= 20000)
            break;
        c.grow.remove(d);
    }
    c.label = c.wl.name() + " on " + c.arch.name + " L" +
              std::to_string(c.level);
    return c;
}

void
expectMatchesReference(const TileCase &c)
{
    BoundArch ba(c.arch, c.wl);
    const auto got = growTiles(ba, c.level, c.base, c.remaining, c.grow);
    const auto ref =
        bruteForceTiles(ba, c.level, c.base, c.remaining, c.grow);
    EXPECT_EQ(got.maximal, ref.maximal) << c.label;
    EXPECT_EQ(got.nodesVisited, ref.nodesVisited) << c.label;
    EXPECT_EQ(got.unprunedSpace, ref.unprunedSpace) << c.label;
}

TEST(TilingTreeReference, RandomCasesMatchBruteForce)
{
    std::mt19937_64 rng(20230417);
    int unit_overflows = 0, empty_grow = 0, exhausted = 0, partitioned = 0,
        multi_maximal = 0;
    for (int i = 0; i < 200; ++i) {
        const TileCase c = randomTileCase(rng);
        SCOPED_TRACE("case " + std::to_string(i));
        expectMatchesReference(c);

        BoundArch ba(c.arch, c.wl);
        const auto got =
            growTiles(ba, c.level, c.base, c.remaining, c.grow);
        unit_overflows += got.unprunedSpace == 0;
        empty_grow += c.grow.empty();
        partitioned += !c.arch.levels[c.level].partitions.empty();
        multi_maximal += got.maximal.size() > 1;
        for (DimId d : c.grow)
            if (c.remaining[d] == 1) {
                ++exhausted;
                break;
            }
    }
    // The seed must exercise every regime the walk distinguishes.
    EXPECT_GE(unit_overflows, 10);
    EXPECT_GE(empty_grow, 10);
    EXPECT_GE(exhausted, 50);
    EXPECT_GE(partitioned, 20);
    EXPECT_GE(multi_maximal, 30);
}

TEST(TilingTreeReference, EdgeCasesMatchBruteForce)
{
    TileCase c;
    c.wl = makeGemm(16, 16, 16);
    c.arch = makeToyArch(8, 1);
    // The unit tile already overflows L1.
    c.base = {16, 16, 1};
    c.remaining = {1, 1, 16};
    c.grow = DimSet::all(3);
    expectMatchesReference(c);
    EXPECT_TRUE(growTiles(BoundArch(c.arch, c.wl), 0, c.base, c.remaining,
                          c.grow)
                    .maximal.empty());

    // An empty grow set: the unit tile is the single maximal one.
    c.arch = makeToyArch(1024, 1);
    c.base = {1, 1, 1};
    c.remaining = {16, 16, 16};
    c.grow = DimSet();
    expectMatchesReference(c);

    // Every grow dim exhausted.
    c.remaining = {1, 1, 1};
    c.grow = DimSet::all(3);
    expectMatchesReference(c);

    // A large unified sweep (ResNet-style conv on the conventional L1).
    ConvShape sh;
    sh.k = 64;
    sh.c = 64;
    sh.p = 56;
    sh.q = 56;
    sh.r = 3;
    sh.s = 3;
    c.wl = makeConv2D(sh);
    c.arch = makeConventional();
    c.base.assign(7, 1);
    c.remaining = c.wl.shape();
    c.grow = c.wl.reuse(c.wl.tensorByName("ofmap")).indexing;
    expectMatchesReference(c);

    // The column walk's own regimes. The column is the grow dim with the
    // most divisors; in a 16x12x16 GEMM dims 0 and 2 have 5, dim 1 has 6.
    c.wl = makeGemm(16, 12, 16);
    c.base = {1, 1, 1};
    c.remaining = c.wl.shape();

    // A single grow dim: no rows, only the column's top.
    c.grow = DimSet();
    c.grow.add(2);
    c.arch = makeToyArch(16, 1);
    expectMatchesReference(c);
    c.arch = makeToyArch(1024, 1);
    expectMatchesReference(c);

    // Dims 0 and 2 tie in divisor count.
    c.grow.add(0);
    c.arch = makeToyArch(48, 1);
    expectMatchesReference(c);

    // The column (dim 1) is not the lowest DimId.
    c.grow = DimSet::all(3);
    expectMatchesReference(c);

    // A grow dim whose quotient is 1 is exhausted from the start.
    c.remaining = {16, 1, 16};
    expectMatchesReference(c);
    c.remaining = c.wl.shape();

    // The unit tile fits but no column growth does (top 0).
    c.base = {2, 1, 2};
    c.arch = makeToyArch(9, 1);
    expectMatchesReference(c);

    // A row dim whose first growth overflows even at column index 0.
    c.base = {1, 1, 1};
    c.arch = makeToyArch(4, 1);
    expectMatchesReference(c);
}

} // namespace
} // namespace sunstone
