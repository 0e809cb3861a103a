/** @file
 * Tests for the Sunstone driver: validity on every workload class and
 * architecture, near-optimality against the exhaustive oracle on tiny
 * problems (the paper's "without rejecting good solutions" claim),
 * bottom-up vs top-down, intra-level orders, and determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "arch/presets.hh"
#include "core/sunstone.hh"
#include "mappers/exhaustive_mapper.hh"
#include "mapping/serialize.hh"
#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "obs/metrics.hh"
#include "search/checkpoint.hh"
#include "search/search_context.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

SunstoneResult
runSunstone(const BoundArch &ba, SunstoneOptions opts = {},
            unsigned threads = 1)
{
    EvalEngine engine(threads);
    SearchContext sc(&engine);
    SunstoneResult r = sunstoneOptimize(sc, ba, opts);
    EXPECT_TRUE(r.found);
    if (r.found) {
        std::string why;
        EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    }
    return r;
}

TEST(Sunstone, FindsValidMappingForEveryKernelClass)
{
    ConvShape sh;
    sh.n = 2;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    std::vector<Workload> workloads = {
        makeConv2D(sh),          makeConv1D(16, 16, 28, 3),
        makeGemm(64, 64, 64),    makeMTTKRP(64, 32, 32, 8),
        makeSDDMM(64, 64, 32),   makeTTMc(32, 16, 16, 8, 8),
        makeMMc(32, 32, 32, 32), makeTCL(8, 8, 8, 8, 8, 8),
    };
    ArchSpec arch = makeConventional();
    for (const auto &wl : workloads) {
        BoundArch ba(arch, wl);
        auto r = runSunstone(ba);
        EXPECT_GT(r.cost.totalEnergyPj, 0) << wl.name();
        EXPECT_GT(r.candidatesExamined, 0) << wl.name();
    }
}

TEST(Sunstone, HandlesSimbaLikeHierarchy)
{
    ConvShape sh;
    sh.n = 2;
    sh.k = 32;
    sh.c = 32;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    auto r = runSunstone(ba);
    // The Simba-like machine has three spatial levels; a sensible
    // mapping must exploit real parallelism (dozens of lanes)...
    EXPECT_GT(r.mapping.totalSpatial(), 32);
    // ...and crush the serial all-at-DRAM reference on EDP.
    auto naive = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(naive.valid);
    EXPECT_LT(r.cost.edp * 10, naive.edp);
}

/** The central quality property: on problems small enough to enumerate
 * completely, Sunstone's pruned search must land within a small factor
 * of the global optimum. */
class NearOptimality : public ::testing::TestWithParam<int>
{
  protected:
    Workload
    workload() const
    {
        switch (GetParam()) {
          case 0:
            return makeConv1D(4, 4, 8, 3);
          case 1:
            return makeGemm(8, 8, 8);
          case 2:
            return makeMTTKRP(4, 4, 4, 4);
          default:
            return makeSDDMM(4, 4, 4);
        }
    }
};

TEST_P(NearOptimality, WithinTenPercentOfExhaustive)
{
    Workload wl = workload();
    ArchSpec arch = makeToyArch(16, 4);
    BoundArch ba(arch, wl);

    ExhaustiveOptions eo;
    eo.maxSpace = 5e7;
    ExhaustiveMapper ex(eo);
    auto truth = ex.optimize(ba);
    ASSERT_TRUE(truth.found);

    SunstoneOptions so;
    so.beamWidth = 64;
    auto r = runSunstone(ba, so);
    EXPECT_LE(r.cost.edp, truth.cost.edp * 1.10)
        << wl.name() << ": sunstone " << r.cost.edp << " vs optimal "
        << truth.cost.edp;
    // And it must do so with a far smaller examined space.
    EXPECT_LT(r.candidatesExamined, truth.mappingsEvaluated);
}

INSTANTIATE_TEST_SUITE_P(TinyProblems, NearOptimality,
                         ::testing::Range(0, 4));

TEST(Sunstone, TopDownAlsoFindsValidMappings)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    SunstoneOptions opts;
    opts.levelOrder = SunstoneOptions::LevelOrder::TopDown;
    auto r = runSunstone(ba, opts);
    EXPECT_GT(r.candidatesExamined, 0);
}

TEST(Sunstone, TopDownExploresMoreThanBottomUp)
{
    // Table VI's headline: the bottom-up order examines far fewer
    // candidates at similar quality.
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeEyerissLike(), wl);

    SunstoneOptions up;
    auto r_up = runSunstone(ba, up);

    SunstoneOptions down;
    down.levelOrder = SunstoneOptions::LevelOrder::TopDown;
    auto r_down = runSunstone(ba, down);

    EXPECT_GT(r_down.candidatesExamined, r_up.candidatesExamined);
    // Quality stays in the same ballpark (Table VI: 4.8 vs 4.6).
    EXPECT_LT(r_up.cost.edp, r_down.cost.edp * 3.0);
    EXPECT_LT(r_down.cost.edp, r_up.cost.edp * 3.0);
}

TEST(Sunstone, IntraLevelOrdersAllWork)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    using IO = SunstoneOptions::IntraOrder;
    double best = std::numeric_limits<double>::infinity();
    double worst = 0;
    for (IO io : {IO::OrderTileUnroll, IO::TileUnrollOrder,
                  IO::UnrollTileOrder}) {
        SunstoneOptions opts;
        opts.intraOrder = io;
        auto r = runSunstone(ba, opts);
        // Table VI studies the *energy* side of the objective; the
        // intra-level decision order barely moves it.
        best = std::min(best, r.cost.totalEnergyPj);
        worst = std::max(worst, r.cost.totalEnergyPj);
    }
    EXPECT_LT(worst, best * 2.0);
}

TEST(Sunstone, DeterministicAcrossRuns)
{
    Workload wl = makeMTTKRP(64, 32, 32, 8);
    BoundArch ba(makeConventional(), wl);
    auto a = runSunstone(ba);
    auto b = runSunstone(ba);
    EXPECT_EQ(a.cost.edp, b.cost.edp);
    EXPECT_EQ(a.candidatesExamined, b.candidatesExamined);
}

TEST(Sunstone, AlphaBetaAndBeamTrimTheSearch)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);

    SunstoneOptions wide;
    wide.alphaBeta = false;
    wide.beamWidth = 512;
    auto r_wide = runSunstone(ba, wide);

    SunstoneOptions tight;
    tight.alphaBeta = true;
    tight.beamWidth = 16;
    auto r_tight = runSunstone(ba, tight);

    // The pruned search keeps (almost) the same quality.
    EXPECT_LE(r_tight.cost.edp, r_wide.cost.edp * 1.25);
}

TEST(Sunstone, EnergyObjectiveFindsLowerEnergy)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    SunstoneOptions edp;
    auto r_edp = runSunstone(ba, edp);
    SunstoneOptions en;
    en.optimizeEdp = false;
    auto r_en = runSunstone(ba, en);
    EXPECT_LE(r_en.cost.totalEnergyPj, r_edp.cost.totalEnergyPj * 1.05);
}

TEST(Sunstone, MultithreadedMatchesSingleThreaded)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    auto a = runSunstone(ba, {}, 1);
    auto b = runSunstone(ba, {}, 4);
    // Same beam, same candidates, same result.
    EXPECT_EQ(a.cost.edp, b.cost.edp);
}

using LO = SunstoneOptions::LevelOrder;
using IO = SunstoneOptions::IntraOrder;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A search outcome recorded before candidate emission reused one
 *  working partial per expansion; the beam digest and the engine's
 *  prune and evaluation counts were recorded before kept candidates
 *  became compact records materialized only when they survive. The
 *  conventional-machine outcomes were recorded before an expansion
 *  reused tiling walks across its orderings. */
struct PinnedOutcome
{
    const char *problem;
    LO levelOrder;
    IO intraOrder;
    double edp;
    std::int64_t examined;
    const char *mapping;
    /** FNV-1a of the last beam checkpoint payload: every surviving
     *  mapping with its rem, suffix and score. */
    std::uint64_t beamDigest;
    std::int64_t prunes;
    std::int64_t evaluations;
};

/** A 3x3 conv on the Simba machine at Table IV's word widths: a
 *  partitioned hierarchy with vector lanes below level 0. */
BoundArch
simbaConv()
{
    ConvShape sh;
    sh.k = 32;
    sh.c = 32;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    return BoundArch(makeSimbaLike(), wl);
}

/** A ResNet-style 3x3 conv on the conventional machine, whose tiling
 *  walks are large (hundreds of nodes) and often repeated across the
 *  orderings of one expansion. */
BoundArch
conventionalConv()
{
    ConvShape sh;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    return BoundArch(makeConventional(), makeConv2D(sh));
}

const PinnedOutcome kPinned[] = {
    {"simba", LO::BottomUp, IO::OrderTileUnroll, 0x1.be093c743c028p-36, 47615,
     R"(mapping
level WeightReg temporal k=2 spatial q=2,s=3 order n,k,c,p,q,r,s
level PEBuf temporal k=8,c=4,p=4,q=4 spatial c=8 order n,k,c,r,s,q,p
level L2 temporal - spatial k=2,p=2,r=3 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x83b5a87b42ba834d, 15827, 17615},
    {"simba", LO::BottomUp, IO::TileUnrollOrder, 0x1.ca64cbdc01bbfp-36, 20604,
     R"(mapping
level WeightReg temporal k=8,p=2 spatial q=8 order n,k,c,p,q,r,s
level PEBuf temporal c=32,s=3 spatial k=4 order n,k,p,q,s,c,r
level L2 temporal - spatial p=4,r=3 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0xca1a976f4e40c01b, 5277, 6320},
    {"simba", LO::BottomUp, IO::UnrollTileOrder, 0x1.557b9e603f0c2p-36, 37449,
     R"(mapping
level WeightReg temporal k=2,c=4 spatial q=8 order n,k,c,p,q,r,s
level PEBuf temporal c=4,p=8,r=3 spatial c=2,s=3 order n,k,c,q,r,s,p
level L2 temporal - spatial k=16 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x9291b9e44a5db56e, 4782, 5487},
    {"simba", LO::TopDown, IO::OrderTileUnroll, 0x1.557b9e603f0c2p-36, 106024,
     R"(mapping
level WeightReg temporal p=4,q=8 spatial - order n,k,c,p,q,r,s
level PEBuf temporal k=2,c=4,p=2,r=3,s=3 spatial c=8 order n,k,c,q,r,s,p
level L2 temporal - spatial k=16 order n,k,c,q,r,s,p
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x9d07123c8bcb77bb, 190, 22846},
    {"simba", LO::TopDown, IO::TileUnrollOrder, 0x1.557b9e603f0c2p-36, 106024,
     R"(mapping
level WeightReg temporal p=4,q=8 spatial - order n,k,c,p,q,r,s
level PEBuf temporal k=2,c=4,p=2,r=3,s=3 spatial c=8 order n,k,c,q,r,s,p
level L2 temporal - spatial k=16 order n,k,c,q,r,s,p
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x9d07123c8bcb77bb, 190, 22846},
    {"simba", LO::TopDown, IO::UnrollTileOrder, 0x1.557b9e603f0c2p-36, 106024,
     R"(mapping
level WeightReg temporal p=4,q=8 spatial - order n,k,c,p,q,r,s
level PEBuf temporal k=2,c=4,p=2,r=3,s=3 spatial c=8 order n,k,c,q,r,s,p
level L2 temporal - spatial k=16 order n,k,c,q,r,s,p
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x9d07123c8bcb77bb, 190, 22846},
    {"eyeriss", LO::BottomUp, IO::OrderTileUnroll, 0x1.a8328431fa9bbp-37, 73012,
     R"(mapping
level Spad temporal k=4,c=4,p=14,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal c=4 spatial k=4,q=14,s=3 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,p,q,r,s,c
)",
     0x37341853158dad8e, 1369, 6483},
    {"eyeriss", LO::BottomUp, IO::TileUnrollOrder, 0x1.a8328431fa9bbp-37, 13824,
     R"(mapping
level Spad temporal k=4,c=4,p=14,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal - spatial k=4,q=14,s=3 order n,k,c,p,q,r,s
level DRAM temporal c=4 spatial - order n,k,c,p,q,r,s
)",
     0x1b55c8d993e7eb8f, 197, 1071},
    {"eyeriss", LO::BottomUp, IO::UnrollTileOrder, 0x1.a8328431fa9bbp-37, 9182,
     R"(mapping
level Spad temporal k=4,c=4,p=14,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal - spatial k=4,q=14,s=3 order n,k,c,p,q,r,s
level DRAM temporal c=4 spatial - order n,k,c,p,q,r,s
)",
     0x56f2bd4982a466be, 104, 636},
    {"eyeriss", LO::TopDown, IO::OrderTileUnroll, 0x1.e8b0969cdebfp-37, 30580,
     R"(mapping
level Spad temporal c=16,p=2,q=2,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal k=16 spatial p=7,q=7,s=3 order n,c,q,r,s,p,k
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x2ed01448af515be4, 1338, 2616},
    {"eyeriss", LO::TopDown, IO::TileUnrollOrder, 0x1.e8b0969cdebfp-37, 30580,
     R"(mapping
level Spad temporal c=16,p=2,q=2,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal k=16 spatial p=7,q=7,s=3 order n,c,q,r,s,p,k
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x2ed01448af515be4, 1338, 2616},
    {"eyeriss", LO::TopDown, IO::UnrollTileOrder, 0x1.e8b0969cdebfp-37, 30580,
     R"(mapping
level Spad temporal c=16,p=2,q=2,r=3 spatial - order n,k,c,p,q,r,s
level GLB temporal k=16 spatial p=7,q=7,s=3 order n,c,q,r,s,p,k
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x2ed01448af515be4, 1338, 2616},
    {"mttkrp", LO::BottomUp, IO::OrderTileUnroll, 0x1.4453c6cfdec9fp-34, 36508,
     R"(mapping
level L1 temporal k=32,l=4,j=2 spatial - order i,k,l,j
level L2 temporal l=8 spatial i=64,j=4 order i,k,l,j
level DRAM temporal - spatial - order i,k,l,j
)",
     0xd250e76ac9011214, 8, 1140},
    {"mttkrp", LO::BottomUp, IO::TileUnrollOrder, 0x1.4453c6cfdec9fp-34, 8260,
     R"(mapping
level L1 temporal k=32,l=4,j=2 spatial - order i,k,l,j
level L2 temporal l=4 spatial i=64,j=4 order i,k,l,j
level DRAM temporal l=2 spatial - order i,k,l,j
)",
     0xa9702e42f89efa0, 3, 571},
    {"mttkrp", LO::BottomUp, IO::UnrollTileOrder, 0x1.44aeca84b718ep-34, 3949,
     R"(mapping
level L1 temporal i=2,k=32,l=2,j=2 spatial - order i,k,l,j
level L2 temporal l=4 spatial i=32,l=2,j=4 order i,k,l,j
level DRAM temporal l=2 spatial - order i,k,l,j
)",
     0xcebcd7fcd617652c, 1, 539},
    {"mttkrp", LO::TopDown, IO::OrderTileUnroll, 0x1.469a77e492529p-34, 5995,
     R"(mapping
level L1 temporal i=4,l=16 spatial - order i,k,l,j
level L2 temporal k=32 spatial i=16,l=2,j=8 order i,j,l,k
level DRAM temporal - spatial - order i,k,l,j
)",
     0xa10912f9206b6420, 99, 1378},
    {"mttkrp", LO::TopDown, IO::TileUnrollOrder, 0x1.469a77e492529p-34, 5995,
     R"(mapping
level L1 temporal i=4,l=16 spatial - order i,k,l,j
level L2 temporal k=32 spatial i=16,l=2,j=8 order i,j,l,k
level DRAM temporal - spatial - order i,k,l,j
)",
     0xa10912f9206b6420, 99, 1378},
    {"mttkrp", LO::TopDown, IO::UnrollTileOrder, 0x1.469a77e492529p-34, 5995,
     R"(mapping
level L1 temporal i=4,l=16 spatial - order i,k,l,j
level L2 temporal k=32 spatial i=16,l=2,j=8 order i,j,l,k
level DRAM temporal - spatial - order i,k,l,j
)",
     0xa10912f9206b6420, 99, 1378},
    {"conventional", LO::BottomUp, IO::OrderTileUnroll, 0x1.1507bd845b9d5p-28, 883294,
     R"(mapping
level L1 temporal c=2,p=7,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal c=32 spatial k=64,p=4,q=4 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x203056c6463eca2, 66972, 76257},
    {"conventional", LO::BottomUp, IO::TileUnrollOrder, 0x1.1507bd845b9d5p-28, 125130,
     R"(mapping
level L1 temporal c=2,p=7,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal - spatial k=64,p=4,q=4 order n,k,c,p,q,r,s
level DRAM temporal c=32 spatial - order n,k,c,p,q,r,s
)",
     0xd8d91604f5d63115, 7850, 9315},
    {"conventional", LO::BottomUp, IO::UnrollTileOrder, 0x1.1507bd845b9d5p-28, 28468,
     R"(mapping
level L1 temporal p=7,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal c=64 spatial k=64,p=4,q=4 order n,k,p,q,s,c,r
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0x9eceeeb332848c9a, 775, 1628},
    {"conventional", LO::TopDown, IO::OrderTileUnroll, 0x1.3c4b6b58ec7b6p-28, 70592,
     R"(mapping
level L1 temporal k=8,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal c=64 spatial k=8,p=28,q=4 order n,k,p,q,r,s,c
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0xe9f92d2ea34eb6d2, 3546, 4545},
    {"conventional", LO::TopDown, IO::TileUnrollOrder, 0x1.3c4b6b58ec7b6p-28, 70592,
     R"(mapping
level L1 temporal k=8,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal c=64 spatial k=8,p=28,q=4 order n,k,p,q,r,s,c
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0xe9f92d2ea34eb6d2, 3546, 4545},
    {"conventional", LO::TopDown, IO::UnrollTileOrder, 0x1.3c4b6b58ec7b6p-28, 70592,
     R"(mapping
level L1 temporal k=8,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal c=64 spatial k=8,p=28,q=4 order n,k,p,q,r,s,c
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)",
     0xe9f92d2ea34eb6d2, 3546, 4545},
};

/**
 * Every candidate is built in place in a per-expansion working partial
 * and reset afterwards; a field left stale between candidates would
 * change a score, the beam, and so at least one of these pinned
 * outcomes. Kept candidates are compact records and only the beam's
 * survivors are materialized; a survivor that differs from the scored
 * partial, or a trim that keeps other records, changes the digest of
 * the last beam checkpoint, and a changed keep rule moves the prune and
 * evaluation counts. Covers every level order x intra-level order on a
 * partitioned hierarchy with vector lanes below level 0 (Simba), a
 * unified one (Eyeriss), a non-conv einsum, and a conv on the
 * conventional machine, where a walk served from the expansion's memo
 * must add the same examined nodes as the walk itself, at 1 and 4
 * threads.
 */
TEST(Sunstone, InPlaceEmissionMatchesPinnedOutcomes)
{
    ConvShape eyeriss_sh;
    eyeriss_sh.k = 16;
    eyeriss_sh.c = 16;
    eyeriss_sh.p = 14;
    eyeriss_sh.q = 14;
    eyeriss_sh.r = 3;
    eyeriss_sh.s = 3;
    const std::map<std::string, BoundArch> problems = {
        {"simba", simbaConv()},
        {"eyeriss", BoundArch(makeEyerissLike(), makeConv2D(eyeriss_sh))},
        {"mttkrp",
         BoundArch(makeConventional(), makeMTTKRP(64, 32, 32, 8))},
        {"conventional", conventionalConv()},
    };
    for (const PinnedOutcome &pin : kPinned) {
        const BoundArch &ba = problems.at(pin.problem);
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(pin.problem) + " level order " +
                         std::to_string(static_cast<int>(pin.levelOrder)) +
                         " intra order " +
                         std::to_string(static_cast<int>(pin.intraOrder)) +
                         " threads " + std::to_string(threads));
            SunstoneOptions opts;
            opts.levelOrder = pin.levelOrder;
            opts.intraOrder = pin.intraOrder;
            EvalEngine engine(threads);
            SearchContext sc(&engine);
            const std::string path =
                ::testing::TempDir() + "/pinned_beam.json";
            std::remove(path.c_str());
            sc.setCheckpointPath(path);
            SunstoneResult r = sunstoneOptimize(sc, ba, opts);
            ASSERT_TRUE(r.found);
            std::string why;
            EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
            EXPECT_EQ(mappingToText(r.mapping, ba), pin.mapping);
            EXPECT_EQ(r.cost.edp, pin.edp);
            EXPECT_EQ(r.candidatesExamined, pin.examined);

            SearchCheckpoint ck;
            std::string err;
            ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
            std::remove(path.c_str());
            EXPECT_EQ(fnv1a(ck.streamState), pin.beamDigest);
            EXPECT_EQ(engine.stats().prunes, pin.prunes);
            EXPECT_EQ(engine.stats().evaluations, pin.evaluations);
        }
    }
}

/**
 * Orderings of one expansion that fully reuse the same tensors share a
 * grow set and so ask for the same tiling walks; the memo answers the
 * repeats. Both counts are a pure function of the search, so they agree
 * at any thread count.
 */
TEST(Sunstone, TilingWalkReuseCountsAreThreadInvariant)
{
    const BoundArch ba = conventionalConv();
    obs::Counter &walks = obs::metrics().counter("sunstone.tiling.walks");
    obs::Counter &reused =
        obs::metrics().counter("sunstone.tiling.walks_reused");
    std::int64_t counts[2][2];
    double edp[2];
    for (int i = 0; i < 2; ++i) {
        const unsigned threads = i == 0 ? 1u : 4u;
        EvalEngine engine(threads);
        SearchContext sc(&engine);
        const std::int64_t w0 = walks.value();
        const std::int64_t r0 = reused.value();
        SunstoneResult r = sunstoneOptimize(sc, ba);
        ASSERT_TRUE(r.found);
        counts[i][0] = walks.value() - w0;
        counts[i][1] = reused.value() - r0;
        edp[i] = r.cost.edp;
    }
    EXPECT_GT(counts[0][1], 0);
    EXPECT_LT(counts[0][1], counts[0][0]);
    EXPECT_EQ(counts[0][0], counts[1][0]);
    EXPECT_EQ(counts[0][1], counts[1][1]);
    EXPECT_EQ(edp[0], edp[1]);
}

/** A max-evals cut at one thread, recorded when every scored candidate
 *  still reported itself to the driver and the engine on its own. */
struct MaxEvalsCut
{
    std::int64_t maxEvals;
    std::int64_t examined;
    /** The driver's evaluation count (the trajectory's last point). */
    std::int64_t evaluated;
    double edp;
    const char *mapping;
};

constexpr const char *kCutEarly = R"(mapping
level WeightReg temporal k=8 spatial q=8 order n,k,c,p,q,r,s
level PEBuf temporal - spatial k=4,p=2 order n,k,p,q,s,c,r
level L2 temporal - spatial - order n,k,c,p,q,r,s
level DRAM temporal c=32,p=4,r=3,s=3 spatial - order n,k,p,q,s,c,r
)";

/** Two cuts inside step 0's single expansion, one inside step 1, whose
 *  beam entries expand one after another at one thread. */
const MaxEvalsCut kMaxEvalsCuts[] = {
    {1000, 31674, 1032, 0x1.6e17899ecf9e4p-31, kCutEarly},
    {4100, 34774, 4132, 0x1.6e17899ecf9e4p-31, kCutEarly},
    {5200, 37198, 5229, 0x1.557b9e603f0c2p-36, R"(mapping
level WeightReg temporal k=2,c=4 spatial q=8 order n,k,c,p,q,r,s
level PEBuf temporal c=4,p=8,r=3 spatial c=2,s=3 order n,k,c,q,r,s,p
level L2 temporal - spatial k=16 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)"},
};

/** Runs the default search on `ba` under a max-evals bound (0: none). */
SunstoneResult
runWithMaxEvals(const BoundArch &ba, std::int64_t max_evals,
                EvalEngine &engine, std::int64_t &evaluated)
{
    StopPolicy pol;
    pol.maxEvals = max_evals;
    obs::ConvergenceRecorder rec;
    SearchContext sc(&engine, pol, &rec);
    SunstoneResult r = sunstoneOptimize(sc, ba);
    evaluated = rec.trajectories().back()->points().back().evaluations;
    return r;
}

/**
 * An expansion reports its evaluations to the driver in batches, and the
 * stop check counts the unreported ones: at one thread a max-evals cut
 * still stops on the very candidate it did when each candidate reported
 * itself.
 */
TEST(Sunstone, MaxEvalsCutIsExactAtOneThread)
{
    const BoundArch ba = simbaConv();
    for (const MaxEvalsCut &cut : kMaxEvalsCuts) {
        SCOPED_TRACE("max evals " + std::to_string(cut.maxEvals));
        EvalEngine engine(1);
        std::int64_t evaluated = 0;
        SunstoneResult r =
            runWithMaxEvals(ba, cut.maxEvals, engine, evaluated);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.stopReason, "max-evals");
        EXPECT_EQ(r.candidatesExamined, cut.examined);
        EXPECT_EQ(evaluated, cut.evaluated);
        EXPECT_EQ(engine.stats().evaluations, cut.evaluated);
        EXPECT_EQ(r.cost.edp, cut.edp);
        EXPECT_EQ(mappingToText(r.mapping, ba), cut.mapping);
    }
}

/** Every count an expansion batches up reaches the engine and the
 *  driver, whichever thread expanded the entry: the counts agree at 1
 *  and 4 threads and equal those recorded when each scored candidate
 *  reported itself. */
TEST(Sunstone, ExpansionCountsAreThreadInvariant)
{
    const BoundArch ba = simbaConv();
    SearchStats stats[2];
    std::int64_t examined[2];
    std::int64_t evaluated[2];
    for (int i = 0; i < 2; ++i) {
        const unsigned threads = i == 0 ? 1u : 4u;
        EvalEngine engine(threads);
        SunstoneResult r = runWithMaxEvals(ba, 0, engine, evaluated[i]);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.stopReason, "exhausted");
        stats[i] = engine.stats();
        examined[i] = r.candidatesExamined;
    }
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i == 0 ? "1 thread" : "4 threads");
        EXPECT_EQ(examined[i], 37449);
        EXPECT_EQ(evaluated[i], 5487);
        EXPECT_EQ(stats[i].evaluations, 5487);
        // Every invalid result returned: 53 model invocations plus 53
        // memo hits on invalid mappings.
        EXPECT_EQ(stats[i].invalidMappings, 106);
        EXPECT_EQ(stats[i].prunes, 4782);
        // Cache hits of the ranking and the polish are not timed.
        EXPECT_EQ(stats[i].evalLatencyUs.count, 5373);
        EXPECT_GT(stats[i].evalLatencyUs.sum, 0.0);
    }
}

TEST(Sunstone, UtilizationThresholdRaisesParallelism)
{
    ConvShape sh;
    sh.n = 2;
    sh.k = 64;
    sh.c = 64;
    sh.p = 16;
    sh.q = 16;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeConventional(), wl);
    SunstoneOptions opts;
    opts.utilizationThreshold = 0.9;
    auto r = runSunstone(ba, opts);
    EXPECT_GT(r.cost.utilization, 0.5);
}

} // namespace
} // namespace sunstone
