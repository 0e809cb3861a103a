/** @file
 * Cost-model tests: the paper's access-count equations (Eqs. 1-3 and 5)
 * are checked verbatim on the running 1D-convolution example, plus
 * bypass chains, accumulation reads, latency, and EDP plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hh"
#include "model/cost_model.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

/** Algorithm-4 setup: K=8 (4x2), C=4 (2x2), P=12 (4x3), R=3 at L1. */
class EquationTest : public ::testing::Test
{
  protected:
    EquationTest()
        : wl(makeConv1D(8, 4, 12, 3)), arch(makeToyArch(4096, 4)),
          ba(arch, wl), m(3, 4)
    {
        k = wl.dimByName("k");
        c = wl.dimByName("c");
        p = wl.dimByName("p");
        r = wl.dimByName("r");
        // L1 tile: K_L1=2, C_L1=2, P_L1=3, R=3.
        m.level(0).temporal[k] = 2;
        m.level(0).temporal[c] = 2;
        m.level(0).temporal[p] = 3;
        m.level(0).temporal[r] = 3;
        // Loops above L1 (at the L2 level): p2=4, k2=4, c2=2 with order
        // p, k, c (outermost first) -- Algorithm 4's ordering.
        m.level(1).temporal[p] = 4;
        m.level(1).temporal[k] = 4;
        m.level(1).temporal[c] = 2;
        m.level(1).order = {p, k, c, r};
    }

    CostResult
    eval()
    {
        CostResult res = evaluateMapping(ba, m);
        EXPECT_TRUE(res.valid) << res.invalidReason;
        return res;
    }

    Workload wl;
    ArchSpec arch;
    BoundArch ba;
    Mapping m;
    DimId k, c, p, r;
};

TEST_F(EquationTest, EqOneIfmapReads)
{
    auto res = eval();
    // Eq 1: K_L2 * C * P_L2 * (P_L1 + R - 1) = 4 * 4 * 4 * 5 = 320.
    EXPECT_EQ(res.access[1][wl.tensorByName("ifmap")].reads, 320);
}

TEST_F(EquationTest, EqTwoWeightReads)
{
    auto res = eval();
    // Eq 2: C * K * R * P_L2 = 4 * 8 * 3 * 4 = 384.
    EXPECT_EQ(res.access[1][wl.tensorByName("weight")].reads, 384);
}

TEST_F(EquationTest, EqThreeOfmapAccesses)
{
    auto res = eval();
    // Eq 3: ofmap is reused across the innermost c2 loop, so its L2
    // traffic is exactly P * K = 96 updates with no accumulation reads.
    const TensorId of = wl.tensorByName("ofmap");
    EXPECT_EQ(res.access[1][of].updates, 96);
    EXPECT_EQ(res.access[1][of].accumReads, 0);
    // ...and each drained word was read once from L1.
    EXPECT_EQ(res.access[0][of].drains, 96);
}

TEST_F(EquationTest, WorseOrderingRefetchesOfmap)
{
    // Making c2 the *outermost* loop destroys the ofmap reuse: each
    // output is now drained C_L2 times and re-read on the revisit.
    m.level(1).order = {c, p, k, r};
    auto res = eval();
    const TensorId of = wl.tensorByName("ofmap");
    EXPECT_EQ(res.access[1][of].updates, 2 * 96);
    EXPECT_EQ(res.access[1][of].accumReads, 96);
}

TEST_F(EquationTest, MacLevelConsumption)
{
    auto res = eval();
    const std::int64_t ops = wl.totalOps();
    EXPECT_EQ(res.access[0][wl.tensorByName("ifmap")].reads, ops);
    EXPECT_EQ(res.access[0][wl.tensorByName("weight")].reads, ops);
    const TensorId of = wl.tensorByName("ofmap");
    EXPECT_EQ(res.access[0][of].updates, ops);
    // First write per output point needs no read: ops - P*K.
    EXPECT_EQ(res.access[0][of].accumReads, ops - 96);
}

TEST_F(EquationTest, FillsMatchReads)
{
    auto res = eval();
    // No spatial factors: every word read from L2 is written once into
    // L1.
    for (const char *name : {"ifmap", "weight"}) {
        const TensorId t = wl.tensorByName(name);
        EXPECT_EQ(res.access[0][t].fills, res.access[1][t].reads) << name;
    }
}

TEST_F(EquationTest, EqFiveMulticastHaloSharing)
{
    // Algorithm 5's structure: keep the c2 loop innermost and unroll P
    // spatially below L2 (P_sp = 2, leaving P_L2' = 2). Eq 5 then gives
    // ifmap reads = K_L2 * P_L2' * C_L2 * (P_sp*P_L1 + R - 1) * C_L1
    //             = 4 * 2 * 2 * (2*3 + 3 - 1) * 2 = 256,
    // i.e. the halo between spatially adjacent P tiles is multicast, not
    // refetched.
    m.level(1).spatial[p] = 2;
    m.level(1).temporal[p] = 2;
    auto res = eval();
    EXPECT_EQ(res.access[1][wl.tensorByName("ifmap")].reads, 256);

    // Without multicast the halo is duplicated per PE:
    // events(32/... c2 innermost counts) 16 * spatial(2) * tile(5*2).
    ArchSpec no_mc = arch;
    for (auto &l : no_mc.levels)
        l.multicast = false;
    BoundArch ba2(no_mc, wl);
    auto res2 = evaluateMapping(ba2, m);
    ASSERT_TRUE(res2.valid);
    EXPECT_EQ(res2.access[1][wl.tensorByName("ifmap")].reads,
              16 * 2 * 10);
}

TEST_F(EquationTest, SpatialReductionChargesEveryPartial)
{
    // Unrolling C spatially makes both PEs produce partials of the same
    // ofmap region: updates double, and the meet point re-reads.
    m.level(1).spatial[c] = 2;
    m.level(1).temporal[c] = 1;
    auto res = eval();
    const TensorId of = wl.tensorByName("ofmap");
    // events(ofmap): trailing non-indexing c-loop is gone (factor 1);
    // innermost remaining is k (indexing) -> events = k2 * p2 = 16.
    // updates = events * spatial_all(2) * tile(6) = 192.
    EXPECT_EQ(res.access[1][of].updates, 192);
    EXPECT_EQ(res.access[1][of].accumReads, 192 - 96);
}

TEST(CostModelChains, BypassSkipsLevels)
{
    ConvShape sh;
    sh.k = 16;
    sh.c = 16;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    Mapping m = naiveMapping(ba);
    CostModelOptions o;
    auto res = evaluateMapping(ba, m, o);
    ASSERT_TRUE(res.valid) << res.invalidReason;
    const TensorId w = wl.tensorByName("weight");
    const TensorId in = wl.tensorByName("ifmap");
    // Weights never touch L2 (level 2); ifmap/ofmap never touch the
    // weight register (level 0).
    EXPECT_EQ(res.access[2][w].reads + res.access[2][w].fills, 0);
    EXPECT_GT(res.access[1][w].reads, 0);
    EXPECT_EQ(res.access[0][in].reads + res.access[0][in].fills, 0);
}

TEST(CostModelLatency, ComputeBoundVsBandwidthBound)
{
    Workload wl = makeGemm(64, 64, 64);
    ArchSpec arch = makeToyArch(4096, 16);
    arch.levels[2].readBwWordsPerCycle = 1e18; // unconstrained DRAM
    BoundArch ba(arch, wl);

    // Compute bound: everything temporal -> 1 lane.
    Mapping serial = naiveMapping(ba);
    auto r1 = evaluateMapping(ba, serial);
    ASSERT_TRUE(r1.valid);
    EXPECT_GE(r1.cycles, static_cast<double>(wl.totalOps()));

    // 16 lanes via spatial m: compute cycles shrink 16x.
    Mapping par = serial;
    const DimId mdim = wl.dimByName("m");
    par.level(2).temporal[mdim] = 4;
    par.level(1).spatial[mdim] = 16;
    auto r2 = evaluateMapping(ba, par);
    ASSERT_TRUE(r2.valid);
    EXPECT_LT(r2.cycles, r1.cycles);
    EXPECT_EQ(r2.utilization, 1.0);
}

TEST(CostModelLatency, BandwidthCanDominate)
{
    Workload wl = makeGemm(64, 64, 64);
    ArchSpec arch = makeToyArch(4096, 16);
    arch.levels[2].readBwWordsPerCycle = 0.001; // starved DRAM
    BoundArch ba(arch, wl);
    auto r = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, static_cast<double>(wl.totalOps()));
}

TEST(CostModelLatency, BottleneckAttribution)
{
    Workload wl = makeGemm(64, 64, 64);
    ArchSpec fast_mem = makeToyArch(4096, 16);
    fast_mem.levels[2].readBwWordsPerCycle = 1e18;
    BoundArch ba_fast(fast_mem, wl);
    auto serial = evaluateMapping(ba_fast, naiveMapping(ba_fast));
    ASSERT_TRUE(serial.valid);
    EXPECT_EQ(serial.bottleneck, "compute");

    ArchSpec slow_mem = makeToyArch(4096, 16);
    slow_mem.levels[2].readBwWordsPerCycle = 0.001;
    BoundArch ba_slow(slow_mem, wl);
    auto starved = evaluateMapping(ba_slow, naiveMapping(ba_slow));
    ASSERT_TRUE(starved.valid);
    EXPECT_EQ(starved.bottleneck, "DRAM");
}

TEST(CostModelBasics, InvalidMappingHasInfiniteEdp)
{
    Workload wl = makeGemm(8, 8, 8);
    BoundArch ba(makeConventional(), wl);
    Mapping m(3, 3); // factor products are wrong (all 1)
    auto r = evaluateMapping(ba, m);
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(std::isinf(r.edp));
    EXPECT_FALSE(r.invalidReason.empty());
}

TEST(CostModelBasics, EnergyDecomposes)
{
    Workload wl = makeConv1D(8, 4, 12, 3);
    BoundArch ba(makeConventional(), wl);
    auto r = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(r.valid);
    double sum = r.macEnergyPj + r.nocEnergyPj;
    for (double e : r.levelEnergyPj)
        sum += e;
    EXPECT_NEAR(sum, r.totalEnergyPj, 1e-6 * r.totalEnergyPj);
    EXPECT_NEAR(r.edp, r.totalEnergyPj * 1e-12 * r.delaySeconds,
                1e-9 * r.edp);
}

TEST(CostModelBasics, NocToggleOnlyAffectsNocEnergy)
{
    Workload wl = makeConv1D(8, 4, 12, 3);
    BoundArch ba(makeConventional(), wl);
    Mapping m = naiveMapping(ba);
    CostModelOptions with, without;
    without.modelNoc = false;
    auto a = evaluateMapping(ba, m, with);
    auto b = evaluateMapping(ba, m, without);
    EXPECT_GT(a.nocEnergyPj, 0);
    EXPECT_EQ(b.nocEnergyPj, 0);
    EXPECT_NEAR(a.totalEnergyPj - a.nocEnergyPj, b.totalEnergyPj,
                1e-9 * b.totalEnergyPj);
}

TEST(CostModelMulticast, StridedWindowGapsAreNotOvercounted)
{
    // in[c, 2*p+r] with r=1 and an L1 tile of P=2: each child tile
    // spans 3 ifmap words, but spatially adjacent tiles start 4 words
    // apart (stride 2 * tile 2), leaving a one-word gap. The multicast
    // union is therefore 2 * 3 = 6 distinct words -- enlarging the
    // consumer tile to P=4 would claim 2*3+1 = 7 and bill the provider
    // for a word nobody reads.
    Workload wl = parseEinsum("strided", "out[k,p] = w[k,c,r] * in[c,2*p+r]",
                              {{"k", 1}, {"c", 1}, {"p", 8}, {"r", 1}});
    ArchSpec arch = makeToyArch(4096, 4);
    BoundArch ba(arch, wl);
    const DimId p = wl.dimByName("p");
    Mapping m(3, 4);
    m.level(0).temporal[p] = 2;
    m.level(1).spatial[p] = 2;
    m.level(1).temporal[p] = 2;
    auto res = evaluateMapping(ba, m);
    ASSERT_TRUE(res.valid) << res.invalidReason;
    // Tile-change events above L1: the remaining p loop at L2 (2).
    // reads = events * union = 2 * 6 = 12 (the gap makes sharing nil,
    // so this equals the per-instance total; the old enlarged-tile
    // formula would have charged 2 * 7 = 14).
    EXPECT_EQ(res.access[1][wl.tensorByName("in")].reads, 12);
}

TEST(CostModelLatency, ZeroBandwidthIsAnInfiniteBottleneckNotNaN)
{
    Workload wl = makeConv1D(8, 4, 12, 3);
    ArchSpec arch = makeToyArch(4096, 4);
    arch.levels[1].readBwWordsPerCycle = 0; // broken datapath
    BoundArch ba(arch, wl);
    auto res = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(res.valid) << res.invalidReason;
    EXPECT_TRUE(std::isinf(res.cycles));
    EXPECT_FALSE(std::isnan(res.cycles));
    EXPECT_FALSE(std::isnan(res.edp));
    EXPECT_NE(res.bottleneck.find("zero bandwidth"), std::string::npos)
        << res.bottleneck;
}

TEST(CostModelLatency, ZeroBandwidthWithZeroTrafficIsHarmless)
{
    // A zero-bandwidth direction that carries no words must not poison
    // the latency with 0/0 = NaN.
    Workload wl = makeGemm(4, 4, 4);
    ArchSpec arch = makeToyArch(4096, 4);
    arch.levels[1].writeBwWordsPerCycle = 0;
    arch.levels[1].bypass = {"a", "b"}; // only the output remains
    BoundArch ba(arch, wl);
    auto res = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(res.valid) << res.invalidReason;
    EXPECT_FALSE(std::isnan(res.cycles));
    EXPECT_FALSE(std::isnan(res.edp));
}

TEST(CostModelOutputs, AccumReadsClampAtZeroForStridedOutputs)
{
    // out[2*p] touches 2*8-1 = 15 words, but only 8 partials ever
    // arrive at the outer levels; arriving - footprint is negative and
    // must clamp to zero rather than produce negative energy.
    Workload wl = parseEinsum("scatter", "out[2*p] = in[p]", {{"p", 8}});
    BoundArch ba(makeToyArch(4096, 4), wl);
    auto res = evaluateMapping(ba, naiveMapping(ba));
    ASSERT_TRUE(res.valid) << res.invalidReason;
    const TensorId out = wl.tensorByName("out");
    for (int l = 0; l < ba.numLevels(); ++l) {
        EXPECT_GE(res.access[l][out].accumReads, 0) << "level " << l;
    }
    EXPECT_EQ(res.access[ba.numLevels() - 1][out].accumReads, 0);
    EXPECT_GE(res.totalEnergyPj, 0);
}

} // namespace
} // namespace sunstone
