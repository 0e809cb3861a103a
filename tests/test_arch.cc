/** @file Tests for the architecture model, binding, and energy model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "arch/energy_model.hh"
#include "arch/presets.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

TEST(ArchSpec, PresetsValidate)
{
    makeConventional().validate();
    makeSimbaLike().validate();
    makeDianNaoLike().validate();
    makeEyerissLike().validate();
    makeToyArch().validate();
}

TEST(ArchSpec, TotalFanout)
{
    EXPECT_EQ(makeConventional().totalFanout(), 1024);
    EXPECT_EQ(makeSimbaLike().totalFanout(), 8ll * 8 * 16);
    EXPECT_EQ(makeDianNaoLike().totalFanout(), 256);
}

TEST(ArchSpec, RejectsMissingDram)
{
    ArchSpec a = makeConventional();
    a.levels.back().isDram = false;
    EXPECT_EXIT(a.validate(), ::testing::ExitedWithCode(1), "fatal");
}

TEST(ArchSpec, RejectsInnerDram)
{
    ArchSpec a = makeConventional();
    a.levels.front().isDram = true;
    EXPECT_EXIT(a.validate(), ::testing::ExitedWithCode(1), "fatal");
}

TEST(Binding, SimbaConvByName)
{
    ConvShape sh;
    sh.k = 8;
    sh.c = 8;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeSimbaLike(), wl);
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("weight")), "weight");
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("ifmap")), "ifmap");
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("ofmap")), "ofmap");

    // Bypass: weights skip L2 (level 2); ifmap/ofmap skip the register.
    EXPECT_FALSE(ba.stores(2, wl.tensorByName("weight")));
    EXPECT_TRUE(ba.stores(1, wl.tensorByName("weight")));
    EXPECT_FALSE(ba.stores(0, wl.tensorByName("ifmap")));
    EXPECT_FALSE(ba.stores(0, wl.tensorByName("ofmap")));
    EXPECT_TRUE(ba.stores(0, wl.tensorByName("weight")));

    // Chain navigation.
    EXPECT_EQ(ba.innermostLevel(wl.tensorByName("weight")), 0);
    EXPECT_EQ(ba.nextLevelAbove(1, wl.tensorByName("weight")), 3);
    EXPECT_EQ(ba.innermostLevel(wl.tensorByName("ifmap")), 1);
}

TEST(Binding, DianNaoRoleAssignment)
{
    ConvShape sh;
    sh.k = 4;
    sh.c = 4;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeDianNaoLike(), wl);
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("ofmap")), "nbout");
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("ifmap")), "nbin");
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("weight")), "sb");
}

TEST(Binding, ExplicitMapOverrides)
{
    ConvShape sh;
    sh.k = 4;
    sh.c = 4;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeDianNaoLike(), wl,
                 {{"ifmap", "sb"}, {"weight", "nbin"}});
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("ifmap")), "sb");
    EXPECT_EQ(ba.partitionOf(wl.tensorByName("weight")), "nbin");
}

TEST(Binding, UnifiedHierarchyStoresEverything)
{
    Workload wl = makeMTTKRP(16, 16, 16, 8);
    BoundArch ba(makeConventional(), wl);
    for (int l = 0; l < ba.numLevels(); ++l)
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            EXPECT_TRUE(ba.stores(l, t));
}

TEST(Binding, FitsRespectsPartitions)
{
    ConvShape sh;
    sh.k = 4;
    sh.c = 4;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeSimbaLike(), wl);
    const TensorId w = wl.tensorByName("weight");

    // Weight partition at the PE level is 32 KB = 32768 8-bit words.
    applySimbaPrecisions(wl);
    BoundArch ba8(makeSimbaLike(), wl);
    std::vector<std::int64_t> fp(wl.numTensors(), 0);
    fp[w] = 32 * 1024; // exactly fits
    EXPECT_TRUE(ba8.fits(1, fp));
    fp[w] = 32 * 1024 + 1;
    EXPECT_FALSE(ba8.fits(1, fp));
    (void)ba;
}

TEST(Binding, DramAlwaysFits)
{
    Workload wl = makeGemm(1024, 1024, 1024);
    BoundArch ba(makeConventional(), wl);
    std::vector<std::int64_t> fp(wl.numTensors(), 1ll << 40);
    EXPECT_TRUE(ba.fits(2, fp));
}

TEST(Binding, DoubleBufferingHalvesUsableCapacity)
{
    Workload wl = makeGemm(8, 8, 8);
    ArchSpec arch = makeToyArch(64, 4); // 64 16-bit words in L1
    BoundArch plain(arch, wl);
    arch.levels[0].doubleBuffered = true;
    BoundArch dbuf(arch, wl);

    std::vector<std::int64_t> fp(wl.numTensors(), 0);
    fp[0] = 40; // 40 words: fits 64, not 32
    EXPECT_TRUE(plain.fits(0, fp));
    EXPECT_FALSE(dbuf.fits(0, fp));
    EXPECT_EQ(dbuf.capacityBitsFor(0, 0),
              plain.capacityBitsFor(0, 0) / 2);
}

/**
 * Reference capacity rule, written out from the spec rather than from
 * BoundArch's compiled groups: a non-DRAM level stores a tensor unless
 * its partition is bypassed there or the level is partitioned and has no
 * partition of that name; each partition (or the unified buffer) holds
 * the sum of its stored tensors' footprint bits, within its capacity,
 * halved when the level is double-buffered.
 */
struct RefGroup
{
    std::int64_t limitBits;
    std::vector<TensorId> members;
};

std::vector<RefGroup>
refGroups(const BoundArch &ba, int level)
{
    const LevelSpec &lv = ba.arch().levels[level];
    const Workload &wl = ba.workload();
    std::vector<RefGroup> out;
    if (lv.isDram)
        return out;
    const std::int64_t shrink = lv.doubleBuffered ? 2 : 1;
    auto bypassed = [&](TensorId t) {
        return std::count(lv.bypass.begin(), lv.bypass.end(),
                          ba.partitionOf(t)) > 0;
    };
    if (lv.partitions.empty()) {
        RefGroup g{lv.capacityBits / shrink, {}};
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            if (!bypassed(t))
                g.members.push_back(t);
        out.push_back(g);
        return out;
    }
    for (const PartitionSpec &p : lv.partitions) {
        RefGroup g{p.capacityBits / shrink, {}};
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            if (!bypassed(t) && ba.partitionOf(t) == p.name)
                g.members.push_back(t);
        out.push_back(g);
    }
    return out;
}

bool
refFits(const BoundArch &ba, int level,
        const std::vector<std::int64_t> &fp)
{
    for (const RefGroup &g : refGroups(ba, level)) {
        std::int64_t bits = 0;
        for (TensorId t : g.members)
            bits += fp[t] * ba.workload().tensor(t).wordBits;
        if (bits > g.limitBits)
            return false;
    }
    return true;
}

std::int64_t
refCapacityBits(const BoundArch &ba, int level, TensorId t)
{
    for (const RefGroup &g : refGroups(ba, level))
        if (std::count(g.members.begin(), g.members.end(), t))
            return g.limitBits;
    return 0;
}

/**
 * Compares fits(), fitsShape() and capacityBitsFor() with the reference
 * on random footprints within +-2 words of every group limit, and on
 * tile shapes grown dim by dim until they stop fitting.
 */
void
expectProbeMatchesReference(const BoundArch &ba, std::uint32_t seed)
{
    const Workload &wl = ba.workload();
    const int nt = wl.numTensors();
    std::mt19937 rng(seed);
    auto uniform = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    for (int l = 0; l < ba.numLevels(); ++l) {
        SCOPED_TRACE(ba.arch().name + " level " + std::to_string(l));
        const std::vector<RefGroup> groups = refGroups(ba, l);
        for (TensorId t = 0; t < nt; ++t) {
            if (ba.arch().levels[l].isDram)
                EXPECT_GT(ba.capacityBitsFor(l, t), std::int64_t(1) << 40);
            else
                EXPECT_EQ(ba.capacityBitsFor(l, t),
                          refCapacityBits(ba, l, t));
        }

        // Split each group's limit at random among its members; the
        // last member lands within +-2 words of the limit.
        constexpr int kTrials = 200;
        int disagreements = 0, fits = 0;
        for (int trial = 0; trial < kTrials; ++trial) {
            std::vector<std::int64_t> fp(nt);
            for (TensorId t = 0; t < nt; ++t)
                fp[t] = uniform(0, 4);
            for (const RefGroup &g : groups) {
                std::int64_t left = g.limitBits;
                for (std::size_t i = 0; i < g.members.size(); ++i) {
                    const TensorId t = g.members[i];
                    const int wb = wl.tensor(t).wordBits;
                    if (i + 1 < g.members.size()) {
                        fp[t] = uniform(0, std::max<std::int64_t>(
                                               0, left / wb));
                        left -= fp[t] * wb;
                    } else {
                        fp[t] = std::max<std::int64_t>(
                            0, left / wb + uniform(-2, 2));
                    }
                }
            }
            const bool want = refFits(ba, l, fp);
            disagreements += ba.fits(l, fp) != want;
            fits += want;
        }
        EXPECT_EQ(disagreements, 0);
        if (!groups.empty()) {
            EXPECT_GT(fits, 0);
            EXPECT_LT(fits, kTrials);
        }

        // Tile shapes: grow random dims one step at a time until the
        // reference says the tile no longer fits.
        for (int walk = 0; walk < 20; ++walk) {
            std::vector<std::int64_t> shape(wl.numDims(), 1);
            for (int step = 0; step < 64; ++step) {
                std::vector<std::int64_t> fp(nt);
                for (TensorId t = 0; t < nt; ++t)
                    fp[t] = wl.tensor(t).footprint(shape);
                const bool want = refFits(ba, l, fp);
                EXPECT_EQ(ba.fitsShape(l, shape), want);
                EXPECT_EQ(ba.fits(l, fp), want);
                if (!want)
                    break;
                const DimId d = static_cast<DimId>(
                    uniform(0, wl.numDims() - 1));
                shape[d] = std::min(wl.dimSize(d), shape[d] * 2 + 1);
            }
        }
    }
}

std::vector<Workload>
probeWorkloads()
{
    ConvShape sh;
    sh.k = 64;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    return {makeConv2D(sh), makeDepthwiseConv(sh), makeGemm(256, 128, 64)};
}

TEST(CapacityProbe, MatchesReferenceOnBuiltInArchs)
{
    const std::vector<ArchSpec> archs = {makeConventional(),
                                         makeSimbaLike(), makeDianNaoLike(),
                                         makeEyerissLike(), makeToyArch()};
    std::uint32_t seed = 1;
    for (const ArchSpec &a : archs)
        for (Workload wl : probeWorkloads()) {
            if (a.name == makeSimbaLike().name)
                applySimbaPrecisions(wl);
            expectProbeMatchesReference(BoundArch(a, wl), seed++);
        }
}

TEST(CapacityProbe, MatchesReferenceWithExplicitPartitionMap)
{
    Workload wl = probeWorkloads()[0];
    BoundArch ba(makeDianNaoLike(), wl,
                 {{"ifmap", "sb"}, {"weight", "nbin"}});
    ASSERT_EQ(ba.partitionOf(wl.tensorByName("weight")), "nbin");
    expectProbeMatchesReference(ba, 7);
}

TEST(CapacityProbe, MatchesReferenceWhenDoubleBuffered)
{
    std::uint32_t seed = 100;
    for (ArchSpec a : {makeConventional(), makeSimbaLike()}) {
        for (LevelSpec &lv : a.levels) {
            lv.doubleBuffered = !lv.isDram;
            // Odd capacities check that halving rounds down.
            if (lv.capacityBits > 0)
                lv.capacityBits += 1;
            for (PartitionSpec &p : lv.partitions)
                p.capacityBits += 1;
        }
        for (Workload wl : probeWorkloads()) {
            if (a.name == makeSimbaLike().name)
                applySimbaPrecisions(wl);
            expectProbeMatchesReference(BoundArch(a, wl), seed++);
        }
    }
}

TEST(EnergyModel, MonotoneInCapacity)
{
    double prev = 0;
    for (std::int64_t bits : {1ll << 10, 1ll << 14, 1ll << 18, 1ll << 22}) {
        const double e = energy::sramReadPjPerBit(bits);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(EnergyModel, CanonicalRatios)
{
    // DRAM per 16-bit word ~200 pJ; a 16-bit MAC ~0.4 pJ -> ~500x.
    const double dram16 = energy::dramPjPerBit() * 16;
    EXPECT_NEAR(dram16, 200.0, 1.0);
    EXPECT_GT(dram16 / energy::macPj(16), 100);
    // Writes slightly costlier than reads.
    EXPECT_GT(energy::sramWritePjPerBit(1 << 15),
              energy::sramReadPjPerBit(1 << 15));
}

TEST(EnergyModel, BoundEnergiesScaleWithWordWidth)
{
    ConvShape sh;
    sh.k = 4;
    sh.c = 4;
    sh.p = 4;
    sh.q = 4;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl); // ofmap 24-bit vs ifmap 8-bit
    BoundArch ba(makeSimbaLike(), wl);
    const TensorId of = wl.tensorByName("ofmap");
    const TensorId in = wl.tensorByName("ifmap");
    // Same-capacity partitions at L2, so the 24-bit word must cost more.
    EXPECT_GT(ba.readEnergyPj(2, of), ba.readEnergyPj(2, in));
}

TEST(EnergyModel, DramLevelsUseDramEnergy)
{
    Workload wl = makeGemm(8, 8, 8);
    BoundArch ba(makeConventional(), wl);
    EXPECT_NEAR(ba.readEnergyPj(2, 0), 16 * energy::dramPjPerBit(), 1e-9);
}

} // namespace
} // namespace sunstone
