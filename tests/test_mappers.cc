/** @file Tests for the baseline mappers of Section V-B. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "arch/presets.hh"
#include "common/math_utils.hh"
#include "core/sunstone.hh"
#include "mappers/cosa_mapper.hh"
#include "mappers/dmaze_mapper.hh"
#include "mappers/exhaustive_mapper.hh"
#include "mappers/interstellar_mapper.hh"
#include "mappers/random_sampler.hh"
#include "mappers/space_size.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/cost_model.hh"
#include "search/rng.hh"
#include "search/search_context.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

Workload
smallConv()
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    return makeConv2D(sh);
}

TEST(TimeloopMapper, FindsValidMappingOnConventional)
{
    BoundArch ba(makeConventional(), smallConv());
    TimeloopOptions opts = TimeloopOptions::fast();
    opts.maxSeconds = 5;
    TimeloopMapper tl(opts);
    auto r = tl.optimize(ba);
    ASSERT_TRUE(r.found);
    std::string why;
    EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    EXPECT_GT(r.mappingsEvaluated, 0);
}

TEST(TimeloopMapper, SlowConfigSearchesLonger)
{
    BoundArch ba(makeConventional(), smallConv());
    TimeloopOptions fast = TimeloopOptions::fast();
    fast.maxSeconds = 5;
    TimeloopOptions slow = TimeloopOptions::slow();
    slow.maxSeconds = 5;
    auto rf = TimeloopMapper(fast).optimize(ba);
    auto rs = TimeloopMapper(slow).optimize(ba);
    EXPECT_GT(rs.mappingsEvaluated, rf.mappingsEvaluated);
    // A longer undirected search cannot end up worse.
    if (rf.found && rs.found) {
        EXPECT_LE(rs.cost.edp, rf.cost.edp * 1.0001);
    }
}

TEST(TimeloopMapper, DeterministicForFixedSeed)
{
    BoundArch ba(makeConventional(), smallConv());
    TimeloopOptions opts = TimeloopOptions::fast();
    opts.maxSeconds = 5;
    auto a = TimeloopMapper(opts).optimize(ba);
    auto b = TimeloopMapper(opts).optimize(ba);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_EQ(a.cost.edp, b.cost.edp);
}

TEST(DMazeMapper, FindsMappingOnSymmetricConv)
{
    // A layer heavy enough to satisfy the tool's minimum L2 utilization
    // (its documented weakness is precisely that light layers cannot).
    ConvShape sh;
    sh.n = 8;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    BoundArch ba(makeConventional(), makeConv2D(sh));
    DMazeOptions opts = DMazeOptions::slow();
    opts.maxEvaluations = 20000; // keep the unit test quick
    DMazeMapper dm(opts);
    auto r = dm.optimize(ba);
    ASSERT_TRUE(r.found) << r.invalidReason;
    std::string why;
    EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
}

TEST(DMazeMapper, RejectsAsymmetricConv)
{
    ConvShape sh;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 1;
    sh.s = 7; // 1x7 kernel
    BoundArch ba(makeConventional(), makeConv2D(sh));
    auto r = DMazeMapper().optimize(ba);
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.invalid);
    EXPECT_NE(r.invalidReason.find("asymmetric"), std::string::npos);
}

TEST(DMazeMapper, RejectsHierarchicalArch)
{
    Workload wl = smallConv();
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    auto r = DMazeMapper().optimize(ba);
    EXPECT_TRUE(r.invalid);
    EXPECT_NE(r.invalidReason.find("architecture"), std::string::npos);
}

TEST(DMazeMapper, TightThresholdsCanYieldInvalid)
{
    // A tiny layer cannot reach 50% utilization of a 3.1 MB L2: the
    // fast/aggressive config must report invalid (Section V-B2).
    ConvShape sh;
    sh.k = 4;
    sh.c = 4;
    sh.p = 4;
    sh.q = 4;
    sh.r = 3;
    sh.s = 3;
    BoundArch ba(makeConventional(), makeConv2D(sh));
    auto fast = DMazeMapper(DMazeOptions::fast()).optimize(ba);
    EXPECT_TRUE(fast.invalid);
    EXPECT_NE(fast.invalidReason.find("utilization"), std::string::npos);
}

TEST(InterstellarMapper, UsesChannelUnrolling)
{
    Workload wl = smallConv();
    BoundArch ba(makeConventional(), wl);
    auto r = InterstellarMapper().optimize(ba);
    ASSERT_TRUE(r.found) << r.invalidReason;
    const DimId c = wl.dimByName("c"), k = wl.dimByName("k");
    const auto &sp = r.mapping.level(1).spatial;
    EXPECT_GT(sp[c] * sp[k], 1);
}

TEST(InterstellarMapper, FallsBackWhenChannelsAreSmall)
{
    ConvShape sh;
    sh.k = 4;
    sh.c = 3; // CK = 12 << 1024
    sh.p = 32;
    sh.q = 32;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeConventional(), wl);
    auto r = InterstellarMapper().optimize(ba);
    ASSERT_TRUE(r.found) << r.invalidReason;
    std::int64_t total = 1;
    for (DimId d = 0; d < wl.numDims(); ++d)
        total *= r.mapping.level(1).spatial[d];
    EXPECT_GT(total, 12);
}

TEST(InterstellarMapper, RejectsNonConvWorkloads)
{
    BoundArch ba(makeConventional(), makeMTTKRP(64, 32, 32, 8));
    auto r = InterstellarMapper().optimize(ba);
    EXPECT_TRUE(r.invalid);
    EXPECT_NE(r.invalidReason.find("workload"), std::string::npos);
}

TEST(CosaMapper, OneShotAndFast)
{
    BoundArch ba(makeConventional(), smallConv());
    auto r = CosaMapper().optimize(ba);
    EXPECT_EQ(r.mappingsEvaluated, 1);
    EXPECT_LT(r.seconds, 1.0);
    // On the conventional machine the construction usually succeeds.
    if (r.found) {
        std::string why;
        EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    } else {
        EXPECT_TRUE(r.invalid);
    }
}

TEST(CosaMapper, ReportsInvalidInsteadOfCrashing)
{
    // Across the Simba hierarchy the rounding step overflows buffers for
    // a good fraction of layers (Section V-B3: ~60%). Here we just
    // check the failure is reported, not hidden.
    ConvShape sh;
    sh.n = 2;
    sh.k = 96;
    sh.c = 80;
    sh.p = 17;
    sh.q = 17;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    auto r = CosaMapper().optimize(ba);
    EXPECT_TRUE(r.found || (r.invalid && !r.invalidReason.empty()));
}

/**
 * A double-buffered L1 of twice the capacity offers the same usable
 * bits as the plain one, so dMazeRunner and CoSA must commit to the
 * same factors on both.
 */
TEST(Baselines, DoubleBufferedL1LeavesTheSameUsableCapacity)
{
    const ArchSpec plain = makeConventional();
    ArchSpec dbuf = plain;
    dbuf.levels[0].capacityBits *= 2;
    dbuf.levels[0].doubleBuffered = true;

    auto conv = [](std::int64_t kc, std::int64_t pq) {
        ConvShape sh;
        sh.n = 1;
        sh.k = kc;
        sh.c = kc;
        sh.p = pq;
        sh.q = pq;
        sh.r = 3;
        sh.s = 3;
        return makeConv2D(sh);
    };
    auto sameFactors = [](const Mapping &a, const Mapping &b) {
        for (int l = 0; l < a.numLevels(); ++l) {
            EXPECT_EQ(a.level(l).temporal, b.level(l).temporal) << l;
            EXPECT_EQ(a.level(l).spatial, b.level(l).spatial) << l;
        }
    };
    auto expectFound = [](const BoundArch &ba, const MapperResult &r) {
        ASSERT_TRUE(r.found) << r.invalidReason;
        std::string why;
        EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    };

    const Workload dwl = conv(256, 14);
    const BoundArch dplain(plain, dwl), ddbuf(dbuf, dwl);
    const MapperResult d0 = DMazeMapper(DMazeOptions::slow()).optimize(dplain);
    const MapperResult d1 = DMazeMapper(DMazeOptions::slow()).optimize(ddbuf);
    expectFound(dplain, d0);
    expectFound(ddbuf, d1);
    sameFactors(d0.mapping, d1.mapping);

    const Workload cwl = conv(64, 28);
    const BoundArch cplain(plain, cwl), cdbuf(dbuf, cwl);
    const MapperResult c0 = CosaMapper().optimize(cplain);
    const MapperResult c1 = CosaMapper().optimize(cdbuf);
    expectFound(cplain, c0);
    expectFound(cdbuf, c1);
    sameFactors(c0.mapping, c1.mapping);
}

TEST(ExhaustiveMapper, AgreesWithItselfAndBeatsNothing)
{
    Workload wl = makeGemm(4, 4, 4);
    BoundArch ba(makeToyArch(16, 2), wl);
    auto r = ExhaustiveMapper().optimize(ba);
    ASSERT_TRUE(r.found);
    std::string why;
    EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    // Nothing can beat the exhaustive optimum.
    SunstoneResult s = sunstoneOptimize(ba);
    ASSERT_TRUE(s.found);
    EXPECT_GE(s.cost.edp, r.cost.edp * 0.999999);
}

TEST(ExhaustiveMapper, RefusesHugeSpaces)
{
    BoundArch ba(makeConventional(), smallConv());
    EXPECT_EXIT(ExhaustiveMapper().optimize(ba),
                ::testing::ExitedWithCode(1), "too large");
}

TEST(SpaceSize, TableOneOrdering)
{
    // Table I: TL space >> Marvel/INTER >> dMaze >> Sunstone examined.
    Workload wl = smallConv();
    BoundArch ba(makeConventional(), wl);
    const double tl = space::timeloopSpace(ba);
    const double inter = space::interstellarSpace(ba);
    const double dmaze = space::dmazeSpace(ba);
    EXPECT_GT(tl, inter);
    EXPECT_GT(inter, dmaze);

    auto sun = sunstoneOptimize(ba);
    ASSERT_TRUE(sun.found);
    EXPECT_LT(static_cast<double>(sun.candidatesExamined), dmaze);
}

TEST(SpaceSize, CosaMatchesTimeloop)
{
    BoundArch ba(makeConventional(), smallConv());
    EXPECT_EQ(space::cosaSpace(ba), space::timeloopSpace(ba));
}

TEST(Baselines, SunstoneNeverWorseOnSmallConv)
{
    // The paper's bottom line (Table I row "worse mappings"): no
    // baseline beats Sunstone here.
    Workload wl = smallConv();
    BoundArch ba(makeConventional(), wl);
    auto sun = sunstoneOptimize(ba);
    ASSERT_TRUE(sun.found);

    TimeloopOptions tlo = TimeloopOptions::slow();
    tlo.maxSeconds = 5;
    auto tl = TimeloopMapper(tlo).optimize(ba);
    if (tl.found) {
        EXPECT_LE(sun.cost.edp, tl.cost.edp * 1.05);
    }

    auto dm = DMazeMapper(DMazeOptions::slow()).optimize(ba);
    if (dm.found) {
        EXPECT_LE(sun.cost.edp, dm.cost.edp * 1.05);
    }

    auto in = InterstellarMapper().optimize(ba);
    if (in.found) {
        EXPECT_LE(sun.cost.edp, in.cost.edp * 1.05);
    }
}

// ---------------------------------------------------------------------
// RandomSampler against the allocating samplers it replaced
// ---------------------------------------------------------------------

// Verbatim copies of the per-sample allocating samplers the Timeloop
// mapper (refRandomMapping) and the GA (refSlotsOf, refRandomizeDim,
// refRandomIndividual) used before RandomSampler. They define the
// sample sequence the shared sampler must keep, draw for draw.

struct RefSlot
{
    int level;
    bool spatial;
};

Mapping
refRandomMapping(const BoundArch &ba, RngStream &rng)
{
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    const int nl = ba.numLevels();
    const int nd = wl.numDims();
    Mapping m(nl, nd);

    std::vector<RefSlot> slots;
    for (int l = 0; l < nl; ++l) {
        slots.push_back({l, false});
        if (arch.levels[l].fanout > 1)
            slots.push_back({l, true});
    }

    for (DimId d = 0; d < nd; ++d) {
        for (auto [p, e] : cachedPrimeFactors(wl.dimSize(d))) {
            for (int i = 0; i < e; ++i) {
                const RefSlot &s = slots[rng.below(slots.size())];
                auto &lm = m.level(s.level);
                if (s.spatial)
                    lm.spatial[d] = satMul(lm.spatial[d], p);
                else
                    lm.temporal[d] = satMul(lm.temporal[d], p);
            }
        }
    }
    for (int l = 0; l < nl; ++l)
        rng.shuffle(m.level(l).order);
    return m;
}

std::vector<RefSlot>
refSlotsOf(const BoundArch &ba)
{
    std::vector<RefSlot> slots;
    for (int l = 0; l < ba.numLevels(); ++l) {
        slots.push_back({l, false});
        if (ba.arch().levels[l].fanout > 1)
            slots.push_back({l, true});
    }
    return slots;
}

void
refRandomizeDim(Mapping &m, const BoundArch &ba,
                const std::vector<RefSlot> &slots, DimId d, RngStream &rng)
{
    for (int l = 0; l < m.numLevels(); ++l) {
        m.level(l).temporal[d] = 1;
        m.level(l).spatial[d] = 1;
    }
    for (auto [p, e] : cachedPrimeFactors(ba.workload().dimSize(d))) {
        for (int i = 0; i < e; ++i) {
            const RefSlot &s = slots[rng.below(slots.size())];
            auto &lm = m.level(s.level);
            if (s.spatial)
                lm.spatial[d] = satMul(lm.spatial[d], p);
            else
                lm.temporal[d] = satMul(lm.temporal[d], p);
        }
    }
}

Mapping
refRandomIndividual(const BoundArch &ba, const std::vector<RefSlot> &slots,
                    RngStream &rng)
{
    const int nd = ba.workload().numDims();
    Mapping m(ba.numLevels(), nd);
    for (DimId d = 0; d < nd; ++d)
        refRandomizeDim(m, ba, slots, d, rng);
    for (int l = 0; l < m.numLevels(); ++l)
        rng.shuffle(m.level(l).order);
    return m;
}

bool
sameMapping(const Mapping &a, const Mapping &b)
{
    if (a.numLevels() != b.numLevels())
        return false;
    for (int l = 0; l < a.numLevels(); ++l) {
        const LevelMapping &x = a.level(l), &y = b.level(l);
        if (x.temporal != y.temporal || x.spatial != y.spatial ||
            x.order != y.order)
            return false;
    }
    return true;
}

/** Every reference architecture, by name. */
std::vector<std::pair<std::string, ArchSpec>>
samplerArchs()
{
    return {{"conventional", makeConventional()},
            {"simba", makeSimbaLike()},
            {"eyeriss", makeEyerissLike()},
            {"toy", makeToyArch()}};
}

/** One workload per tensor-algebra family, each with dims of size 1 and
 *  prime dims next to composite ones. */
std::vector<Workload>
samplerWorkloads()
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 12;
    sh.c = 7;
    sh.p = 14;
    sh.q = 13;
    sh.r = 3;
    sh.s = 1;
    return {makeConv2D(sh), makeGemm(1, 97, 60),
            makeMTTKRP(64, 1, 31, 8), makeTTMc(16, 1, 13, 8, 6),
            makeSDDMM(32, 17, 1)};
}

/**
 * Binds `wl` to `arch`. The partitioned presets hold fewer buffers than
 * the four-tensor algebra kernels have tensors, so those share
 * partitions round-robin: sampling reads only the level count, fanouts
 * and dim sizes, never a capacity.
 */
BoundArch
bindForSampling(const ArchSpec &arch, const Workload &wl)
{
    std::vector<std::string> parts;
    for (const LevelSpec &lv : arch.levels)
        for (const auto &p : lv.partitions)
            if (std::find(parts.begin(), parts.end(), p.name) == parts.end())
                parts.push_back(p.name);
    std::map<std::string, std::string> binding;
    if (!parts.empty() &&
        parts.size() < static_cast<std::size_t>(wl.numTensors()))
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            binding[wl.tensor(t).name] = parts[t % parts.size()];
    return BoundArch(arch, wl, binding);
}

constexpr int kReferenceDraws = 10000;

TEST(RandomSampler, MatchesTheAllocatingSamplersDrawForDraw)
{
    for (const auto &[an, arch] : samplerArchs()) {
        for (const Workload &wl : samplerWorkloads()) {
            const BoundArch ba = bindForSampling(arch, wl);
            const RandomSampler sampler(ba);
            const std::vector<RefSlot> slots = refSlotsOf(ba);
            const int nd = wl.numDims();
            const std::string where = an + "/" + wl.name();

            // Timeloop: one reused slot against a fresh sample per draw.
            RngStream refTl(0x5075), newTl(0x5075);
            // GA: a fresh individual, then one dim mutation of it.
            RngStream refGa(0xabcd), newGa(0xabcd);
            Mapping tlSlot, gaSlot;
            for (int i = 0; i < kReferenceDraws; ++i) {
                sampler.fill(tlSlot, newTl);
                ASSERT_TRUE(sameMapping(tlSlot, refRandomMapping(ba, refTl)))
                    << where << " draw " << i;
                ASSERT_EQ(newTl.state(), refTl.state())
                    << where << " draw " << i;

                Mapping ind = refRandomIndividual(ba, slots, refGa);
                sampler.fill(gaSlot, newGa);
                ASSERT_TRUE(sameMapping(gaSlot, ind))
                    << where << " individual " << i;
                const DimId d = static_cast<DimId>(i % nd);
                refRandomizeDim(ind, ba, slots, d, refGa);
                sampler.randomizeDim(gaSlot, d, newGa);
                ASSERT_TRUE(sameMapping(gaSlot, ind))
                    << where << " mutation " << i;
                ASSERT_EQ(newGa.state(), refGa.state())
                    << where << " mutation " << i;
            }
        }
    }
}

TEST(RandomSampler, RefillsSlotsHoldingOtherShapes)
{
    const std::vector<Workload> wls = samplerWorkloads();
    const BoundArch ba = bindForSampling(makeSimbaLike(), wls[0]);
    const BoundArch other(makeToyArch(), wls[1]);
    const RandomSampler sampler(ba);
    const int nl = ba.numLevels(), nd = wls[0].numDims();

    // Slots a reused batch vector can hold: nothing yet, another
    // binding's sample, the right level count with too many or too few
    // dims, and a scrambled mapping of the right shape.
    RngStream scramble(7);
    std::vector<Mapping> shapes = {Mapping(), Mapping(other.numLevels(), 3),
                                   Mapping(nl, nd + 2), Mapping(nl, nd - 1),
                                   refRandomMapping(ba, scramble)};
    RandomSampler(other).fill(shapes[1], scramble);

    RngStream ref(0x5eed), got(0x5eed);
    for (int i = 0; i < kReferenceDraws; ++i) {
        Mapping slot = shapes[static_cast<std::size_t>(i) % shapes.size()];
        sampler.fill(slot, got);
        ASSERT_TRUE(sameMapping(slot, refRandomMapping(ba, ref)))
            << "draw " << i << " into slot shape "
            << i % static_cast<int>(shapes.size());
        ASSERT_EQ(got.state(), ref.state()) << "draw " << i;
    }
}

TEST(RandomSampler, TimeloopShortFinalBatchMatchesTheReference)
{
    // 1000 evaluations = seven full 128-candidate batches plus a short
    // batch of 104, so the reused slot vector shrinks at the end.
    const BoundArch ba(makeConventional(), smallConv());
    constexpr std::int64_t kEvals = 1000;
    constexpr std::size_t kShards = 16; // TimeloopStream's shard count
    const TimeloopOptions opts = TimeloopOptions::fast();

    SearchContext sc;
    sc.policy().maxEvals = kEvals;
    sc.policy().plateau = 1'000'000'000;
    const MapperResult mr = TimeloopMapper(opts).optimize(sc, ba);

    // The reference search: the same round-robin over the same shards,
    // each sample built by the allocating sampler and evaluated alone.
    std::vector<RngStream> shards;
    for (std::size_t s = 0; s < kShards; ++s)
        shards.emplace_back(rngShardInit(opts.seed, s));
    bool found = false;
    double best = 0;
    Mapping bestMapping;
    for (std::int64_t i = 0; i < kEvals; ++i) {
        const Mapping m = refRandomMapping(ba, shards[i % kShards]);
        const CostResult cr = evaluateMapping(ba, m);
        if (cr.valid && (!found || cr.edp < best)) {
            found = true;
            best = cr.edp;
            bestMapping = m;
        }
    }

    ASSERT_TRUE(found);
    ASSERT_TRUE(mr.found);
    EXPECT_EQ(mr.mappingsEvaluated, kEvals);
    EXPECT_EQ(mr.stopReason, "max-evals");
    EXPECT_EQ(mr.cost.edp, best);
    EXPECT_TRUE(sameMapping(mr.mapping, bestMapping));
    const std::vector<std::uint64_t> states = sc.rngStates();
    ASSERT_EQ(states.size(), kShards);
    for (std::size_t s = 0; s < kShards; ++s)
        EXPECT_EQ(states[s], shards[s].state()) << "shard " << s;
}

} // namespace
} // namespace sunstone
