/** @file Tests for the hill-climbing polish pass and the GAMMA mapper. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "arch/presets.hh"
#include "core/refine.hh"
#include "core/sunstone.hh"
#include "mappers/gamma_mapper.hh"
#include "mapping/serialize.hh"
#include "model/eval_engine.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

TEST(Refine, NeverWorsensAValidMapping)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    Mapping m = naiveMapping(ba);
    const double before = evaluateMapping(ba, m).edp;
    RefineStats stats;
    EvalEngine engine;
    Mapping polished =
        polishMapping(engine, ba, m, /*edp=*/true, 64, &stats);
    const auto after = evaluateMapping(ba, polished);
    ASSERT_TRUE(after.valid);
    EXPECT_LE(after.edp, before);
    EXPECT_GT(stats.evaluated, 0);
}

TEST(Refine, ImprovesTheNaiveMappingSubstantially)
{
    // The naive all-at-DRAM mapping leaves everything on the table; the
    // hill climb alone recovers orders of magnitude.
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    Mapping m = naiveMapping(ba);
    const double before = evaluateMapping(ba, m).edp;
    EvalEngine engine;
    Mapping polished = polishMapping(engine, ba, m, true);
    const double after = evaluateMapping(ba, polished).edp;
    EXPECT_LT(after * 5, before);
}

TEST(Refine, FixedPointIsStable)
{
    Workload wl = makeGemm(16, 16, 16);
    BoundArch ba(makeToyArch(64, 4), wl);
    EvalEngine engine;
    Mapping a = polishMapping(engine, ba, naiveMapping(ba), true);
    Mapping b = polishMapping(engine, ba, a, true);
    EXPECT_EQ(evaluateMapping(ba, a).edp, evaluateMapping(ba, b).edp);
}

TEST(Refine, RespectsObjectiveChoice)
{
    Workload wl = makeConv1D(16, 16, 28, 3);
    BoundArch ba(makeConventional(), wl);
    EvalEngine engine;
    Mapping by_energy =
        polishMapping(engine, ba, naiveMapping(ba), /*edp=*/false);
    Mapping by_edp =
        polishMapping(engine, ba, naiveMapping(ba), /*edp=*/true);
    EXPECT_LE(evaluateMapping(ba, by_energy).totalEnergyPj,
              evaluateMapping(ba, by_edp).totalEnergyPj * 1.0001);
}

struct PinnedPolish
{
    const char *problem;
    bool edp;
    /** The polished mapping's objective (EDP or energy), as %a. */
    const char *objective;
    std::int64_t evaluated;
    int movesAccepted;
    const char *mapping;
};

const PinnedPolish kPinnedPolish[] = {
    {"conventional", true, "0x1.14bb5a1c5c3f3p-27", 489, 14,
     R"(mapping
level L1 temporal k=16,p=2,q=4,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal - spatial k=4,p=7,q=7,r=3 order n,k,c,p,q,r,s
level DRAM temporal c=64,p=2 spatial - order n,k,p,q,r,s,c
)"},
    {"conventional", false, "0x1.66f4d35ed3834p+26", 519, 15,
     R"(mapping
level L1 temporal k=2,p=7,q=7,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal - spatial k=32,p=4,q=4 order n,k,c,p,q,r,s
level DRAM temporal c=64 spatial - order n,k,p,q,r,s,c
)"},
    {"simba", true, "0x1.c0f51c357ac85p-36", 1158, 18,
     R"(mapping
level WeightReg temporal p=8,q=8 spatial c=2,s=3 order n,k,c,p,q,r,s
level PEBuf temporal k=2,c=8 spatial k=4,c=2 order n,k,c,p,q,r,s
level L2 temporal - spatial k=4,r=3 order n,k,c,p,q,r,s
level DRAM temporal - spatial - order n,k,c,p,q,r,s
)"},
    {"simba", false, "0x1.cef81d6b274ep+21", 750, 14,
     R"(mapping
level WeightReg temporal k=8,p=8,q=8 spatial - order n,k,c,p,q,r,s
level PEBuf temporal k=2,r=3,s=3 spatial - order n,k,c,p,q,r,s
level L2 temporal - spatial k=2 order n,k,c,p,q,r,s
level DRAM temporal c=32 spatial - order n,k,p,q,r,s,c
)"},
};

/**
 * The hill climb from the naive mapping, pinned: mapping, objective
 * bits, evaluations and accepted moves.
 */
TEST(Refine, PolishOutcomeIsPinned)
{
    ConvShape conv;
    conv.k = 64;
    conv.c = 64;
    conv.p = 28;
    conv.q = 28;
    conv.r = 3;
    conv.s = 3;
    ConvShape small;
    small.k = 32;
    small.c = 32;
    small.p = 8;
    small.q = 8;
    small.r = 3;
    small.s = 3;
    Workload simbaWl = makeConv2D(small);
    applySimbaPrecisions(simbaWl);
    const BoundArch conventional(makeConventional(), makeConv2D(conv));
    const BoundArch simba(makeSimbaLike(), simbaWl);

    for (const PinnedPolish &pin : kPinnedPolish) {
        SCOPED_TRACE(std::string(pin.problem) +
                     (pin.edp ? " edp" : " energy"));
        const BoundArch &ba =
            std::string(pin.problem) == "simba" ? simba : conventional;
        EvalEngine engine;
        RefineStats rs;
        const Mapping m =
            polishMapping(engine, ba, naiveMapping(ba), pin.edp, 64, &rs);
        const CostResult r = evaluateMapping(ba, m);
        ASSERT_TRUE(r.valid) << r.invalidReason;
        char objective[64];
        std::snprintf(objective, sizeof objective, "%a",
                      pin.edp ? r.edp : r.totalEnergyPj);
        EXPECT_EQ(mappingToText(m, ba), pin.mapping);
        EXPECT_STREQ(objective, pin.objective);
        EXPECT_EQ(rs.evaluated, pin.evaluated);
        EXPECT_EQ(rs.movesAccepted, pin.movesAccepted);
    }
}

TEST(Gamma, FindsValidMappingOnSmallConv)
{
    ConvShape sh;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    BoundArch ba(makeConventional(), makeConv2D(sh));
    GammaOptions opts;
    opts.generations = 20;
    opts.populationSize = 32;
    opts.maxSeconds = 20;
    auto r = GammaMapper(opts).optimize(ba);
    ASSERT_TRUE(r.found) << r.invalidReason;
    std::string why;
    EXPECT_TRUE(r.mapping.valid(ba, &why)) << why;
    EXPECT_GT(r.mappingsEvaluated, 100);
}

TEST(Gamma, DeterministicForFixedSeed)
{
    Workload wl = makeGemm(32, 32, 32);
    BoundArch ba(makeConventional(), wl);
    GammaOptions opts;
    opts.generations = 10;
    opts.populationSize = 24;
    auto a = GammaMapper(opts).optimize(ba);
    auto b = GammaMapper(opts).optimize(ba);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_EQ(a.cost.edp, b.cost.edp);
}

TEST(Gamma, MoreGenerationsDoNotHurt)
{
    Workload wl = makeGemm(32, 32, 32);
    BoundArch ba(makeConventional(), wl);
    GammaOptions few;
    few.generations = 3;
    GammaOptions many;
    many.generations = 30;
    auto a = GammaMapper(few).optimize(ba);
    auto b = GammaMapper(many).optimize(ba);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_LE(b.cost.edp, a.cost.edp * 1.0001);
}

TEST(Gamma, SunstoneStillWins)
{
    // The paper's argument against black-box optimizers: at comparable
    // (here: generous) budgets, the principled search is at least as
    // good and far cheaper.
    ConvShape sh;
    sh.k = 32;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    BoundArch ba(makeConventional(), makeConv2D(sh));
    auto sun = sunstoneOptimize(ba);
    ASSERT_TRUE(sun.found);
    GammaOptions opts;
    opts.maxSeconds = std::max(2.0, 2 * sun.seconds);
    auto ga = GammaMapper(opts).optimize(ba);
    if (ga.found) {
        EXPECT_LE(sun.cost.edp, ga.cost.edp * 1.05);
    }
}

} // namespace
} // namespace sunstone
