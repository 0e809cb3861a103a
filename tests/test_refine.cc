/** @file Tests for the hill-climbing polish pass and the GAMMA mapper. */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "core/refine.hh"
#include "core/sunstone.hh"
#include "mappers/gamma_mapper.hh"
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
