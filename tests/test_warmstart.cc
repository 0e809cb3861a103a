/**
 * @file
 * Guarantees of the cross-layer warm-start store (DESIGN.md §15):
 *
 *  - WarmStartStore JSON is byte-stable across load/save round trips;
 *    query() prefers the exact shape and adaptMapping() is always
 *    divisor-exact on the target extents. A hostile stored entry fails
 *    the load or is skipped by the query; it never crashes either.
 *  - A warm repeat of a seeded random search, seeded from the cold
 *    run's recorded best, enters the cold best's 1% band in at most
 *    half the evaluations the cold run spent reaching it.
 *  - obs::timeToQuality() finds the first entry into the 1%/5% bands.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "arch/presets.hh"
#include "common/json.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/cost_model.hh"
#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "search/checkpoint.hh"
#include "search/search_context.hh"
#include "search/warmstart.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

Workload
smallConv()
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 8;
    sh.c = 8;
    sh.p = 4;
    sh.q = 4;
    sh.r = 3;
    sh.s = 3;
    return makeConv2D(sh);
}

// ---------------------------------------------------------------------
// Warm-start store
// ---------------------------------------------------------------------

TEST(WarmStartStore, JsonAndFileRoundTripsAreByteStable)
{
    const Workload wl = smallConv();
    const BoundArch ba(makeConventional(), wl);

    ConvShape sh2;
    sh2.n = 1;
    sh2.k = 16;
    sh2.c = 8;
    sh2.p = 4;
    sh2.q = 4;
    sh2.r = 3;
    sh2.s = 3;
    const Workload wl2 = makeConv2D(sh2);
    const BoundArch ba2(makeConventional(), wl2);

    WarmStartStore store;
    EXPECT_TRUE(store.record(ba, "a", 1.5, naiveMapping(ba)));
    EXPECT_TRUE(store.record(ba2, "b", 2.5, naiveMapping(ba2)));
    // A worse metric for an existing shape must not replace the entry.
    EXPECT_FALSE(store.record(ba, "a-worse", 9.0, naiveMapping(ba)));
    ASSERT_EQ(store.size(), 2u);

    const std::string json = store.toJson();
    WarmStartStore loaded;
    std::string err;
    ASSERT_TRUE(loaded.fromJson(json, &err)) << err;
    EXPECT_EQ(loaded.toJson(), json);

    const std::string path = ::testing::TempDir() + "/warmstart.json";
    std::remove(path.c_str());
    ASSERT_TRUE(store.save(path));
    WarmStartStore fromFile;
    ASSERT_TRUE(fromFile.load(path, &err)) << err;
    EXPECT_EQ(fromFile.toJson(), json);
    std::remove(path.c_str());

    EXPECT_FALSE(fromFile.load(path + ".missing", &err));
    WarmStartStore junk;
    EXPECT_FALSE(junk.fromJson("{\"schema\": \"nope\"}", &err));
}

TEST(WarmStartStore, QueryPrefersExactShapeAndAdaptsDivisorExactly)
{
    const Workload wl = smallConv();
    const BoundArch ba(makeConventional(), wl);

    // Same shape class, double the k extent.
    ConvShape big;
    big.n = 1;
    big.k = 16;
    big.c = 8;
    big.p = 4;
    big.q = 4;
    big.r = 3;
    big.s = 3;
    const BoundArch baBig(makeConventional(), makeConv2D(big));
    ASSERT_EQ(WarmStartStore::shapeClassKey(ba),
              WarmStartStore::shapeClassKey(baBig));

    WarmStartStore store;
    const Mapping exact = naiveMapping(ba);
    store.record(ba, "exact", 1.0, exact);
    store.record(baBig, "near", 1.0, naiveMapping(baBig));

    const std::vector<Mapping> seeds = store.query(ba, 2);
    ASSERT_EQ(seeds.size(), 2u);
    // The exact-extent entry sorts first (distance zero) and adapts to
    // itself verbatim.
    EXPECT_EQ(mappingToJson(seeds[0]), mappingToJson(exact));

    // Every seed — including the one adapted from the larger shape —
    // must be divisor-exact: per dimension the factors multiply out to
    // the query workload's extent.
    for (const Mapping &seed : seeds)
        for (DimId d = 0; d < wl.numDims(); ++d) {
            std::int64_t prod = 1;
            for (int l = 0; l < seed.numLevels(); ++l)
                prod *= seed.level(l).temporal[d] *
                        seed.level(l).spatial[d];
            EXPECT_EQ(prod, wl.dimSize(d)) << "dim " << d;
        }
}

/** @return the named field of a parsed JSON object, for tampering. */
JsonValue &
fieldOf(JsonValue &obj, const std::string &name)
{
    for (auto &[key, value] : obj.fields)
        if (key == name)
            return value;
    throw std::runtime_error("no field '" + name + "'");
}

/**
 * A stored entry must never crash a load or a query: a mapping over
 * other dims than its extents, or one with a factor below 1 or an order
 * entry out of range, fails the load; a mapping with another level
 * count than the querying binding is skipped.
 */
TEST(WarmStartStore, HostileEntriesFailTheLoadOrAreSkipped)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    const BoundArch ba(makeSimbaLike(), makeConv2D(sh));
    ASSERT_EQ(ba.numLevels(), 4);
    WarmStartStore store;
    ASSERT_TRUE(store.record(ba, "conv", 1.0, naiveMapping(ba)));
    ASSERT_EQ(store.query(ba).size(), 1u);

    using Tamper = std::function<void(std::vector<JsonValue> &levels)>;
    auto tampered = [&](const Tamper &tamper) {
        JsonValue doc;
        EXPECT_TRUE(parseJson(store.toJson(), doc));
        JsonValue &entry = fieldOf(doc, "entries").items.front();
        tamper(fieldOf(fieldOf(entry, "mapping"), "levels").items);
        return doc.dump();
    };
    auto setFirst = [](const char *key, std::int64_t v) {
        return [key, v](std::vector<JsonValue> &levels) {
            JsonValue &x = fieldOf(levels.front(), key).items.front();
            x.number = static_cast<double>(v);
            x.raw = std::to_string(v);
        };
    };

    const std::vector<std::pair<std::string, Tamper>> rejected{
        {"3 of 7 dims",
         [](std::vector<JsonValue> &levels) {
             for (JsonValue &l : levels)
                 for (const char *k : {"t", "s", "o"})
                     fieldOf(l, k).items.resize(3);
         }},
        {"negative temporal factor", setFirst("t", -2)},
        {"zero spatial factor", setFirst("s", 0)},
        {"order entry 7", setFirst("o", 7)},
    };
    const std::string path = ::testing::TempDir() + "/hostile_ws.json";
    for (const auto &[what, tamper] : rejected) {
        {
            std::ofstream os(path, std::ios::trunc);
            os << tampered(tamper) << "\n";
        }
        WarmStartStore loaded;
        std::string err;
        EXPECT_FALSE(loaded.load(path, &err)) << what;
        EXPECT_NE(err.find("bad mapping"), std::string::npos)
            << what << ": " << err;
        EXPECT_EQ(loaded.size(), 0u) << what;
    }
    std::remove(path.c_str());

    // 2 of simba's 4 levels: well-formed on its own, so it loads, but a
    // simba query never adapts it.
    WarmStartStore short_levels;
    std::string err;
    ASSERT_TRUE(short_levels.fromJson(
        tampered([](std::vector<JsonValue> &levels) { levels.resize(2); }),
        &err))
        << err;
    ASSERT_EQ(short_levels.size(), 1u);
    EXPECT_TRUE(short_levels.query(ba).empty());
}

/**
 * An entry that query() skips must not block its shape: a stored
 * 2-level mapping with an unbeatable metric is replaced by the next
 * real result recorded for that shape.
 */
TEST(WarmStartStore, UnusableEntryIsReplacedWhateverItsMetric)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    const BoundArch ba(makeSimbaLike(), makeConv2D(sh));
    const Mapping real = naiveMapping(ba);
    WarmStartStore store;
    ASSERT_TRUE(store.record(ba, "conv", 1.0, real));

    JsonValue doc;
    ASSERT_TRUE(parseJson(store.toJson(), doc));
    JsonValue &entry = fieldOf(doc, "entries").items.front();
    fieldOf(fieldOf(entry, "mapping"), "levels").items.resize(2);
    JsonValue &metric = fieldOf(entry, "metric");
    metric.number = 1e-30;
    metric.raw = "1e-30";

    WarmStartStore loaded;
    std::string err;
    ASSERT_TRUE(loaded.fromJson(doc.dump(), &err)) << err;
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_TRUE(loaded.query(ba).empty());

    EXPECT_TRUE(loaded.record(ba, "conv", 1.0, real));
    EXPECT_EQ(loaded.size(), 1u);
    const std::vector<Mapping> seeds = loaded.query(ba);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(mappingToJson(seeds[0]), mappingToJson(real));
}

// ---------------------------------------------------------------------
// Warm-start win on a repeated shape
// ---------------------------------------------------------------------

/** One seeded 8000-eval Timeloop search; the incumbent trajectory. */
std::vector<obs::ConvergencePoint>
timeloopTrajectory(const BoundArch &ba, const std::vector<Mapping> &seeds,
                   MapperResult &mr)
{
    EvalEngine engine(4);
    obs::ConvergenceRecorder rec;
    StopPolicy policy;
    policy.maxEvals = 8000;
    policy.plateau = policy.maxEvals;
    SearchContext sc(&engine, policy, &rec);
    sc.setSeed(1);
    sc.setWarmStarts(seeds);

    // The conservative profile with the wall-clock cap lifted, so the
    // trajectory is a pure function of the seed.
    TimeloopOptions to = TimeloopOptions::slow();
    to.maxSeconds = 1e9;
    mr = TimeloopMapper(to).optimize(sc, ba);
    const auto trajs = rec.trajectories();
    return trajs.empty() ? std::vector<obs::ConvergencePoint>{}
                         : trajs.back()->points();
}

/** First evaluation count whose metric is <= `bound`; -1 = never. */
std::int64_t
evalsToReach(const std::vector<obs::ConvergencePoint> &pts, double bound)
{
    for (const obs::ConvergencePoint &p : pts)
        if (p.metric <= bound)
            return p.evaluations;
    return -1;
}

TEST(WarmStart, RepeatReachesTheBandInHalfTheEvals)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 128;
    sh.c = 128;
    sh.p = 56;
    sh.q = 56;
    sh.r = 3;
    sh.s = 3;
    const std::vector<std::pair<std::string, Workload>> wls = {
        {"conv_n1k128c128p56", makeConv2D(sh)},
        {"matmul_1024x1024x64",
         parseEinsum("mm", "out[i,j] = A[i,k] * B[k,j]",
                     {{"i", 1024}, {"j", 1024}, {"k", 64}})},
    };
    for (const auto &[name, wl] : wls) {
        SCOPED_TRACE(name);
        const BoundArch ba(makeConventional(), wl);

        MapperResult cold;
        const auto coldPts = timeloopTrajectory(ba, {}, cold);
        ASSERT_TRUE(cold.found && !cold.invalid);
        // The cold run's price of its own best: the evaluation count at
        // which it locked that best in.
        const double target = cold.cost.edp;
        const std::int64_t coldEvals = evalsToReach(coldPts, target);
        ASSERT_GT(coldEvals, 0);

        WarmStartStore store;
        ASSERT_TRUE(store.record(ba, name, target, cold.mapping));
        MapperResult warm;
        const auto warmPts =
            timeloopTrajectory(ba, store.query(ba), warm);
        const std::int64_t warmEvals =
            evalsToReach(warmPts, target * 1.01);
        ASSERT_GT(warmEvals, 0) << "warm repeat never entered the band";
        EXPECT_LE(2 * warmEvals, coldEvals)
            << "warm " << warmEvals << " vs cold " << coldEvals;
    }
}

// ---------------------------------------------------------------------
// Time to quality
// ---------------------------------------------------------------------

TEST(TimeToQuality, FindsFirstEntryIntoTheQualityBands)
{
    std::vector<obs::ConvergencePoint> pts;
    const auto add = [&](double s, std::int64_t ev, double metric) {
        obs::ConvergencePoint p;
        p.seconds = s;
        p.evaluations = ev;
        p.metric = metric;
        pts.push_back(p);
    };
    add(0.1, 10, 200.0);
    add(0.2, 50, 104.0); // within 5% of 100, not 1%
    add(0.3, 90, 100.5); // within 1%
    add(0.4, 120, 100.0);

    const obs::TimeToQuality q = obs::timeToQuality(pts);
    EXPECT_EQ(q.finalMetric, 100.0);
    EXPECT_EQ(q.finalEvaluations, 120);
    EXPECT_EQ(q.evalsTo5pct, 50);
    EXPECT_EQ(q.secondsTo5pct, 0.2);
    EXPECT_EQ(q.evalsTo1pct, 90);
    EXPECT_EQ(q.secondsTo1pct, 0.3);

    EXPECT_EQ(obs::timeToQuality({}).evalsTo1pct, -1);
}

} // namespace
} // namespace sunstone
