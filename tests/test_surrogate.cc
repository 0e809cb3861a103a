/**
 * @file
 * Guarantees of the surrogate ranker and the cross-layer warm-start
 * store (DESIGN.md §15):
 *
 *  - SurrogateModel state round-trips through saveState()/
 *    restoreState() bit-for-bit (the refit is a pure function of the
 *    serialized sums, so predictions match too).
 *  - WarmStartStore JSON is byte-stable across load/save round trips;
 *    query() prefers the exact shape and adaptMapping() is always
 *    divisor-exact on the target extents.
 *  - With --surrogate on, a fixed seed is bit-identical at 1/4/8
 *    evaluation threads and across checkpoint/resume.
 *  - Surrogate-pruned candidates never advance the plateau window
 *    (StopPolicy counts full evaluations only).
 *  - obs::timeToQuality() finds the first entry into the 1%/5% bands.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "arch/presets.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/cost_model.hh"
#include "model/diffcheck.hh"
#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "search/checkpoint.hh"
#include "search/search_driver.hh"
#include "search/surrogate.hh"
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

/** Aggressive options so small test runs actually rank and prune. */
SurrogateOptions
aggressiveOptions()
{
    SurrogateOptions so;
    so.enabled = true;
    so.minSamples = 64;
    so.rankWarmup = 16;
    so.tauOpen = -1.0;  // open on sample count alone
    so.tauClose = -2.0; // and never close
    so.pruneFraction = 0.5;
    return so;
}

// ---------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------

TEST(SurrogateState, SaveRestoreRoundTripsBitForBit)
{
    const BoundArch ba(makeConventional(), smallConv());
    SurrogateModel a(ba, aggressiveOptions());

    // Train on realized costs of random mappings (valid and invalid
    // both occur on this shape, exercising both accumulators).
    std::mt19937_64 rng = diffcheckTrialRng(17);
    std::vector<double> feat;
    std::vector<Mapping> batch;
    for (int i = 0; i < 128; ++i) {
        const Mapping m = randomDiffcheckMapping(ba, rng);
        const CostResult cr = evaluateMapping(ba, m);
        a.featurize(m, feat);
        a.observe(feat, cr.valid
                            ? cr.edp
                            : std::numeric_limits<double>::infinity());
        if (batch.size() < 16)
            batch.push_back(m);
    }
    std::vector<std::size_t> order;
    std::vector<double> preds;
    a.rankBatch(batch, order, preds); // refits and exercises the gate
    a.updateGate(preds, preds);

    const std::string state = a.saveState();
    SurrogateModel b(ba, aggressiveOptions());
    ASSERT_TRUE(b.restoreState(state));
    EXPECT_EQ(b.saveState(), state);
    EXPECT_EQ(b.observed(), a.observed());
    EXPECT_EQ(b.tau(), a.tau());
    EXPECT_EQ(b.gateOpen(), a.gateOpen());

    // The refit is a pure function of the serialized sums, so the
    // restored model must predict bit-identically.
    std::vector<std::size_t> order2;
    std::vector<double> preds2;
    b.rankBatch(batch, order2, preds2);
    a.rankBatch(batch, order, preds);
    EXPECT_EQ(order2, order);
    EXPECT_EQ(preds2, preds);

    // Malformed payloads are rejected, not half-applied.
    SurrogateModel c(ba, aggressiveOptions());
    EXPECT_FALSE(c.restoreState("{\"version\": 99}"));
    EXPECT_FALSE(c.restoreState("not json"));
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

// ---------------------------------------------------------------------
// Determinism with the surrogate enabled
// ---------------------------------------------------------------------

TEST(SurrogateDeterminism, TimeloopIsThreadCountInvariantWithSurrogateOn)
{
    const BoundArch ba(makeConventional(), smallConv());
    double edp = 0;
    std::int64_t evals = 0;
    std::string mapping;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(EvalEngineOptions{.threads = threads});
        TimeloopOptions opts = TimeloopOptions::fast();
        opts.threads = threads;
        SearchContext sc(&engine);
        sc.setSeed(13);
        sc.setSurrogate(aggressiveOptions());
        sc.policy().maxEvals = 1200;
        sc.policy().plateau = 1'000'000'000;
        const MapperResult mr = TimeloopMapper(opts).optimize(sc, ba);
        ASSERT_TRUE(mr.found) << threads << " threads";
        if (threads == 1) {
            edp = mr.cost.edp;
            evals = mr.mappingsEvaluated;
            mapping = mappingToJson(mr.mapping);
            continue;
        }
        EXPECT_EQ(mr.cost.edp, edp) << threads << " threads";
        EXPECT_EQ(mr.mappingsEvaluated, evals) << threads << " threads";
        EXPECT_EQ(mappingToJson(mr.mapping), mapping)
            << threads << " threads";
    }
}

TEST(SurrogateDeterminism, TimeloopResumesBitIdenticallyWithSurrogateOn)
{
    const BoundArch ba(makeConventional(), smallConv());
    const auto run = [&](SearchContext &sc) {
        sc.setSeed(13);
        sc.setSurrogate(aggressiveOptions());
        return TimeloopMapper().optimize(sc, ba);
    };

    StopPolicy base;
    base.maxEvals = 900;
    base.plateau = 1'000'000'000;

    SearchContext uninterrupted;
    uninterrupted.setPolicy(base);
    const MapperResult ra = run(uninterrupted);

    // Interrupt well past the warmup so the checkpoint carries a
    // trained model (a non-trivial `surrogate` payload).
    const std::string path =
        ::testing::TempDir() + "/resume_surrogate.json";
    std::remove(path.c_str());
    StopPolicy cut = base;
    cut.maxEvals = 400;
    SearchContext interrupted;
    interrupted.setPolicy(cut);
    interrupted.setCheckpointPath(path);
    run(interrupted);

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    ASSERT_LT(ck.evaluated, base.maxEvals);
    EXPECT_NE(ck.surrogateState, "") << "checkpoint lost the trained model";

    SearchContext resumed;
    resumed.setPolicy(base);
    resumed.setCheckpointPath(path);
    resumed.setResume(std::move(ck));
    const MapperResult rc = run(resumed);

    EXPECT_EQ(ra.found, rc.found);
    EXPECT_EQ(ra.mappingsEvaluated, rc.mappingsEvaluated);
    EXPECT_EQ(ra.cost.edp, rc.cost.edp);
    EXPECT_EQ(ra.cost.totalEnergyPj, rc.cost.totalEnergyPj);
    EXPECT_EQ(mappingToJson(ra.mapping), mappingToJson(rc.mapping));
    EXPECT_EQ(ra.stopReason, rc.stopReason);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// StopPolicy interaction
// ---------------------------------------------------------------------

/** Emits `total` copies of one mapping, in driver-sized batches. */
class FixedStream : public CandidateStream
{
  public:
    FixedStream(Mapping m, std::int64_t total)
        : m_(std::move(m)), total_(total)
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        out.clear();
        while (out.size() < max && emitted_ < total_) {
            out.push_back(m_);
            ++emitted_;
        }
        return emitted_ < total_;
    }

  private:
    Mapping m_;
    std::int64_t total_ = 0;
    std::int64_t emitted_ = 0;
};

TEST(SurrogatePlateau, PrunedCandidatesDoNotAdvanceThePlateauWindow)
{
    // 768 identical valid candidates: the first sets the incumbent,
    // every later *evaluated* one is a non-improving valid result. With
    // the gate forced open after the first 128-candidate batch, half of
    // each later batch is pruned — those candidates are consumed but
    // never evaluated, and must be invisible to the plateau window.
    const BoundArch ba(makeConventional(), smallConv());
    const Mapping m = naiveMapping(ba);
    ASSERT_TRUE(evaluateMapping(ba, m).valid);
    const std::int64_t total = 768;

    SurrogateOptions so = aggressiveOptions();
    so.minSamples = 16;

    const auto drive = [&](std::int64_t plateau) {
        EvalEngine engine(EvalEngineOptions{.threads = 2});
        SearchContext sc(&engine);
        sc.setSeed(5);
        sc.setSurrogate(so);
        sc.policy().plateau = plateau;
        SearchDriver driver(sc, engine, ba, "fixed",
                            /*optimize_edp=*/true);
        FixedStream stream(m, total);
        return driver.run(stream);
    };

    // Unbounded plateau: the stream runs to exhaustion and the pruned
    // tail never reaches the evaluator.
    const DriverOutcome full = drive(1'000'000'000);
    EXPECT_EQ(full.reason, StopReason::Exhausted);
    ASSERT_LT(full.evaluated, total) << "no pruning happened";
    ASSERT_GT(full.evaluated, total / 2);

    // A window of exactly the non-improving evaluated count fires on
    // the last evaluation; one more never fires. If pruned candidates
    // advanced the window, the second run would stop early with
    // Plateau instead of draining the stream.
    const DriverOutcome tight = drive(full.evaluated - 1);
    EXPECT_EQ(tight.reason, StopReason::Plateau);
    EXPECT_EQ(tight.evaluated, full.evaluated);
    const DriverOutcome loose = drive(full.evaluated);
    EXPECT_EQ(loose.reason, StopReason::Exhausted);
    EXPECT_EQ(loose.evaluated, full.evaluated);
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
