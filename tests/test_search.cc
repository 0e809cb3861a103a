/**
 * @file
 * Tests for the unified search layer (DESIGN.md §12): StopPolicy
 * parsing/merging, SplitMix64 RNG streams, SearchCheckpoint
 * serialization, SearchContext plumbing, and the SearchDriver's
 * stream-mode loop (stop reasons, accounting, checkpoint writes).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>

#include "arch/presets.hh"
#include "model/eval_engine.hh"
#include "search/checkpoint.hh"
#include "search/rng.hh"
#include "search/search_context.hh"
#include "search/search_driver.hh"
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

/** Everything tiled into the innermost level: overflows the 512 B L1. */
Mapping
overflowingMapping(const BoundArch &ba)
{
    const Workload &wl = ba.workload();
    Mapping m(ba.numLevels(), wl.numDims());
    for (DimId d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.dimSize(d);
    return m;
}

/** naiveMapping with the c loop cached one level below DRAM. */
Mapping
cachedCMapping(const BoundArch &ba)
{
    Mapping m = naiveMapping(ba);
    const DimId c = ba.workload().dimByName("c");
    int dram = ba.numLevels() - 1;
    for (int l = 0; l < ba.numLevels(); ++l)
        if (ba.arch().levels[l].isDram)
            dram = l;
    m.level(dram).temporal[c] = 1;
    m.level(dram - 1).temporal[c] = ba.workload().dimSize(c);
    return m;
}

/** Emits a fixed cyclic schedule of mappings, optionally finite. */
class ScriptedStream : public CandidateStream
{
  public:
    explicit ScriptedStream(std::vector<Mapping> script,
                            std::int64_t limit = -1)
        : script_(std::move(script)), limit_(limit)
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        out.clear();
        for (std::size_t i = 0; i < max; ++i) {
            if (limit_ >= 0 && emitted_ >= limit_)
                return false;
            out.push_back(script_[static_cast<std::size_t>(
                emitted_ % static_cast<std::int64_t>(script_.size()))]);
            ++emitted_;
        }
        return true;
    }

  private:
    std::vector<Mapping> script_;
    std::int64_t limit_;
    std::int64_t emitted_ = 0;
};

struct DriverFixture
{
    BoundArch ba{makeConventional(), smallConv()};
    EvalEngine engine{2};
};

// ---------------------------------------------------------------------
// StopPolicy
// ---------------------------------------------------------------------

TEST(StopPolicy, ParsesEveryKey)
{
    StopPolicy p;
    std::optional<std::uint64_t> seed;
    std::string err;
    ASSERT_TRUE(parseStopPolicyText("deadline_ms 1500\n"
                                    "max_evals 100\n"
                                    "plateau 7\n"
                                    "max_consecutive_invalid 9\n"
                                    "seed 42\n",
                                    p, &seed, &err))
        << err;
    EXPECT_DOUBLE_EQ(p.deadlineSeconds, 1.5);
    EXPECT_EQ(p.maxEvals, 100);
    EXPECT_EQ(p.plateau, 7);
    EXPECT_EQ(p.maxConsecutiveInvalid, 9);
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(*seed, 42u);
}

TEST(StopPolicy, AcceptsCommentsEqualsAndVictoryAlias)
{
    StopPolicy p;
    std::string err;
    ASSERT_TRUE(parseStopPolicyText("# comment line\n"
                                    "victory = 33  # trailing comment\n"
                                    "deadline_s = 2\n",
                                    p, nullptr, &err))
        << err;
    EXPECT_EQ(p.plateau, 33);
    EXPECT_DOUBLE_EQ(p.deadlineSeconds, 2.0);
}

TEST(StopPolicy, TimeoutKeyIsRejectedAsUnknown)
{
    // Timeloop's `timeout` knob was never a time: it counts consecutive
    // invalid samples, spelled max_consecutive_invalid here. The old
    // alias is gone, so `timeout` is an unknown key like any other.
    StopPolicy p;
    std::string err;
    EXPECT_FALSE(parseStopPolicyText("max_evals 10\ntimeout 1234\n", p,
                                     nullptr, &err));
    EXPECT_EQ(err, "line 2: unknown key 'timeout'");
    EXPECT_EQ(p.maxConsecutiveInvalid, 0);
}

TEST(StopPolicy, RejectsMalformedInputWithLineNumbers)
{
    StopPolicy p;
    std::string err;
    EXPECT_FALSE(parseStopPolicyText("max_evals 10\nbogus_key 1\n", p,
                                     nullptr, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(parseStopPolicyText("max_evals ten\n", p, nullptr, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(parseStopPolicyText("max_evals\n", p, nullptr, &err));
    EXPECT_NE(err.find("missing value"), std::string::npos) << err;
}

TEST(StopPolicy, WithDefaultsFillsOnlyUnsetFields)
{
    StopPolicy mine;
    mine.maxEvals = 10;
    StopPolicy defaults;
    defaults.maxEvals = 99;
    defaults.plateau = 5;
    defaults.deadlineSeconds = 3;
    const StopPolicy merged = mine.withDefaults(defaults);
    EXPECT_EQ(merged.maxEvals, 10);
    EXPECT_EQ(merged.plateau, 5);
    EXPECT_DOUBLE_EQ(merged.deadlineSeconds, 3);
}

TEST(StopPolicy, NegativeDeadlineSurvivesDefaultsAndCombine)
{
    // 0 means "unset" for the deadline; a negative value is an already
    // expired deadline and must win any merge.
    StopPolicy expired;
    expired.deadlineSeconds = -0.5;
    StopPolicy defaults;
    defaults.deadlineSeconds = 60;
    EXPECT_DOUBLE_EQ(expired.withDefaults(defaults).deadlineSeconds, -0.5);
    EXPECT_DOUBLE_EQ(StopPolicy::combine(expired, defaults).deadlineSeconds,
                     -0.5);
    EXPECT_FALSE(expired.unbounded());
    StopPolicy none;
    EXPECT_TRUE(none.unbounded());
}

TEST(StopPolicy, CombineTakesTheTighterBound)
{
    StopPolicy a, b;
    a.maxEvals = 100;
    b.maxEvals = 50;
    a.plateau = 5;
    b.deadlineSeconds = 2;
    const StopPolicy c = StopPolicy::combine(a, b);
    EXPECT_EQ(c.maxEvals, 50);
    EXPECT_EQ(c.plateau, 5);
    EXPECT_DOUBLE_EQ(c.deadlineSeconds, 2);
}

// ---------------------------------------------------------------------
// RngStream
// ---------------------------------------------------------------------

TEST(RngStream, StateIsTheResumeCursor)
{
    RngStream a(rngShardInit(7, 0));
    for (int i = 0; i < 100; ++i)
        a.next();
    RngStream b(a.state());
    RngStream c(a.state());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(b.next(), c.next());
}

TEST(RngStream, BelowStaysInRangeAndConsumesOneDraw)
{
    RngStream a(rngShardInit(1, 2));
    RngStream b(rngShardInit(1, 2));
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.below(17), 17u);
        b.next();
    }
    // below() must advance the cursor exactly once per call, or resumed
    // runs would desynchronize from uninterrupted ones.
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.below(0), 0u);
}

TEST(RngStream, ShardsAreDecorrelated)
{
    std::set<std::uint64_t> firsts;
    for (std::uint64_t s = 0; s < 64; ++s)
        firsts.insert(RngStream(rngShardInit(123, s)).next());
    EXPECT_EQ(firsts.size(), 64u);
}

// ---------------------------------------------------------------------
// SearchContext
// ---------------------------------------------------------------------

TEST(SearchContext, RngStreamsAreSeededPerShardAndRestorable)
{
    SearchContext sc;
    sc.setSeed(99);
    const std::uint64_t a0 = sc.rngStream(0).next();
    const std::uint64_t b0 = sc.rngStream(1).next();
    EXPECT_NE(a0, b0);

    const std::vector<std::uint64_t> cursors = sc.rngStates();
    const std::uint64_t a1 = sc.rngStream(0).next();

    SearchContext resumed;
    resumed.setSeed(99);
    resumed.restoreRngStates(cursors);
    EXPECT_EQ(resumed.rngStream(0).next(), a1);
}

TEST(SearchContext, EnsureSeedAdoptsTheFallbackOnce)
{
    SearchContext sc;
    EXPECT_FALSE(sc.hasSeed());
    EXPECT_EQ(sc.ensureSeed(5), 5u);
    EXPECT_TRUE(sc.hasSeed());
    EXPECT_EQ(sc.ensureSeed(7), 5u); // already seeded: fallback ignored
}

TEST(SearchContext, PrivateEngineIsCreatedOnceAndBorrowWins)
{
    SearchContext sc;
    EvalEngine &a = sc.engine();
    EvalEngine &b = sc.engine();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.pool().size(), 1u); // the default engine has one worker

    EvalEngine borrowed(2);
    SearchContext sc2(&borrowed);
    EXPECT_EQ(&sc2.engine(), &borrowed);
    EXPECT_EQ(&sc2.engine(), &borrowed);
}

// ---------------------------------------------------------------------
// SearchCheckpoint
// ---------------------------------------------------------------------

TEST(SearchCheckpoint, JsonRoundTripIsExact)
{
    SearchCheckpoint ck;
    ck.search = "timeloop";
    ck.workloadFingerprint = 0xdeadbeefcafef00dULL;
    ck.seed = ~0ULL; // 64-bit values must survive (hex strings, not
                     // JSON numbers with 53-bit mantissas)
    ck.rngStates = {0ULL, 1ULL, 0xffffffffffffffffULL,
                    0x0123456789abcdefULL};
    ck.stopReason = "cancelled";
    ck.evaluated = 123456789012345LL;
    ck.plateauLength = 17;
    ck.invalidStreak = 3;
    ck.seconds = 0.1 + 0.2; // not exactly representable: max_digits10
    ck.found = true;
    ck.bestMetric = 6.02214076e23;
    ck.bestMapping = Mapping(2, 3);
    ck.bestMapping.level(1).temporal = {4, 5, 6};
    ck.bestMapping.level(0).spatial = {2, 1, 1};
    ck.bestMapping.level(0).order = {2, 0, 1};
    ck.streamState = "{\"cursor\": 42}";

    SearchCheckpoint rt;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::fromJson(ck.toJson(), rt, &err)) << err;
    EXPECT_EQ(rt.search, ck.search);
    EXPECT_EQ(rt.workloadFingerprint, ck.workloadFingerprint);
    EXPECT_EQ(rt.seed, ck.seed);
    EXPECT_EQ(rt.rngStates, ck.rngStates);
    EXPECT_EQ(rt.stopReason, ck.stopReason);
    EXPECT_EQ(rt.evaluated, ck.evaluated);
    EXPECT_EQ(rt.plateauLength, ck.plateauLength);
    EXPECT_EQ(rt.invalidStreak, ck.invalidStreak);
    EXPECT_EQ(rt.seconds, ck.seconds); // bit-equal, not approximately
    EXPECT_EQ(rt.found, ck.found);
    EXPECT_EQ(rt.bestMetric, ck.bestMetric);
    EXPECT_EQ(mappingToJson(rt.bestMapping), mappingToJson(ck.bestMapping));
    JsonValue stream;
    ASSERT_TRUE(parseJson(rt.streamState, stream));
    ASSERT_NE(stream.find("cursor"), nullptr);
    EXPECT_EQ(stream.find("cursor")->asInt(0), 42);
}

TEST(SearchCheckpoint, RejectsOtherVersions)
{
    SearchCheckpoint ck;
    ck.version = kSearchCheckpointVersion + 1;
    SearchCheckpoint rt;
    std::string err;
    EXPECT_FALSE(SearchCheckpoint::fromJson(ck.toJson(), rt, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SearchCheckpoint, SaveAndLoadThroughAFile)
{
    const std::string path =
        ::testing::TempDir() + "/search_ck_roundtrip.json";
    SearchCheckpoint ck;
    ck.search = "net";
    ck.evaluated = 7;
    ASSERT_TRUE(ck.save(path));
    SearchCheckpoint rt;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, rt, &err)) << err;
    EXPECT_EQ(rt.search, "net");
    EXPECT_EQ(rt.evaluated, 7);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// SearchDriver (stream mode)
// ---------------------------------------------------------------------

TEST(SearchDriver, MaxEvalsStopsAtTheExactBudget)
{
    DriverFixture f;
    SearchContext sc(&f.engine);
    sc.policy().maxEvals = 37;
    SearchDriver drv(sc, f.engine, f.ba, "test", /*optimize_edp=*/true);
    ScriptedStream stream({naiveMapping(f.ba)});
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.evaluated, 37);
    EXPECT_EQ(o.reason, StopReason::MaxEvals);
    EXPECT_TRUE(o.found);
}

TEST(SearchDriver, PlateauCountsConsecutiveNonImprovingEvals)
{
    DriverFixture f;
    SearchContext sc(&f.engine);
    sc.policy().plateau = 5;
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    // The first candidate improves (incumbent from nothing), the
    // repeats never do: 1 improving + 5 plateau evaluations.
    ScriptedStream stream({naiveMapping(f.ba)});
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::Plateau);
    EXPECT_EQ(o.evaluated, 6);
}

TEST(SearchDriver, ImprovementResetsThePlateau)
{
    DriverFixture f;
    Mapping worse = naiveMapping(f.ba);
    Mapping better = cachedCMapping(f.ba);
    const EvalEngine::Context ctx = f.engine.context(f.ba);
    const CostResult cw = f.engine.evaluate(ctx, worse);
    const CostResult cb = f.engine.evaluate(ctx, better);
    ASSERT_TRUE(cw.valid);
    ASSERT_TRUE(cb.valid);
    ASSERT_NE(cw.edp, cb.edp);
    if (cb.edp > cw.edp)
        std::swap(worse, better);

    SearchContext sc(&f.engine);
    sc.policy().plateau = 4;
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    // worse improves (the first eval always does), 3 repeats plateau,
    // better improves and resets, then 4 repeats trip the bound: 9.
    ScriptedStream stream(
        {worse, worse, worse, worse, better, better, better, better,
         better},
        /*limit=*/1000);
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::Plateau);
    EXPECT_EQ(o.evaluated, 9);
    EXPECT_EQ(mappingToJson(o.best), mappingToJson(better));
}

TEST(SearchDriver, InvalidStreakStops)
{
    DriverFixture f;
    const Mapping bad = overflowingMapping(f.ba);
    ASSERT_FALSE(f.engine.evaluate(f.engine.context(f.ba), bad).valid);

    SearchContext sc(&f.engine);
    sc.policy().maxConsecutiveInvalid = 10;
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    ScriptedStream stream({bad});
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::InvalidStreak);
    EXPECT_EQ(o.evaluated, 10);
    EXPECT_FALSE(o.found);
    EXPECT_FALSE(o.firstInvalidReason.empty());
}

TEST(SearchDriver, NegativeDeadlineStopsBeforeAnyEvaluation)
{
    DriverFixture f;
    SearchContext sc(&f.engine);
    sc.policy().deadlineSeconds = -1;
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    ScriptedStream stream({naiveMapping(f.ba)});
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::Deadline);
    EXPECT_EQ(o.evaluated, 0);
    EXPECT_FALSE(o.found);
}

TEST(SearchDriver, CancellationFlagStops)
{
    DriverFixture f;
    std::atomic<bool> cancel{true};
    SearchContext sc(&f.engine);
    sc.policy().cancel = &cancel;
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    ScriptedStream stream({naiveMapping(f.ba)});
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::Cancelled);
    EXPECT_EQ(o.evaluated, 0);
}

TEST(SearchDriver, ExhaustedStreamReportsExhaustion)
{
    DriverFixture f;
    SearchContext sc(&f.engine);
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    ScriptedStream stream({naiveMapping(f.ba)}, /*limit=*/13);
    const DriverOutcome o = drv.run(stream);
    EXPECT_EQ(o.reason, StopReason::Exhausted);
    EXPECT_EQ(o.evaluated, 13);
    EXPECT_TRUE(o.found);
    EXPECT_GT(o.seconds, 0.0);
}

TEST(SearchDriver, WritesACheckpointAtTheEndOfARun)
{
    const std::string path = ::testing::TempDir() + "/driver_final_ck.json";
    std::remove(path.c_str());
    DriverFixture f;
    SearchContext sc(&f.engine);
    sc.setSeed(11);
    sc.policy().maxEvals = 20;
    sc.setCheckpointPath(path);
    SearchDriver drv(sc, f.engine, f.ba, "test", true);
    ScriptedStream stream({naiveMapping(f.ba)});
    const DriverOutcome o = drv.run(stream);
    ASSERT_TRUE(o.found);

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    EXPECT_EQ(ck.search, "test");
    EXPECT_EQ(ck.seed, 11u);
    EXPECT_EQ(ck.evaluated, 20);
    EXPECT_EQ(ck.stopReason, "max-evals");
    EXPECT_TRUE(ck.found);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// GeneratorStream
// ---------------------------------------------------------------------

TEST(GeneratorStream, PreservesProductionOrder)
{
    DriverFixture f;
    const Mapping proto = naiveMapping(f.ba);
    GeneratorStream stream([&](const GeneratorStream::Sink &sink) {
        for (int i = 1; i <= 300; ++i) {
            Mapping m = proto;
            m.level(0).order[0] = static_cast<DimId>(i % 3);
            if (!sink(std::move(m)))
                return;
        }
    });
    // Each call leaves only its own batch behind; collect them all.
    std::vector<Mapping> got, batch;
    for (bool more = true; more;) {
        more = stream.nextBatch(64, batch);
        got.insert(got.end(), batch.begin(), batch.end());
    }
    ASSERT_EQ(got.size(), 300u);
    for (int i = 1; i <= 300; ++i)
        EXPECT_EQ(got[i - 1].level(0).order[0], static_cast<DimId>(i % 3));
}

TEST(GeneratorStream, SkipDiscardsThePrefix)
{
    DriverFixture f;
    const Mapping proto = naiveMapping(f.ba);
    GeneratorStream stream([&](const GeneratorStream::Sink &sink) {
        for (int i = 0; i < 100; ++i) {
            Mapping m = proto;
            m.level(0).temporal[0] = i + 1;
            if (!sink(std::move(m)))
                return;
        }
    });
    stream.skip(40);
    std::vector<Mapping> got;
    stream.nextBatch(1, got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].level(0).temporal[0], 41);
}

TEST(GeneratorStream, EarlyDestructionUnblocksTheProducer)
{
    DriverFixture f;
    const Mapping proto = naiveMapping(f.ba);
    // Queue capacity 4 with a producer of 1000: destruction must stop
    // the blocked producer thread instead of deadlocking.
    auto stream = std::make_unique<GeneratorStream>(
        [&](const GeneratorStream::Sink &sink) {
            for (int i = 0; i < 1000; ++i)
                if (!sink(Mapping(proto)))
                    return;
        },
        /*queue_capacity=*/4);
    std::vector<Mapping> got;
    stream->nextBatch(2, got);
    // Partial batches are allowed (the producer may still be filling
    // the queue); what matters is that something arrived and that
    // destruction below does not deadlock on the blocked producer.
    EXPECT_GE(got.size(), 1u);
    stream.reset(); // must not hang
}

} // namespace
} // namespace sunstone
