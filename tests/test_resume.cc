/**
 * @file
 * End-to-end guarantees of the SearchDriver refactor (DESIGN.md §12):
 *
 *  - Checkpoint/resume: interrupt a seeded search at an eval budget,
 *    resume it from the checkpoint file under a larger budget, and the
 *    final mapping, cost bits, counters, and stop reason are identical
 *    to the same search run uninterrupted — per mapper.
 *  - Hostile beam checkpoints: a tampered Sunstone beam payload is a
 *    clean fatal, never an out-of-bounds access.
 *  - Hostile mappings: a best mapping or GA population mapping with a
 *    factor below 1 or an order entry out of range fails the checkpoint
 *    load or the resume cleanly, never the cost model's assertions.
 *  - Retired state: a checkpoint carrying surrogate-ranker state is a
 *    load error naming the removal, not a silently different resume.
 *  - Network checkpoints: a cancelled network schedule resumes to the
 *    uninterrupted result in both fusion modes, and a tampered restored
 *    mapping is a clean fatal.
 *  - Thread-count determinism: the same seed yields identical best cost
 *    and eval counts at 1/4/8 evaluation threads for the Sunstone core
 *    search, the refine hill-climb, and the Timeloop random search.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "arch/presets.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/net_scheduler.hh"
#include "core/refine.hh"
#include "core/sunstone.hh"
#include "mappers/dmaze_mapper.hh"
#include "mappers/exhaustive_mapper.hh"
#include "mappers/gamma_mapper.hh"
#include "mappers/interstellar_mapper.hh"
#include "mappers/timeloop_mapper.hh"
#include "mapping/serialize.hh"
#include "model/eval_engine.hh"
#include "search/checkpoint.hh"
#include "search/search_context.hh"
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

using RunFn = std::function<MapperResult(SearchContext &)>;

/**
 * Runs `run` three ways: uninterrupted to budget N; interrupted at
 * budget K with a checkpoint; resumed from that checkpoint to budget N.
 * The uninterrupted and resumed runs must agree bit-for-bit.
 *
 * The plateau bound is pinned high so legacy per-mapper victory
 * conditions cannot fire: a plateau stop mid-resume would count one
 * extra evaluation relative to the uninterrupted run, which is exactly
 * the class of divergence this harness exists to catch elsewhere.
 */
void
expectResumeMatchesUninterrupted(const std::string &name, const RunFn &run,
                                 std::int64_t interrupt_at,
                                 std::int64_t budget)
{
    StopPolicy base;
    base.maxEvals = budget;
    base.plateau = 1'000'000'000;

    SearchContext uninterrupted;
    uninterrupted.setPolicy(base);
    const MapperResult ra = run(uninterrupted);

    const std::string path =
        ::testing::TempDir() + "/resume_" + name + ".json";
    std::remove(path.c_str());
    StopPolicy cut = base;
    cut.maxEvals = interrupt_at;
    SearchContext interrupted;
    interrupted.setPolicy(cut);
    interrupted.setCheckpointPath(path);
    run(interrupted);

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err))
        << name << ": " << err;
    ASSERT_LT(ck.evaluated, budget) << name << ": nothing left to resume";

    SearchContext resumed;
    resumed.setPolicy(base);
    resumed.setCheckpointPath(path);
    resumed.setResume(std::move(ck));
    const MapperResult rc = run(resumed);

    EXPECT_EQ(ra.found, rc.found) << name;
    EXPECT_EQ(ra.mappingsEvaluated, rc.mappingsEvaluated) << name;
    // Bit equality, not near-equality: a resumed search replays the
    // exact evaluation sequence, so the doubles must match exactly.
    EXPECT_EQ(ra.cost.edp, rc.cost.edp) << name;
    EXPECT_EQ(ra.cost.totalEnergyPj, rc.cost.totalEnergyPj) << name;
    EXPECT_EQ(mappingToJson(ra.mapping), mappingToJson(rc.mapping)) << name;
    EXPECT_EQ(ra.stopReason, rc.stopReason) << name;
    std::remove(path.c_str());
}

struct ResumeFixture : public ::testing::Test
{
    BoundArch ba{makeConventional(), smallConv()};
};

TEST_F(ResumeFixture, TimeloopResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "timeloop",
        [&](SearchContext &sc) {
            return TimeloopMapper().optimize(sc, ba);
        },
        /*interrupt_at=*/250, /*budget=*/600);
}

TEST_F(ResumeFixture, GammaResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "gamma",
        [&](SearchContext &sc) { return GammaMapper().optimize(sc, ba); },
        /*interrupt_at=*/320, /*budget=*/640);
}

TEST_F(ResumeFixture, DMazeResumesBitIdentically)
{
    // The default 0.8 PE-utilization floor is unreachable on this tiny
    // shape (max unrollable product 128 on a 1024-PE grid) and would
    // make the mapper bail as unsupported before searching.
    DMazeOptions opts;
    opts.peUtil = 0.05;
    opts.l1Util = 0.1;
    opts.l2Util = 0.01;
    expectResumeMatchesUninterrupted(
        "dmaze",
        [&](SearchContext &sc) {
            return DMazeMapper(opts).optimize(sc, ba);
        },
        /*interrupt_at=*/150, /*budget=*/400);
}

TEST_F(ResumeFixture, InterstellarResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "interstellar",
        [&](SearchContext &sc) {
            return InterstellarMapper().optimize(sc, ba);
        },
        /*interrupt_at=*/150, /*budget=*/400);
}

TEST_F(ResumeFixture, ExhaustiveResumesBitIdentically)
{
    ExhaustiveOptions opts;
    opts.maxSpace = 1e15; // never bail to "unsupported" on this shape
    expectResumeMatchesUninterrupted(
        "exhaustive",
        [&](SearchContext &sc) {
            return ExhaustiveMapper(opts).optimize(sc, ba);
        },
        /*interrupt_at=*/300, /*budget=*/900);
}

TEST_F(ResumeFixture, SunstoneResumesBitIdentically)
{
    // The beam checkpoints at step boundaries, so the interrupt budget
    // must reach past the first per-level step for a checkpoint to
    // exist; the search examines thousands of candidates per level on
    // this shape.
    expectResumeMatchesUninterrupted(
        "sunstone",
        [&](SearchContext &sc) {
            SunstoneResult sr = sunstoneOptimize(sc, ba);
            MapperResult mr;
            mr.found = sr.found;
            mr.mapping = sr.mapping;
            mr.cost = sr.cost;
            mr.mappingsEvaluated = sr.candidatesExamined;
            mr.seconds = sr.seconds;
            mr.stopReason = sr.stopReason;
            return mr;
        },
        /*interrupt_at=*/3000, /*budget=*/6000);
}

// ---------------------------------------------------------------------
// Hostile beam checkpoints
// ---------------------------------------------------------------------

/** @return the named field of a parsed JSON object, for tampering. */
JsonValue &
fieldOf(JsonValue &obj, const std::string &name)
{
    const JsonValue *v = obj.find(name);
    if (!v)
        throw std::runtime_error("no field '" + name + "'");
    return const_cast<JsonValue &>(*v);
}

JsonValue
jsonInt(std::int64_t v)
{
    JsonValue j;
    j.kind = JsonValue::Kind::Number;
    j.number = static_cast<double>(v);
    j.raw = std::to_string(v);
    return j;
}

using Tamper = std::function<void(JsonValue &payload)>;

/** Negates dim 0's temporal factors at levels 0 and 1: the dim's factor
 *  product keeps its sign, so only a per-factor check can catch it. */
void
negateTwoTemporalFactors(std::vector<JsonValue> &levels)
{
    for (int l = 0; l < 2; ++l) {
        JsonValue &t = fieldOf(levels[l], "t").items[0];
        t = jsonInt(-t.asInt());
    }
}

/**
 * Takes the last beam checkpoint of a finished search, applies each
 * tampering to a copy of its payload, and expects every resume from the
 * result to fail with the clean "malformed beam" fatal rather than read
 * or write past the workload's dims and levels.
 */
void
expectTamperedBeamsRejected(const BoundArch &ba, const SunstoneOptions &opts,
                            const std::vector<std::pair<std::string, Tamper>>
                                &cases)
{
    const std::string path = ::testing::TempDir() + "/hostile_beam.json";
    std::remove(path.c_str());
    {
        SearchContext sc;
        sc.setCheckpointPath(path);
        ASSERT_TRUE(sunstoneOptimize(sc, ba, opts).found);
    }
    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    std::remove(path.c_str());
    for (const auto &[what, tamper] : cases) {
        JsonValue payload;
        ASSERT_TRUE(parseJson(ck.streamState, payload)) << what;
        ASSERT_FALSE(fieldOf(payload, "beam").items.empty()) << what;
        tamper(payload);
        SearchCheckpoint bad = ck;
        bad.streamState = payload.dump();
        SearchContext sc;
        sc.setResume(std::move(bad));
        ScopedFatalCapture capture;
        try {
            sunstoneOptimize(sc, ba, opts);
            ADD_FAILURE() << what << ": the tampered beam was resumed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("malformed beam"),
                      std::string::npos)
                << what << ": " << e.what();
        }
    }
}

TEST_F(ResumeFixture, SunstoneRejectsTamperedBeamCheckpoints)
{
    const int n_dims = ba.workload().numDims();
    const int n_levels = ba.numLevels();
    auto entry = [](JsonValue &payload) -> JsonValue & {
        return fieldOf(payload, "beam").items[0];
    };
    auto setSuffix = [&](std::int64_t dim) {
        return [&, dim](JsonValue &p) {
            fieldOf(entry(p), "suffix").items = {jsonInt(dim)};
        };
    };
    auto setRem0 = [&](std::int64_t value) {
        return [&, value](JsonValue &p) {
            fieldOf(entry(p), "rem").items[0] = jsonInt(value);
        };
    };
    auto setStep = [&](std::int64_t step) {
        return [&, step](JsonValue &p) { fieldOf(p, "step") = jsonInt(step); };
    };
    expectTamperedBeamsRejected(
        ba, {},
        {
            {"suffix dim == nDims", setSuffix(n_dims)},
            {"suffix dim == MaxDims - 1", setSuffix(MaxDims - 1)},
            {"negative suffix dim", setSuffix(-1)},
            {"short rem",
             [&](JsonValue &p) { fieldOf(entry(p), "rem").items.pop_back(); }},
            {"long rem",
             [&](JsonValue &p) {
                 fieldOf(entry(p), "rem").items.push_back(jsonInt(1));
             }},
            {"missing rem",
             [&](JsonValue &p) {
                 auto &fields = entry(p).fields;
                 std::erase_if(fields,
                               [](const auto &f) { return f.first == "rem"; });
             }},
            {"zero rem entry", setRem0(0)},
            {"negative rem entry", setRem0(-4)},
            {"step past the DRAM fill", setStep(n_levels)},
            {"negative step", setStep(-1)},
            {"mapping with a level missing",
             [&](JsonValue &p) {
                 fieldOf(fieldOf(entry(p), "m"), "levels").items.pop_back();
             }},
            {"mapping with two negated temporal factors",
             [&](JsonValue &p) {
                 negateTwoTemporalFactors(
                     fieldOf(fieldOf(entry(p), "m"), "levels").items);
             }},
        });

    SunstoneOptions top_down;
    top_down.levelOrder = SunstoneOptions::LevelOrder::TopDown;
    expectTamperedBeamsRejected(ba, top_down,
                                {
                                    {"top-down step past the top level",
                                     setStep(n_levels)},
                                    {"top-down negative step", setStep(-1)},
                                });
}

/** Mapping tamperings mappingFromJson() must refuse, whatever file
 *  carries the mapping. */
const std::vector<std::pair<std::string,
                            std::function<void(std::vector<JsonValue> &)>>>
    kHostileMappings{
        {"two negated temporal factors", negateTwoTemporalFactors},
        {"a zero spatial factor",
         [](std::vector<JsonValue> &levels) {
             fieldOf(levels[0], "s").items[0] = jsonInt(0);
         }},
        {"order entry 99",
         [](std::vector<JsonValue> &levels) {
             fieldOf(levels[1], "o").items[0] = jsonInt(99);
         }},
        {"negative order entry",
         [](std::vector<JsonValue> &levels) {
             fieldOf(levels[1], "o").items[0] = jsonInt(-1);
         }},
    };

TEST_F(ResumeFixture, HostileBestMappingFailsTheCheckpointLoad)
{
    // A Timeloop run's checkpoint whose best mapping was tampered with
    // used to resume into the cost model's satMul() assertion.
    const std::string path = ::testing::TempDir() + "/hostile_best.json";
    std::remove(path.c_str());
    {
        StopPolicy policy;
        policy.maxEvals = 250;
        policy.plateau = 1'000'000'000;
        SearchContext sc;
        sc.setPolicy(policy);
        sc.setCheckpointPath(path);
        ASSERT_TRUE(TimeloopMapper().optimize(sc, ba).found);
    }
    SearchCheckpoint written;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, written, &err)) << err;
    ASSERT_TRUE(written.found);
    for (const auto &[what, tamper] : kHostileMappings) {
        JsonValue doc;
        ASSERT_TRUE(parseJson(written.toJson(), doc)) << what;
        tamper(fieldOf(fieldOf(doc, "best_mapping"), "levels").items);
        {
            std::ofstream os(path, std::ios::trunc);
            os << doc.dump() << "\n";
        }
        SearchCheckpoint ck;
        EXPECT_FALSE(SearchCheckpoint::load(path, ck, &err)) << what;
        EXPECT_EQ(err, "malformed best_mapping") << what;
    }
    std::remove(path.c_str());
}

TEST_F(ResumeFixture, GammaRejectsHostilePopulationMappings)
{
    const std::string path = ::testing::TempDir() + "/hostile_ga.json";
    std::remove(path.c_str());
    {
        StopPolicy policy;
        policy.maxEvals = 320;
        policy.plateau = 1'000'000'000;
        SearchContext sc;
        sc.setPolicy(policy);
        sc.setCheckpointPath(path);
        ASSERT_TRUE(GammaMapper().optimize(sc, ba).found);
    }
    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    std::remove(path.c_str());
    for (const auto &[what, tamper] : kHostileMappings) {
        JsonValue payload;
        ASSERT_TRUE(parseJson(ck.streamState, payload)) << what;
        std::vector<JsonValue> &pop = fieldOf(payload, "prev").items;
        ASSERT_FALSE(pop.empty()) << what;
        tamper(fieldOf(fieldOf(pop.front(), "m"), "levels").items);
        SearchCheckpoint bad = ck;
        bad.streamState = payload.dump();
        SearchContext sc;
        sc.setResume(std::move(bad));
        ScopedFatalCapture capture;
        try {
            GammaMapper().optimize(sc, ba);
            ADD_FAILURE() << what << ": the tampered population was resumed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("stream payload"),
                      std::string::npos)
                << what << ": " << e.what();
        }
    }
}

TEST(CheckpointFormat, RejectsSurrogateStateFromRemovedRanker)
{
    // A run checkpointed with the surrogate ranker on carried its model
    // state under "surrogate". Resuming it without the ranker would
    // continue a different (unranked) search, so loading must fail and
    // say why rather than drop the key.
    SearchCheckpoint ck;
    ck.search = "timeloop";
    std::string text = ck.toJson();
    const std::string tail = ", \"stream\": ";
    const std::size_t at = text.rfind(tail);
    ASSERT_NE(at, std::string::npos) << text;
    text.insert(at, ", \"surrogate\": {\"n\": 64, \"gate_open\": true}");

    SearchCheckpoint out;
    std::string err;
    EXPECT_FALSE(SearchCheckpoint::fromJson(text, out, &err)) << text;
    EXPECT_NE(err.find("surrogate ranker was removed"), std::string::npos)
        << err;

    // The same checkpoint without the key still loads.
    EXPECT_TRUE(SearchCheckpoint::fromJson(ck.toJson(), out, &err)) << err;
}

/** Every network-checkpoint run evaluates on its own two-worker engine. */
constexpr unsigned kNetEngine = 2;

TEST(NetResume, FusedNetResumesBitIdenticallyAcrossSubgraphBoundary)
{
    // Interrupt/resume for the fusion-aware network scheduler: the
    // "net" checkpoint records one entry per completed per-op
    // baseline and one per completed fused unit. We take a complete
    // checkpoint and truncate it so that one baseline and the whole
    // fused unit are missing — exactly the state left by an interrupt
    // that landed between subgraph searches, crossing the
    // fused-subgraph boundary — then resume and demand bit-equality
    // with the uninterrupted run.
    const ArchSpec arch = makeConventional();
    const NetGraph g = attentionGraph(64, 1);
    NetSchedulerOptions opts;
    opts.fusion = FusionMode::Greedy;

    StopPolicy pol;
    pol.maxEvals = 300;
    pol.plateau = 1'000'000'000;

    EvalEngine fullEngine(kNetEngine);
    SearchContext full(&fullEngine);
    full.setPolicy(pol);
    full.setSeed(7);
    const NetScheduleResult ra = scheduleNet(full, arch, g, opts);
    ASSERT_TRUE(ra.allFound);
    ASSERT_EQ(ra.groupsFused, 1);

    const std::string path =
        ::testing::TempDir() + "/resume_net_fused.json";
    std::remove(path.c_str());
    EvalEngine writerEngine(kNetEngine);
    SearchContext writer(&writerEngine);
    writer.setPolicy(pol);
    writer.setSeed(7);
    writer.setCheckpointPath(path);
    scheduleNet(writer, arch, g, opts);

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    EXPECT_EQ(ck.search, "net");

    JsonValue state;
    ASSERT_TRUE(parseJson(ck.streamState, state));
    const JsonValue *done = state.find("done");
    ASSERT_NE(done, nullptr);
    std::vector<const JsonValue *> singles;
    int fusedEntries = 0;
    for (const JsonValue &e : done->items) {
        if (e.find("fused"))
            ++fusedEntries;
        else
            singles.push_back(&e);
    }
    ASSERT_EQ(singles.size(), 3u); // the three distinct attention ops
    ASSERT_EQ(fusedEntries, 1);

    ck.streamState = "{\"done\": [" + singles[0]->dump() + ", " +
                     singles[1]->dump() + "]}";
    ASSERT_TRUE(ck.save(path));

    SearchCheckpoint truncated;
    ASSERT_TRUE(SearchCheckpoint::load(path, truncated, &err)) << err;
    EvalEngine resumedEngine(kNetEngine);
    SearchContext resumed(&resumedEngine);
    resumed.setPolicy(pol);
    resumed.setSeed(7);
    resumed.setCheckpointPath(path);
    resumed.setResume(std::move(truncated));
    const NetScheduleResult rc = scheduleNet(resumed, arch, g, opts);

    EXPECT_EQ(ra.allFound, rc.allFound);
    EXPECT_EQ(ra.totalEnergyPj, rc.totalEnergyPj);
    EXPECT_EQ(ra.totalDelaySeconds, rc.totalDelaySeconds);
    EXPECT_EQ(ra.totalEdp, rc.totalEdp);
    EXPECT_EQ(ra.stopReason, rc.stopReason);
    EXPECT_EQ(ra.groupsFused, rc.groupsFused);
    EXPECT_EQ(ra.opsFused, rc.opsFused);
    ASSERT_EQ(ra.layers.size(), rc.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i) {
        EXPECT_EQ(mappingToJson(ra.layers[i].mapping),
                  mappingToJson(rc.layers[i].mapping))
            << "layer " << i;
        EXPECT_EQ(ra.layers[i].cost.edp, rc.layers[i].cost.edp);
        EXPECT_EQ(ra.layers[i].cost.totalEnergyPj,
                  rc.layers[i].cost.totalEnergyPj);
        EXPECT_EQ(ra.layers[i].candidatesExamined,
                  rc.layers[i].candidatesExamined);
        EXPECT_EQ(ra.layers[i].stopReason, rc.layers[i].stopReason);
        EXPECT_EQ(ra.layers[i].fused, rc.layers[i].fused);
        EXPECT_EQ(ra.layers[i].group, rc.layers[i].group);
    }
    std::remove(path.c_str());
}

/** Seeded, eval-budgeted setup shared by the network-checkpoint tests. */
void
setUpNetContext(SearchContext &sc, std::atomic<bool> *cancel = nullptr)
{
    StopPolicy pol;
    pol.maxEvals = 300;
    pol.plateau = 1'000'000'000;
    pol.cancel = cancel;
    sc.setPolicy(pol);
    sc.setSeed(7);
}

/**
 * Writes the complete "net" checkpoint of a seeded attention schedule
 * to `path` and returns the schedule.
 */
NetScheduleResult
writeNetCheckpoint(const ArchSpec &arch, const NetGraph &g,
                   const NetSchedulerOptions &opts, const std::string &path)
{
    std::remove(path.c_str());
    EvalEngine engine(kNetEngine);
    SearchContext writer(&engine);
    setUpNetContext(writer);
    writer.setCheckpointPath(path);
    return scheduleNet(writer, arch, g, opts);
}

/**
 * A cancellation that lands after the first per-op search completed:
 * the complete checkpoint is cut down to that one entry and resumed with
 * the cancellation flag raised, so every other search ends "cancelled".
 * Those must stay out of the checkpoint, and resuming it with the flag
 * clear must reproduce the uninterrupted run bit for bit.
 */
void
expectCancelledNetResumesBitIdentically(FusionMode mode)
{
    const ArchSpec arch = makeConventional();
    const NetGraph g = attentionGraph(64, 1);
    NetSchedulerOptions opts;
    opts.fusion = mode;
    const std::string path =
        ::testing::TempDir() + "/resume_net_cancelled.json";
    const NetScheduleResult ra = writeNetCheckpoint(arch, g, opts, path);
    ASSERT_TRUE(ra.allFound);
    ASSERT_EQ(ra.stopReason, "exhausted");

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    JsonValue state;
    ASSERT_TRUE(parseJson(ck.streamState, state));
    const JsonValue *done = state.find("done");
    ASSERT_NE(done, nullptr);
    ASSERT_FALSE(done->items.empty());
    ck.streamState = "{\"done\": [" + done->items[0].dump() + "]}";

    std::atomic<bool> cancel{true};
    EvalEngine interruptedEngine(kNetEngine);
    SearchContext interrupted(&interruptedEngine);
    setUpNetContext(interrupted, &cancel);
    interrupted.setCheckpointPath(path);
    interrupted.setResume(std::move(ck));
    EXPECT_EQ(scheduleNet(interrupted, arch, g, opts).stopReason,
              "cancelled");

    SearchCheckpoint after;
    ASSERT_TRUE(SearchCheckpoint::load(path, after, &err)) << err;
    cancel = false;
    EvalEngine resumedEngine(kNetEngine);
    SearchContext resumed(&resumedEngine);
    setUpNetContext(resumed, &cancel);
    resumed.setCheckpointPath(path);
    resumed.setResume(std::move(after));
    const NetScheduleResult rc = scheduleNet(resumed, arch, g, opts);

    EXPECT_EQ(ra.allFound, rc.allFound);
    EXPECT_EQ(ra.totalEnergyPj, rc.totalEnergyPj);
    EXPECT_EQ(ra.totalDelaySeconds, rc.totalDelaySeconds);
    EXPECT_EQ(ra.totalEdp, rc.totalEdp);
    EXPECT_EQ(ra.stopReason, rc.stopReason);
    EXPECT_EQ(ra.groupsFused, rc.groupsFused);
    ASSERT_EQ(ra.layers.size(), rc.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i) {
        EXPECT_EQ(mappingToJson(ra.layers[i].mapping),
                  mappingToJson(rc.layers[i].mapping))
            << "layer " << i;
        EXPECT_EQ(ra.layers[i].cost.edp, rc.layers[i].cost.edp);
        EXPECT_EQ(ra.layers[i].candidatesExamined,
                  rc.layers[i].candidatesExamined);
        EXPECT_EQ(ra.layers[i].stopReason, rc.layers[i].stopReason);
        EXPECT_EQ(ra.layers[i].fused, rc.layers[i].fused);
    }
    std::remove(path.c_str());
}

TEST(NetResume, CancelledNetResumesBitIdenticallyFuseOff)
{
    expectCancelledNetResumesBitIdentically(FusionMode::Off);
}

TEST(NetResume, CancelledNetResumesBitIdenticallyFuseGreedy)
{
    expectCancelledNetResumesBitIdentically(FusionMode::Greedy);
}

/**
 * Tampers with one restored mapping of a complete "net" checkpoint — the
 * first per-op entry in Off mode, the first member of the fused unit in
 * greedy mode — and expects each resume to fail with the clean
 * "malformed 'net' checkpoint" fatal instead of reporting a found layer
 * with a garbage cost.
 */
void
expectTamperedNetMappingsRejected(FusionMode mode)
{
    const ArchSpec arch = makeConventional();
    const NetGraph g = attentionGraph(64, 1);
    NetSchedulerOptions opts;
    opts.fusion = mode;
    const std::string path = ::testing::TempDir() + "/hostile_net.json";
    ASSERT_TRUE(writeNetCheckpoint(arch, g, opts, path).allFound);
    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    std::remove(path.c_str());

    auto levels = [mode](JsonValue &payload) -> std::vector<JsonValue> & {
        std::vector<JsonValue> &done = fieldOf(payload, "done").items;
        JsonValue *entry = &done.front();
        if (mode == FusionMode::Greedy)
            entry = &fieldOf(done.back(), "fused").items.front();
        return fieldOf(fieldOf(*entry, "mapping"), "levels").items;
    };
    const std::vector<std::pair<std::string, Tamper>> cases{
        {"a level dropped",
         [&](JsonValue &p) { levels(p).pop_back(); }},
        {"a dim dropped from every level",
         [&](JsonValue &p) {
             for (JsonValue &l : levels(p))
                 for (const char *k : {"t", "s", "o"})
                     fieldOf(l, k).items.pop_back();
         }},
        {"a zero temporal factor",
         [&](JsonValue &p) {
             fieldOf(levels(p).front(), "t").items.front() = jsonInt(0);
         }},
        {"order entry 99",
         [&](JsonValue &p) {
             fieldOf(levels(p).front(), "o").items.front() = jsonInt(99);
         }},
        {"two negated temporal factors",
         [&](JsonValue &p) { negateTwoTemporalFactors(levels(p)); }},
    };
    for (const auto &[what, tamper] : cases) {
        JsonValue payload;
        ASSERT_TRUE(parseJson(ck.streamState, payload)) << what;
        tamper(payload);
        SearchCheckpoint bad = ck;
        bad.streamState = payload.dump();
        EvalEngine engine(kNetEngine);
        SearchContext sc(&engine);
        setUpNetContext(sc);
        sc.setResume(std::move(bad));
        ScopedFatalCapture capture;
        try {
            scheduleNet(sc, arch, g, opts);
            ADD_FAILURE() << what << ": the tampered mapping was resumed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "malformed 'net' checkpoint"),
                      std::string::npos)
                << what << ": " << e.what();
        }
    }
}

TEST(NetResume, RejectsTamperedNetCheckpointsFuseOff)
{
    expectTamperedNetMappingsRejected(FusionMode::Off);
}

TEST(NetResume, RejectsTamperedNetCheckpointsFuseGreedy)
{
    expectTamperedNetMappingsRejected(FusionMode::Greedy);
}

// ---------------------------------------------------------------------
// Thread-count determinism
// ---------------------------------------------------------------------

TEST_F(ResumeFixture, SunstoneCoreIsThreadCountInvariant)
{
    double edp = 0;
    std::int64_t examined = 0;
    std::string mapping;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(threads);
        SearchContext sc(&engine);
        const SunstoneResult sr = sunstoneOptimize(sc, ba);
        ASSERT_TRUE(sr.found) << threads << " threads";
        if (threads == 1) {
            edp = sr.cost.edp;
            examined = sr.candidatesExamined;
            mapping = mappingToJson(sr.mapping);
            continue;
        }
        EXPECT_EQ(sr.cost.edp, edp) << threads << " threads";
        EXPECT_EQ(sr.candidatesExamined, examined) << threads << " threads";
        EXPECT_EQ(mappingToJson(sr.mapping), mapping)
            << threads << " threads";
    }
}

TEST_F(ResumeFixture, RefineIsThreadCountInvariant)
{
    const Mapping start = naiveMapping(ba);
    std::string mapping;
    std::int64_t evaluated = 0;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(threads);
        RefineStats stats;
        const Mapping polished =
            polishMapping(engine, ba, start, /*optimize_edp=*/true,
                          /*max_rounds=*/64, &stats);
        if (threads == 1) {
            mapping = mappingToJson(polished);
            evaluated = stats.evaluated;
            continue;
        }
        EXPECT_EQ(mappingToJson(polished), mapping) << threads << " threads";
        EXPECT_EQ(stats.evaluated, evaluated) << threads << " threads";
    }
}

TEST_F(ResumeFixture, TimeloopRandomIsThreadCountInvariant)
{
    double edp = 0;
    std::int64_t evals = 0;
    std::string mapping;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(threads);
        SearchContext sc(&engine);
        sc.policy().maxEvals = 500;
        sc.policy().plateau = 1'000'000'000;
        const MapperResult mr =
            TimeloopMapper(TimeloopOptions::fast()).optimize(sc, ba);
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

// ---------------------------------------------------------------------
// Pinned outcomes
// ---------------------------------------------------------------------

/** A finished search's observable outcome, in comparable form. */
struct Outcome
{
    std::string mapping; // mappingToText()
    std::string edp;     // hex float: exact bits, readable diffs
    std::int64_t evaluated = 0;
    std::string stopReason;
};

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

using EngineRunFn = std::function<MapperResult(SearchContext &)>;

/**
 * Runs `run` at 1 and 4 evaluation threads, each once uninterrupted to
 * `budget` and once cut at `interrupt_at` and resumed from the
 * checkpoint, and expects all four outcomes to equal `pinned`.
 */
void
expectPinnedOutcome(const std::string &name, const BoundArch &ba,
                    const EngineRunFn &run, std::int64_t interrupt_at,
                    std::int64_t budget, const Outcome &pinned)
{
    auto outcome = [&](const MapperResult &mr) {
        return Outcome{mappingToText(mr.mapping, ba), hexFloat(mr.cost.edp),
                       mr.mappingsEvaluated, mr.stopReason};
    };
    auto expectPinned = [&](const Outcome &o, const std::string &how) {
        EXPECT_EQ(o.mapping, pinned.mapping) << name << " " << how;
        EXPECT_EQ(o.edp, pinned.edp) << name << " " << how;
        EXPECT_EQ(o.evaluated, pinned.evaluated) << name << " " << how;
        EXPECT_EQ(o.stopReason, pinned.stopReason) << name << " " << how;
    };
    for (unsigned threads : {1u, 4u}) {
        const std::string at = std::to_string(threads) + " threads";
        StopPolicy base;
        base.maxEvals = budget;
        base.plateau = 1'000'000'000;
        {
            EvalEngine engine(threads);
            SearchContext sc(&engine);
            sc.setPolicy(base);
            expectPinned(outcome(run(sc)), at + ", uninterrupted");
        }

        const std::string path = ::testing::TempDir() + "/pinned_" + name +
                                 "_" + std::to_string(threads) + ".json";
        std::remove(path.c_str());
        {
            EvalEngine engine(threads);
            SearchContext sc(&engine);
            StopPolicy cut = base;
            cut.maxEvals = interrupt_at;
            sc.setPolicy(cut);
            sc.setCheckpointPath(path);
            run(sc);
        }
        SearchCheckpoint ck;
        std::string err;
        ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err))
            << name << ": " << err;
        EvalEngine engine(threads);
        SearchContext sc(&engine);
        sc.setPolicy(base);
        sc.setCheckpointPath(path);
        sc.setResume(std::move(ck));
        expectPinned(outcome(run(sc)), at + ", resumed");
        std::remove(path.c_str());
    }
}

// The constants below were recorded before the random samplers moved to
// reused batch slots; the slot refactor must not move a single sample.
// The budgets end on short final batches (1000 = 7 * 128 + 104).

TEST_F(ResumeFixture, TimeloopOutcomeIsPinned)
{
    expectPinnedOutcome(
        "timeloop", ba,
        [&](SearchContext &sc) {
            return TimeloopMapper(TimeloopOptions::fast()).optimize(sc, ba);
        },
        /*interrupt_at=*/500, /*budget=*/1000,
        {"mapping\n"
         "level L1 temporal k=4 spatial - order k,c,r,q,s,p,n\n"
         "level L2 temporal r=3 spatial k=2,c=2,p=4,q=4,s=3 "
         "order r,p,q,s,n,c,k\n"
         "level DRAM temporal c=4 spatial - order p,q,n,k,c,s,r\n",
         "0x1.8f756b56b4fa4p-46", 1000, "max-evals"});
}

TEST_F(ResumeFixture, GammaOutcomeIsPinned)
{
    expectPinnedOutcome(
        "gamma", ba,
        [&](SearchContext &sc) {
            return GammaMapper().optimize(sc, ba);
        },
        /*interrupt_at=*/450, /*budget=*/1000,
        {"mapping\n"
         "level L1 temporal r=3,s=3 spatial - order p,n,r,q,s,c,k\n"
         "level L2 temporal c=2 spatial k=8,c=2,p=4,q=4 "
         "order k,s,p,c,n,q,r\n"
         "level DRAM temporal c=2 spatial - order s,k,q,r,c,n,p\n",
         "0x1.0c4b84bdf4cdap-46", 1000, "max-evals"});
}

} // namespace
} // namespace sunstone
