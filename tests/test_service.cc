/** @file
 * Tests of the service core (DESIGN.md §16): the MappingRequest wire
 * schema, and SchedulerSession behavior that only exists *because* the
 * session is long-lived — result-cache dedup with engine re-validation,
 * warm-start seeding from earlier requests, bit-identical results on a
 * warm engine, admission control, cooperative cancellation, and fatal
 * capture (a bad request must not kill the session).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch.hh"
#include "common/json.hh"
#include "mapping/serialize.hh"
#include "service/serve.hh"
#include "service/session.hh"

namespace sunstone {
namespace service {
namespace {

MappingRequest
smallConv(std::uint64_t seed, std::int64_t max_evals = 600)
{
    MappingRequest req;
    req.kind = RequestKind::Map;
    req.conv = "n=1,k=8,c=8,p=8,q=8,r=3,s=3";
    req.seed = seed;
    req.maxEvals = max_evals;
    return req;
}

SessionOptions
quietSession(unsigned threads = 2)
{
    SessionOptions o;
    o.threads = threads;
    return o;
}

TEST(ServiceRequest, JsonRoundTrip)
{
    MappingRequest req;
    req.id = "req-1";
    req.kind = RequestKind::Map;
    req.einsum = "out[i,j] = A[i,k] * B[k,j]";
    req.dims = "i=8,j=8,k=8";
    req.bits = "A=8";
    req.archName = "simba";
    req.mapper = "gamma";
    req.optimizeEdp = false;
    req.beamWidth = 4;
    req.deadlineMs = 250.5;
    req.maxEvals = 1000;
    req.plateau = 64;
    req.seed = 42;
    req.warmStart = true;

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(req.toJson(), v, &err)) << err;
    MappingRequest back;
    ASSERT_TRUE(MappingRequest::fromJson(v, back, &err)) << err;
    EXPECT_EQ(back.toJson(), req.toJson());
    EXPECT_EQ(back.id, "req-1");
    EXPECT_EQ(back.mapper, "gamma");
    EXPECT_FALSE(back.optimizeEdp);
    EXPECT_EQ(back.beamWidth, 4);
    ASSERT_TRUE(back.seed);
    EXPECT_EQ(*back.seed, 42u);
    EXPECT_TRUE(back.warmStart);
}

TEST(ServiceRequest, NetRoundTripAndKindInference)
{
    MappingRequest req;
    req.kind = RequestKind::Net;
    req.net = "attention";
    req.seq = 64;
    req.fuse = "greedy";
    req.seed = 7;

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(req.toJson(), v, &err)) << err;
    MappingRequest back;
    ASSERT_TRUE(MappingRequest::fromJson(v, back, &err)) << err;
    EXPECT_EQ(back.toJson(), req.toJson());

    // A request naming a net without a kind is a Net request.
    JsonValue v2;
    ASSERT_TRUE(parseJson("{\"net\": \"tcl\"}", v2, &err)) << err;
    MappingRequest inferred;
    ASSERT_TRUE(MappingRequest::fromJson(v2, inferred, &err)) << err;
    EXPECT_EQ(inferred.kind, RequestKind::Net);
}

TEST(ServiceRequest, RejectsUnknownAndMalformedFields)
{
    std::string err;
    JsonValue v;
    MappingRequest req;

    ASSERT_TRUE(parseJson("{\"kind\": \"map\", \"bogus\": 1}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    EXPECT_NE(err.find("unknown request field"), std::string::npos);

    ASSERT_TRUE(parseJson("{\"kind\": \"quux\"}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));

    ASSERT_TRUE(parseJson("{\"stop\": {\"max_evals\": 0}}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));

    ASSERT_TRUE(
        parseJson("{\"surrogate\": {\"enabled\": true}}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    EXPECT_NE(err.find("unknown request field"), std::string::npos);

    EXPECT_FALSE(MappingRequest::fromJson(JsonValue{}, req, &err));
}

/** Integer fields that would wrap in the request's int fields are
 *  rejected (serve answers ok:false), not truncated to a small value. */
TEST(ServiceRequest, RejectsIntegersThatWouldWrap)
{
    std::string err;
    JsonValue v;
    MappingRequest req;

    // 2^32 + 1 wraps to 1 as an int.
    ASSERT_TRUE(parseJson("{\"beam\": 4294967297}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    EXPECT_NE(err.find("beam must be"), std::string::npos) << err;
    ASSERT_TRUE(parseJson("{\"beam\": 1073741825}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    ASSERT_TRUE(parseJson("{\"beam\": 1073741824}", v, &err));
    ASSERT_TRUE(MappingRequest::fromJson(v, req, &err)) << err;
    EXPECT_EQ(req.beamWidth, 1 << 30);

    ASSERT_TRUE(
        parseJson("{\"check\": {\"trials\": 4294967297}}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    EXPECT_NE(err.find("check.trials must be"), std::string::npos) << err;
    ASSERT_TRUE(
        parseJson("{\"check\": {\"trials\": 2147483648}}", v, &err));
    EXPECT_FALSE(MappingRequest::fromJson(v, req, &err));
    ASSERT_TRUE(
        parseJson("{\"check\": {\"trials\": 2147483647}}", v, &err));
    ASSERT_TRUE(MappingRequest::fromJson(v, req, &err)) << err;
    EXPECT_EQ(req.checkTrials, 2147483647);

    // Non-integral and out-of-range numbers are not integers either.
    for (const char *beam : {"2.5", "1e300", "-1e300"}) {
        ASSERT_TRUE(parseJson(std::string("{\"beam\": ") + beam + "}", v,
                              &err));
        EXPECT_FALSE(MappingRequest::fromJson(v, req, &err)) << beam;
    }
}

TEST(ServiceSession, RepeatRequestIsDedupedWithWarmEngine)
{
    SchedulerSession session(quietSession());
    const MappingRequest req = smallConv(/*seed=*/3);

    const MappingResponse first = session.execute(req);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(first.result.found);
    EXPECT_FALSE(first.cached);
    EXPECT_GT(first.engineDelta.evaluations, 0);

    const MappingResponse second = session.execute(req);
    ASSERT_TRUE(second.ok) << second.error;
    // The dedup marker: served from the session result cache...
    EXPECT_TRUE(second.cached);
    // ...with the stored payload bit-identical to the original...
    EXPECT_EQ(second.resultJson(), first.resultJson());
    EXPECT_EQ(second.mappingText, first.mappingText);
    // ...without any engine work.
    EXPECT_EQ(second.engineDelta.evaluations, 0);

    EXPECT_EQ(session.counters().deduped, 1);
}

TEST(ServiceSession, RepeatNetRequestIsDeduped)
{
    SchedulerSession session(quietSession());
    MappingRequest req;
    req.kind = RequestKind::Net;
    req.net = "tcl";
    req.seed = 5;
    req.maxEvals = 800;

    const MappingResponse first = session.execute(req);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(first.net);
    EXPECT_FALSE(first.cached);

    const MappingResponse second = session.execute(req);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.resultJson(), first.resultJson());
    EXPECT_EQ(second.engineDelta.evaluations, 0);
}

TEST(ServiceSession, WallClockDependentRequestsAreNotCached)
{
    SchedulerSession session(quietSession());
    MappingRequest req = smallConv(/*seed=*/3, /*max_evals=*/200);
    req.deadlineMs = 10000;

    const MappingResponse first = session.execute(req);
    ASSERT_TRUE(first.ok) << first.error;
    const MappingResponse second = session.execute(req);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_FALSE(second.cached);
}

TEST(ServiceSession, WarmEngineDoesNotChangeSearchResults)
{
    // One session, two requests: a warm-up search, then the probe. The
    // probe must match a fresh session's answer bit for bit: nothing the
    // warm-up leaves in the session engine reaches a search result.
    const MappingRequest warmup = smallConv(/*seed=*/9);
    const MappingRequest probe = smallConv(/*seed=*/4);

    SchedulerSession warm(quietSession());
    ASSERT_TRUE(warm.execute(warmup).ok);
    const MappingResponse viaWarm = warm.execute(probe);

    SchedulerSession cold(quietSession());
    const MappingResponse viaCold = cold.execute(probe);

    ASSERT_TRUE(viaWarm.ok && viaCold.ok);
    ASSERT_TRUE(viaWarm.result.found && viaCold.result.found);
    EXPECT_EQ(viaWarm.mappingText, viaCold.mappingText);
    EXPECT_EQ(viaWarm.result.cost.totalEnergyPj,
              viaCold.result.cost.totalEnergyPj);
    EXPECT_EQ(viaWarm.result.cost.edp, viaCold.result.cost.edp);
    EXPECT_EQ(viaWarm.result.mappingsEvaluated,
              viaCold.result.mappingsEvaluated);
    EXPECT_EQ(viaWarm.result.stopReason, viaCold.result.stopReason);
}

TEST(ServiceSession, WarmStartSeedsFromEarlierRequests)
{
    SchedulerSession session(quietSession());

    // The cold request records its realized best into the session's
    // (in-memory) warm-start store.
    const MappingResponse cold = session.execute(smallConv(/*seed=*/3));
    ASSERT_TRUE(cold.ok && cold.result.found);
    EXPECT_EQ(cold.warmSeeds, 0);

    // An opted-in repeat of the same shape is seeded from it.
    MappingRequest warmed = smallConv(/*seed=*/3);
    warmed.warmStart = true;
    const MappingResponse warm = session.execute(warmed);
    ASSERT_TRUE(warm.ok && warm.result.found);
    EXPECT_GT(warm.warmSeeds, 0);
    EXPECT_FALSE(warm.cached); // session-state-dependent: never cached
    // Seeding can only help: the warm best is no worse than the cold.
    EXPECT_LE(warm.result.cost.edp, cold.result.cost.edp);
}

TEST(ServiceSession, AdmissionControlRejectsWhenQueueIsFull)
{
    SessionOptions opts = quietSession();
    opts.queueCapacity = 1;
    SchedulerSession session(opts);

    // Occupy the worker with a deadline-bound search. Timeloop with an
    // unreachable plateau samples until the deadline, so the worker is
    // guaranteed busy for the full 800 ms.
    MappingRequest slow = smallConv(/*seed=*/1, /*max_evals=*/0);
    slow.maxEvals.reset();
    slow.mapper = "timeloop";
    slow.plateau = 1000000000;
    slow.deadlineMs = 800;
    auto running = session.submit(slow);
    // ...wait until the worker picked it up so the queue is empty...
    for (int i = 0; i < 200 && session.queueDepth() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(session.queueDepth(), 0u);

    // ...fill the one queue slot, then overflow it.
    auto queued = session.submit(smallConv(/*seed=*/2, 50));
    auto rejected = session.submit(smallConv(/*seed=*/3, 50));

    const MappingResponse r = rejected.get();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
    EXPECT_GE(session.counters().rejected, 1);

    EXPECT_TRUE(running.get().ok);
    EXPECT_TRUE(queued.get().ok);
}

TEST(ServiceSession, CancellationStopsInFlightSearch)
{
    SchedulerSession session(quietSession());
    MappingRequest slow;
    slow.kind = RequestKind::Map;
    // Timeloop with an unreachable plateau never exhausts: without the
    // cancel, only the 30 s deadline would end this search.
    slow.conv = "n=4,k=64,c=64,p=28,q=28,r=3,s=3";
    slow.mapper = "timeloop";
    slow.plateau = 1000000000;
    slow.seed = 1;
    slow.deadlineMs = 30000; // bounded, but only by the cancel below
    auto fut = session.submit(slow);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    session.cancellation().requestCancel();

    const MappingResponse r = fut.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.result.stopReason, "cancelled");

    // The flag is session state: reset re-arms the session for more
    // requests (serve does this implicitly by shutting down instead).
    session.cancellation().reset();
    const MappingResponse next = session.execute(smallConv(2, 50));
    EXPECT_TRUE(next.ok);
    EXPECT_NE(next.result.stopReason, "cancelled");
}

TEST(ServiceSession, FatalCaptureTurnsBadRequestsIntoErrors)
{
    SessionOptions opts = quietSession();
    opts.captureFatals = true;
    SchedulerSession session(opts);

    MappingRequest bad = smallConv(/*seed=*/1, 50);
    bad.archName = "not-an-arch";
    const MappingResponse err = session.execute(bad);
    EXPECT_FALSE(err.ok);
    EXPECT_NE(err.error.find("unknown architecture"), std::string::npos)
        << err.error;

    MappingRequest noWorkload;
    noWorkload.kind = RequestKind::Map;
    const MappingResponse err2 = session.execute(noWorkload);
    EXPECT_FALSE(err2.ok);
    EXPECT_NE(err2.error.find("specify a workload"), std::string::npos)
        << err2.error;

    // The session survives and keeps serving.
    const MappingResponse ok = session.execute(smallConv(/*seed=*/1, 50));
    EXPECT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(session.counters().failed, 2);
}

TEST(ServiceSession, HealthReportsSessionAndEngineState)
{
    SchedulerSession session(quietSession());
    ASSERT_TRUE(session.execute(smallConv(/*seed=*/3, 100)).ok);

    MappingRequest health;
    health.kind = RequestKind::Health;
    health.id = "h1";
    const MappingResponse resp = session.execute(health);
    ASSERT_TRUE(resp.ok);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(resp.healthJson, v, &err)) << err;
    const JsonValue *sess = v.find("session");
    ASSERT_NE(sess, nullptr);
    EXPECT_GE(sess->find("executed")->asInt(), 1);
    EXPECT_NE(v.find("engine"), nullptr);
    EXPECT_NE(v.find("registry"), nullptr);

    // The full response line is itself one parseable JSON object.
    JsonValue line;
    ASSERT_TRUE(parseJson(resp.toJson(), line, &err)) << err;
    EXPECT_EQ(line.find("id")->asString(), "h1");
}

TEST(ServiceSession, RequestIdIsEscapedInEveryResponse)
{
    // The id is copied from the client's line into the response. A quote
    // and a newline in it must come back as JSON escapes, never raw, so
    // the response stays one valid NDJSON line: on success and on error.
    const std::string id = "a\"b\nc";
    const std::vector<std::pair<std::string, bool>> lines = {
        {R"({"id": "a\"b\nc", "kind": "health"})", true},
        {R"({"id": "a\"b\nc", "workload": {"conv": "n=1,k=8"},)"
         R"( "mapper": "nope"})",
         false},
    };
    SessionOptions opts = quietSession(1);
    opts.captureFatals = true; // as `serve` runs it
    SchedulerSession session(opts);
    for (const auto &[text, ok] : lines) {
        SCOPED_TRACE(text);
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(text, v, &err)) << err;
        MappingRequest req;
        ASSERT_TRUE(MappingRequest::fromJson(v, req, &err)) << err;
        ASSERT_EQ(req.id, id);

        const MappingResponse resp = session.execute(req);
        EXPECT_EQ(resp.ok, ok) << resp.error;
        const std::string out = resp.toJson();
        EXPECT_NE(out.find(R"("id": "a\"b\nc")"), std::string::npos)
            << out;
        EXPECT_EQ(out.find('\n'), std::string::npos) << out;
        JsonValue line;
        ASSERT_TRUE(parseJson(out, line, &err)) << err << "\n" << out;
        EXPECT_EQ(line.find("id")->asString(), id);
    }
}

TEST(ServiceSession, EvalRequestMatchesMapResult)
{
    SchedulerSession session(quietSession());
    const MappingResponse mapped = session.execute(smallConv(3));
    ASSERT_TRUE(mapped.ok && mapped.result.found);

    // Round-trip the mapping through a file and an Eval request.
    const std::string dir = ::testing::TempDir();
    BoundArch ba(*mapped.arch, *mapped.workload);
    saveMappingFile(mapped.result.mapping, ba, dir + "/svc_eval.mapping");

    MappingRequest eval;
    eval.kind = RequestKind::Eval;
    eval.conv = "n=1,k=8,c=8,p=8,q=8,r=3,s=3";
    eval.mappingFile = dir + "/svc_eval.mapping";
    const MappingResponse evaluated = session.execute(eval);
    ASSERT_TRUE(evaluated.ok) << evaluated.error;
    ASSERT_TRUE(evaluated.result.found);
    EXPECT_EQ(evaluated.result.cost.edp, mapped.result.cost.edp);
    EXPECT_EQ(evaluated.result.cost.totalEnergyPj,
              mapped.result.cost.totalEnergyPj);
}

TEST(ServiceStats, DeltaSince)
{
    SearchStats earlier;
    earlier.evaluations = 100;
    earlier.invalidMappings = 40;
    SearchStats now;
    now.evaluations = 150;
    now.invalidMappings = 45;

    const SearchStats d = now.deltaSince(earlier);
    EXPECT_EQ(d.evaluations, 50);
    EXPECT_EQ(d.invalidMappings, 5);
}

} // anonymous namespace
} // namespace service
} // namespace sunstone
