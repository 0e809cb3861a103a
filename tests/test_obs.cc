/** @file
 * Tests for the observability layer: span tracer (balance, nesting,
 * Chrome JSON shape, ring overwrite), metrics (exact histogram counts
 * under concurrent recording, registry stability), convergence
 * trajectories (monotone, final point matches the search result),
 * thread registry, and log levels. Every span assertion is guarded on
 * tracingCompiledIn() so the suite also passes -DSUNSTONE_TRACING=OFF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "arch/presets.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/sunstone.hh"
#include "obs/convergence.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "obs/thread_registry.hh"
#include "obs/trace.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

/** Structural JSON check: brackets balance outside string literals. */
bool
balancedJson(const std::string &s)
{
    std::vector<char> stack;
    bool in_str = false, esc = false;
    for (char c : s) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"') {
            in_str = true;
        } else if (c == '{' || c == '[') {
            stack.push_back(c);
        } else if (c == '}') {
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
        } else if (c == ']') {
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
        }
    }
    return !in_str && stack.empty();
}

/**
 * Checks that each thread's spans form a proper nesting: any two spans
 * on one thread are either disjoint or one contains the other (which is
 * what RAII scoping guarantees and what Perfetto requires to stack).
 */
bool
properlyNested(const std::vector<obs::SpanRecord> &spans)
{
    std::map<int, std::vector<obs::SpanRecord>> per_thread;
    for (const auto &s : spans)
        per_thread[s.threadIndex].push_back(s);
    for (auto &[tid, v] : per_thread) {
        std::sort(v.begin(), v.end(), [](const auto &a, const auto &b) {
            return a.startNs != b.startNs ? a.startNs < b.startNs
                                          : a.durNs > b.durNs;
        });
        std::vector<std::int64_t> open_ends;
        for (const auto &s : v) {
            while (!open_ends.empty() && open_ends.back() < s.startNs)
                open_ends.pop_back();
            if (!open_ends.empty() &&
                s.startNs + s.durNs > open_ends.back())
                return false;
            open_ends.push_back(s.startNs + s.durNs);
        }
    }
    return true;
}

TEST(Tracer, BalancedNestedSpansUnderConcurrentParallelFor)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "tracing compiled out";
    auto &tr = obs::tracer();
    tr.clear();
    tr.setEnabled(true);
    ThreadPool pool(4);
    parallelFor(pool, 64, [](std::size_t) {
        SUNSTONE_TRACE_SPAN("outer");
        {
            SUNSTONE_TRACE_SPAN("inner");
            volatile int sink = 0;
            for (int j = 0; j < 1000; ++j)
                sink = sink + j;
        }
    });
    tr.setEnabled(false);

    const auto spans = tr.spans();
    int outer = 0, inner = 0;
    for (const auto &s : spans) {
        if (s.name == "outer")
            ++outer;
        else if (s.name == "inner")
            ++inner;
    }
    // Ring capacity (16384/thread) far exceeds 128 spans: none dropped.
    EXPECT_EQ(outer, 64);
    EXPECT_EQ(inner, 64);
    EXPECT_TRUE(properlyNested(spans));
}

TEST(Tracer, SpansLandOnDistinctRegisteredThreads)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "tracing compiled out";
    auto &tr = obs::tracer();
    tr.clear();
    tr.setEnabled(true);
    auto work = [] { SUNSTONE_TRACE_SPAN("per-thread"); };
    std::thread a(work), b(work);
    a.join();
    b.join();
    tr.setEnabled(false);

    std::vector<int> tids;
    for (const auto &s : tr.spans())
        if (s.name == "per-thread")
            tids.push_back(s.threadIndex);
    ASSERT_EQ(tids.size(), 2u);
    EXPECT_NE(tids[0], tids[1]);
}

TEST(Tracer, ChromeJsonIsWellFormed)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "tracing compiled out";
    auto &tr = obs::tracer();
    tr.clear();
    tr.setEnabled(true);
    {
        SUNSTONE_TRACE_SPAN("json-span");
    }
    tr.setEnabled(false);

    const std::string json = tr.toChromeJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"json-span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    auto &tr = obs::tracer();
    tr.clear();
    tr.setEnabled(false);
    {
        SUNSTONE_TRACE_SPAN("should-not-appear");
    }
    EXPECT_EQ(tr.spansRecorded(), 0u);
    EXPECT_TRUE(tr.spans().empty());
}

TEST(Tracer, RingOverwriteKeepsMostRecentWindow)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "tracing compiled out";
    auto &tr = obs::tracer();
    tr.clear();
    tr.setRingCapacity(8);
    tr.setEnabled(true);
    // A fresh thread gets a fresh (capacity-8) buffer.
    std::thread([] {
        for (int i = 0; i < 20; ++i) {
            SUNSTONE_TRACE_SPAN("ring");
        }
    }).join();
    tr.setEnabled(false);
    tr.setRingCapacity(16384);

    int ring_spans = 0;
    for (const auto &s : tr.spans())
        if (s.name == "ring")
            ++ring_spans;
    EXPECT_EQ(ring_spans, 8);
    EXPECT_EQ(tr.spansDropped(), 12u);
    EXPECT_EQ(tr.spansRecorded(), 20u);
}

TEST(Metrics, HistogramCountsExactUnderConcurrentRecording)
{
    obs::Histogram h({10.0, 20.0, 30.0});
    constexpr int kPerThread = 10000;
    const double values[4] = {5, 15, 25, 35}; // one per bucket
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&h, &values, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(values[t]);
        });
    for (auto &th : threads)
        th.join();

    const auto snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4u); // 3 finite buckets + inf
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(snap.counts[b], kPerThread) << "bucket " << b;
    EXPECT_EQ(snap.count, 4 * kPerThread);
    // All values are small integers, so the atomic sum is exact.
    EXPECT_EQ(snap.sum, (5.0 + 15.0 + 25.0 + 35.0) * kPerThread);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    obs::Histogram h({10.0, 20.0});
    h.record(10.0);  // on the bound -> first bucket
    h.record(10.5);  // above -> second bucket
    h.record(1e9);   // above every bound -> +inf bucket
    const auto snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 3u);
    EXPECT_EQ(snap.counts[0], 1);
    EXPECT_EQ(snap.counts[1], 1);
    EXPECT_EQ(snap.counts[2], 1);
}

TEST(Metrics, WeightedRecordCountsEveryObservation)
{
    obs::Histogram h({10.0, 20.0});
    h.record(15.0, 4); // four observations of 15 -> second bucket
    h.record(5.0);     // the unweighted call is a weight of one
    const auto snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 3u);
    EXPECT_EQ(snap.counts[0], 1);
    EXPECT_EQ(snap.counts[1], 4);
    EXPECT_EQ(snap.counts[2], 0);
    EXPECT_EQ(snap.count, 5);
    EXPECT_EQ(snap.sum, 15.0 * 4 + 5.0);
}

TEST(Metrics, RegistryHandsOutStableReferences)
{
    auto &c1 = obs::metrics().counter("test.stable");
    c1.add(3);
    auto &c2 = obs::metrics().counter("test.stable");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 3);

    auto &g = obs::metrics().gauge("test.gauge");
    g.set(1.5);
    g.set(2.5);
    EXPECT_EQ(obs::metrics().gauge("test.gauge").value(), 2.5);

    obs::metrics().histogram("test.hist", {1.0, 2.0}).record(1.5);
    const std::string json = obs::metrics().toJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"test.stable\""), std::string::npos);
    EXPECT_NE(json.find("\"test.gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
}

TEST(Convergence, TrajectoryStampsMonotoneClockAndPoints)
{
    obs::ConvergenceRecorder rec;
    auto &traj = rec.start("manual");
    traj.record(1, 100.0, 10.0, 10.0);
    traj.record(5, 80.0, 8.0, 8.0);
    traj.record(9, 60.0, 6.0, 6.0);
    const auto pts = traj.points();
    ASSERT_EQ(pts.size(), 3u);
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GE(pts[i].seconds, pts[i - 1].seconds);
        EXPECT_GE(pts[i].evaluations, pts[i - 1].evaluations);
        EXPECT_LE(pts[i].metric, pts[i - 1].metric);
    }
    const std::string json = rec.toJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"trajectories\""), std::string::npos);
    EXPECT_NE(json.find("\"manual\""), std::string::npos);
}

TEST(Convergence, SunstoneSearchEmitsMonotoneTrajectory)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 8;
    sh.c = 8;
    sh.p = 8;
    sh.q = 8;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeConventional(), wl);

    obs::ConvergenceRecorder rec;
    SunstoneOptions opts;
    opts.searchLabel = "test-search";
    SearchContext sc(nullptr, {}, &rec);
    SunstoneResult r = sunstoneOptimize(sc, ba, opts);
    ASSERT_TRUE(r.found);

    ASSERT_EQ(rec.trajectoryCount(), 1u);
    const auto *traj = rec.trajectories()[0];
    EXPECT_EQ(traj->name(), "test-search");
    const auto pts = traj->points();
    ASSERT_GE(pts.size(), 2u);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LE(pts[i].metric, pts[i - 1].metric) << "point " << i;
    // The last point is the reported result (EDP objective by default).
    EXPECT_DOUBLE_EQ(pts.back().metric, r.cost.edp);
    EXPECT_DOUBLE_EQ(pts.back().energyPj, r.cost.totalEnergyPj);
}

TEST(ThreadRegistry, AssignsStableIndicesAndNames)
{
    const int idx = obs::registerThisThread("test-main");
    EXPECT_EQ(obs::currentThreadIndex(), idx);
    EXPECT_EQ(obs::currentThreadName(), "test-main");
    EXPECT_EQ(obs::threadName(idx), "test-main");

    int other = -1;
    std::thread([&other] {
        other = obs::registerThisThread("test-worker");
    }).join();
    EXPECT_NE(other, idx);
    EXPECT_EQ(obs::threadName(other), "test-worker");
    EXPECT_GE(obs::registeredThreadCount(), 2);
}

TEST(LogLevels, ThresholdGatesEachSeverity)
{
    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    SUNSTONE_INFORM("hidden-info");
    SUNSTONE_WARN("shown-warn");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out.find("hidden-info"), std::string::npos);
    EXPECT_NE(out.find("shown-warn"), std::string::npos);

    setLogLevel(LogLevel::Debug);
    ::testing::internal::CaptureStderr();
    SUNSTONE_DEBUG("shown-debug");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("debug: shown-debug"), std::string::npos);
    // Timestamped "[HH:MM:SS.mmm] " prefix.
    ASSERT_GE(out.size(), 15u);
    EXPECT_EQ(out[0], '[');
    EXPECT_EQ(out[3], ':');
    EXPECT_EQ(out[6], ':');
    EXPECT_EQ(out[9], '.');
    EXPECT_EQ(out[13], ']');
    setLogLevel(LogLevel::Info);
}

TEST(LogLevels, SetLogLevelRoundTrips)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(logLevel(), LogLevel::Info);
}

// ---------------------------------------------------------------------
// Histogram percentiles (live-telemetry satellite)
// ---------------------------------------------------------------------

TEST(HistogramPercentiles, InterpolatesWithinBuckets)
{
    obs::Histogram h({10, 20, 40});
    // 10 values in [0,10], 10 in (10,20]: p50 lands exactly on the
    // first/second bucket boundary, p75 halfway through the second.
    for (int i = 0; i < 10; ++i)
        h.record(5);
    for (int i = 0; i < 10; ++i)
        h.record(15);
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(75), 15.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
    // p25 is halfway through the first bucket, which spans [0, 10].
    EXPECT_DOUBLE_EQ(s.percentile(25), 5.0);
}

TEST(HistogramPercentiles, OverflowBucketClampsToLastBound)
{
    obs::Histogram h({10});
    h.record(5);
    h.record(1000); // +inf bucket
    const obs::HistogramSnapshot s = h.snapshot();
    // The histogram cannot resolve beyond its last finite bound.
    EXPECT_DOUBLE_EQ(s.percentile(99), 10.0);
}

TEST(HistogramPercentiles, EmptyIsNaNAndJsonNull)
{
    obs::Histogram h({10, 20});
    const obs::HistogramSnapshot empty = h.snapshot();
    EXPECT_TRUE(std::isnan(empty.percentile(50)));
    const std::string j = empty.toJson();
    EXPECT_NE(j.find("\"p50\":null"), std::string::npos);
    EXPECT_NE(j.find("\"p99\":null"), std::string::npos);

    h.record(15);
    const std::string j2 = h.snapshot().toJson();
    JsonValue v;
    ASSERT_TRUE(parseJson(j2, v));
    ASSERT_NE(v.find("p50"), nullptr);
    EXPECT_GT(v.find("p50")->asDouble(), 10.0);
    EXPECT_LE(v.find("p99")->asDouble(), 20.0);
}

// ---------------------------------------------------------------------
// ETA math (pure; no clocks or threads)
// ---------------------------------------------------------------------

TEST(ComputeEta, DeadlineDominatesWhenSoonest)
{
    // 5 s left on the deadline; 9000 evals left at 1000/s = 9 s.
    const obs::EtaEstimate e =
        obs::computeEta(1000, 10000, 5.0, 10.0, 0, 0, 1000.0);
    EXPECT_STREQ(e.bound, "deadline");
    EXPECT_DOUBLE_EQ(e.seconds, 5.0);
}

TEST(ComputeEta, MaxEvalsDominatesWhenSoonest)
{
    // 1000 evals left at 1000/s = 1 s, versus 100 s of deadline.
    const obs::EtaEstimate e =
        obs::computeEta(9000, 10000, 5.0, 105.0, 0, 0, 1000.0);
    EXPECT_STREQ(e.bound, "max-evals");
    EXPECT_DOUBLE_EQ(e.seconds, 1.0);
}

TEST(ComputeEta, PlateauDominatesWhenSoonest)
{
    // 100 non-improving evals to go at 1000/s = 0.1 s; no deadline, and
    // max-evals is much further out.
    const obs::EtaEstimate e =
        obs::computeEta(1000, 100000, 5.0, 0, 900, 1000, 1000.0);
    EXPECT_STREQ(e.bound, "plateau");
    EXPECT_DOUBLE_EQ(e.seconds, 0.1);
}

TEST(ComputeEta, TiesBreakDeadlineThenEvalsThenPlateau)
{
    // All three project exactly 1 s: the wall-clock bound is exact, the
    // others extrapolate, so the deadline must win.
    const obs::EtaEstimate tie =
        obs::computeEta(9000, 10000, 9.0, 10.0, 0, 1000, 1000.0);
    EXPECT_STREQ(tie.bound, "deadline");
    // Evals and plateau both 1 s, no deadline: max-evals wins.
    const obs::EtaEstimate tie2 =
        obs::computeEta(9000, 10000, 9.0, 0, 0, 1000, 1000.0);
    EXPECT_STREQ(tie2.bound, "max-evals");
}

TEST(ComputeEta, ZeroRateLeavesEvalBoundsUnbounded)
{
    const obs::EtaEstimate e =
        obs::computeEta(0, 10000, 1.0, 0, 0, 1000, 0.0);
    EXPECT_STREQ(e.bound, "");
    EXPECT_TRUE(std::isinf(e.seconds));
}

TEST(ComputeEta, ExceededBoundProjectsZero)
{
    const obs::EtaEstimate e =
        obs::computeEta(10001, 10000, 1.0, 0, 0, 0, 1000.0);
    EXPECT_STREQ(e.bound, "max-evals");
    EXPECT_DOUBLE_EQ(e.seconds, 0.0);
}

TEST(ComputeEta, UnboundedSearchHasNoEta)
{
    const obs::EtaEstimate e = obs::computeEta(500, 0, 1.0, 0, 7, 0,
                                               1000.0);
    EXPECT_STREQ(e.bound, "");
    EXPECT_TRUE(std::isinf(e.seconds));
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops)
{
    obs::FlightRecorder rec(8);
    EXPECT_EQ(rec.capacity(), 8u);
    for (int i = 0; i < 20; ++i)
        rec.record("ev", std::to_string(i));
    EXPECT_EQ(rec.eventsRecorded(), 20u);
    EXPECT_EQ(rec.eventsDropped(), 12u);
    const std::vector<obs::FlightEvent> evs = rec.events();
    ASSERT_EQ(evs.size(), 8u);
    // Oldest-first window of the most recent 8 events: 12..19.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(evs[i].detail, std::to_string(12 + i));
    // Timestamps are monotone in ring order.
    for (int i = 1; i < 8; ++i)
        EXPECT_GE(evs[i].ns, evs[i - 1].ns);
}

TEST(FlightRecorder, JsonlLinesParse)
{
    obs::FlightRecorder rec(8);
    rec.record("search.started", "a \"quoted\" label");
    rec.record("chain.rejected", "x+y reason=cost");
    std::istringstream is(rec.toJsonl());
    std::string line;
    int n = 0;
    while (std::getline(is, line)) {
        JsonValue v;
        ASSERT_TRUE(parseJson(line, v)) << line;
        ASSERT_NE(v.find("kind"), nullptr);
        ++n;
    }
    EXPECT_EQ(n, 2);
}

// ---------------------------------------------------------------------
// Progress board + snapshot writer
// ---------------------------------------------------------------------

TEST(ProgressBoard, TracksSearchesAndUnits)
{
    obs::ProgressBoard &board = obs::progressBoard();
    board.resetForTests();
    obs::SearchStatus &s = board.open("t.search", 1000, 2.0, 50);
    s.noteEvaluated(10);
    s.noteImprovement(42.0);
    s.notePlateau(3);
    board.addUnits(2);
    board.noteUnitDone();
    EXPECT_EQ(board.totalEvaluated(), 10);
    EXPECT_EQ(board.unitsTotal(), 2);
    EXPECT_EQ(board.unitsDone(), 1);
    const auto snap = board.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0]->label(), "t.search");
    EXPECT_FALSE(snap[0]->done());
    EXPECT_STREQ(snap[0]->stopReason(), "");
    s.finish("exhausted");
    EXPECT_TRUE(snap[0]->done());
    EXPECT_STREQ(snap[0]->stopReason(), "exhausted");
    EXPECT_DOUBLE_EQ(snap[0]->bestMetric(), 42.0);
    board.resetForTests();
}

TEST(SnapshotWriter, JsonlWellFormedUnderConcurrentUpdates)
{
    obs::ProgressBoard &board = obs::progressBoard();
    board.resetForTests();
    const std::string path =
        ::testing::TempDir() + "sunstone_snapshot_test.jsonl";
    std::remove(path.c_str());

    obs::SearchStatus &s = board.open("snap.search", 100000, 0, 0);
    obs::SnapshotWriter w(path, 10);
    w.setExtraProvider([] { return std::string("{\"k\":1}"); });
    ASSERT_TRUE(w.start());

    // Hammer the board and a registry histogram from two threads while
    // records are being written.
    std::atomic<bool> stop{false};
    std::thread t1([&] {
        while (!stop.load())
            s.noteEvaluated(1);
    });
    std::thread t2([&] {
        obs::Histogram &h = obs::metrics().histogram("snap.lat");
        while (!stop.load())
            h.record(3.0);
    });
    for (int i = 0; i < 30; ++i)
        ASSERT_TRUE(w.writeNow());
    stop.store(true);
    t1.join();
    t2.join();
    s.finish("exhausted");
    w.stop();
    EXPECT_GE(w.recordsWritten(), 32); // 30 + initial + final

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line;
    std::int64_t lines = 0, last_evals = -1;
    while (std::getline(is, line)) {
        JsonValue v;
        ASSERT_TRUE(parseJson(line, v)) << "line " << lines;
        ASSERT_TRUE(balancedJson(line));
        ASSERT_NE(v.find("searches"), nullptr);
        ASSERT_NE(v.find("registry"), nullptr);
        ASSERT_NE(v.find("extra"), nullptr);
        const JsonValue &searches = *v.find("searches");
        ASSERT_EQ(searches.items.size(), 1u);
        // Evaluations are monotone across records even while the
        // counter is being hammered.
        const std::int64_t evals =
            searches.items[0].find("evaluated")->asInt();
        EXPECT_GE(evals, last_evals);
        last_evals = evals;
        ++lines;
    }
    EXPECT_EQ(lines, w.recordsWritten());
    std::remove(path.c_str());
    board.resetForTests();
}

TEST(SnapshotWriter, EveryRecordIsOneLineAndAppendsAreAtomicUnits)
{
    obs::ProgressBoard &board = obs::progressBoard();
    board.resetForTests();
    board.open("atomic.search", 0, 0, 0);
    const std::string path =
        ::testing::TempDir() + "sunstone_snapshot_atomic.jsonl";
    std::remove(path.c_str());
    obs::SnapshotWriter w(path, 10000); // periodic thread stays idle
    ASSERT_TRUE(w.start());
    // A record never embeds a newline: the one '\n' per write(2) is the
    // record separator, which is what makes a killed writer tear at
    // most the final line.
    const std::string rec = w.renderRecord();
    EXPECT_EQ(rec.find('\n'), std::string::npos);
    EXPECT_TRUE(balancedJson(rec));

    // Concurrent writeNow() callers interleave only at line level.
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&] {
            for (int i = 0; i < 25; ++i)
                w.writeNow();
        });
    for (auto &t : writers)
        t.join();
    w.stop();

    std::ifstream is(path);
    std::string line;
    std::int64_t lines = 0;
    while (std::getline(is, line)) {
        JsonValue v;
        ASSERT_TRUE(parseJson(line, v)) << "line " << lines;
        ++lines;
    }
    EXPECT_EQ(lines, w.recordsWritten());
    std::remove(path.c_str());
    board.resetForTests();
}

} // namespace
} // namespace sunstone
