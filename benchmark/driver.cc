/**
 * @file
 * The benchmark driver: one closed-loop client replaying a workload's
 * request lines through the calls `sunstone serve` makes for every line
 * (parseJson, MappingRequest::fromJson, SchedulerSession::execute,
 * MappingResponse::toJson), checking every answer, and printing every
 * metric by name and unit. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage: sunstone_benchmark --workload NAME [--seed N] [--seconds S]
 *                           [--trace 0|1] [--out FILE]
 *
 * A run first times 500 session set-ups, then replays the workload in
 * passes for about S seconds (default 25): a pass starts while half of a
 * mean pass still fits, a pass that has started is finished, and the
 * first pass always runs. Times are scaled to reference seconds
 * (speed.hh): a pass's by a reference loop timed during it, the set-ups'
 * by thread starts timed beside them. While the run lasts, an
 * idle-priority spinner per CPU keeps the host from parking the CPUs the
 * program is not using (awake.hh).
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 reports the
 * per-layer metrics: passes alternate untraced and traced (at least one
 * of each), the per-layer times come from the traced passes' span self
 * times, and the untraced passes give the tracing overhead. The exit
 * status is 0 only when every answer passed its checks.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "awake.hh"
#include "checks.hh"
#include "common/json.hh"
#include "model/batch_eval.hh"
#include "obs/convergence.hh"
#include "obs/trace.hh"
#include "selftime.hh"
#include "speed.hh"
#include "service/artifacts.hh"
#include "service/session.hh"
#include "workloads.hh"

namespace sunstone {
namespace bench {
namespace {

using service::MappingRequest;
using service::MappingResponse;
using service::RequestKind;
using service::SchedulerSession;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "sunstone_benchmark: %s\nusage: sunstone_benchmark "
                 "--workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out FILE]\nworkloads:",
                 why.c_str());
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("bad --seed '" + v + "'");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                usage("bad --seconds '" + v + "'");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out = v;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (!findWorkload(o.workload))
        usage("unknown or missing --workload '" + o.workload + "'");
    return o;
}

/** What nproc reports: the CPUs this process may run on. */
unsigned
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

/**
 * Starts a peak-RSS window: returns freed heap pages to the OS and resets
 * the kernel's high-water mark, so the next peakRssMiB() reports what the
 * work since then needed on top of the process baseline.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last reset (process lifetime when the
 *  kernel does not support the reset), in MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

/** Linear interpolation between order statistics; p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Times gathered over passes, in reference seconds. */
struct PassTimes
{
    std::vector<double> latency;
    /** Service time: the lines' latencies plus, per fresh session, its
     *  construction and teardown; the benchmark's checks are excluded. */
    double service = 0;
    /** The program's CPU time: the process's, less the benchmark's own
     *  work and the spinners'. */
    double cpu = 0;
    /** Sum of seconds-to-1% over the searches that reached the band. */
    double secondsTo1pct = 0;
    std::int64_t searches = 0;
    double cached = 0;   // resp.seconds of cached answers
    double handoff = 0;  // execute wall time minus resp.seconds
    double evalBusy = 0; // evalLatencyUs.sum deltas
    double driver = 0;   // resp.seconds of random-search and GA answers
    std::map<std::string, SpanTotals> spans;

    /** Adds `p`, measured at host speed, scaled by `scale`. */
    void
    add(const PassTimes &p, double scale)
    {
        for (double v : p.latency)
            latency.push_back(v * scale);
        service += p.service * scale;
        cpu += p.cpu * scale;
        secondsTo1pct += p.secondsTo1pct * scale;
        searches += p.searches;
        cached += p.cached * scale;
        handoff += p.handoff * scale;
        evalBusy += p.evalBusy * scale;
        driver += p.driver * scale;
        auto ns = [scale](std::int64_t v) {
            return static_cast<std::int64_t>(std::llround(v * scale));
        };
        for (const auto &[name, s] : p.spans) {
            SpanTotals &o = spans[name];
            o.count += s.count;
            o.totalNs += ns(s.totalNs);
            o.selfNs += ns(s.selfNs);
            o.outerNs += ns(s.outerNs);
        }
    }
};

/** Everything one run measures. */
struct Tally
{
    /** Session set-ups, each from construction until its first health
     *  request is answered. */
    std::vector<double> setup;
    /** Untraced passes give the end-to-end numbers, traced ones the
     *  per-layer split. */
    PassTimes untraced, traced;

    // Every pass.
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t okSearches = 0; // ok Map/Net answers
    std::int64_t cached = 0;
    std::int64_t executed = 0;
    SearchStats engine; // summed per-request deltas
    double batchSizeSum = 0;
    std::int64_t batchSizeCount = 0;
    std::int64_t driverEvals = 0; // timeloop/gamma answers
    std::int64_t evictions = 0;
    std::int64_t resultCacheEntries = 0;
    std::uint64_t spansDropped = 0;

    // The first pass: exact counts, the answers' EDP, and memory.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    double logEdpSum = 0;
    std::int64_t edpCount = 0;
    std::int64_t evaluations = 0;
    std::int64_t candidates = 0;
    std::int64_t groupsFused = 0;
    std::int64_t netLayers = 0;
    std::int64_t dedupLayers = 0;
    std::int64_t warmSeeds = 0;
    std::int64_t rejected = 0;
    std::int64_t batches = 0;
    std::vector<double> evalsTo1pct;
    double peakRssMiB = 0;

    // The benchmark's own work (checks, trace draining, speed probes),
    // subtracted from the process CPU time.
    double ownCpuSeconds = 0;
};

class Runner
{
  public:
    Runner(const Options &opts, const WorkloadSpec &spec)
        : opts_(opts), spec_(spec), threads_(nproc())
    {
        sessionOpts_.threads = threads_;
        // Serve mode: a bad request becomes an ok:false answer.
        sessionOpts_.captureFatals = true;
        // The convergence recorder is reached through an ArtifactSet;
        // nothing is ever written to this path.
        artifactOpts_.convergencePath = "convergence.unused.json";
    }

    unsigned threads() const { return threads_; }
    const Tally &tally() const { return t_; }
    int passes() const { return passes_; }

    void
    run()
    {
        const auto start = Clock::now();
        timeSetUps();
        if (spec_.scope == SessionScope::Run)
            openSession();

        // A new pass starts while at least half of a mean pass still fits,
        // so a run takes about --seconds whatever its pass length.
        const int minPasses = opts_.trace ? 2 : 1;
        double passSeconds = 0;
        for (int pass = 0;
             pass < minPasses ||
             since(start) + 0.5 * passSeconds / pass < opts_.seconds;
             ++pass) {
            const bool traced = opts_.trace && pass % 2 == 1;
            const auto t0 = Clock::now();
            if (!runPass(pass, traced))
                break;
            passes_ = pass + 1;
            passSeconds += since(t0);
            std::fprintf(stderr, "pass %d%s: %.3f s, host speed %.3f\n", pass,
                         traced ? " (traced)" : "", since(t0), lastScale_);
        }
        session_.reset();
    }

  private:
    /**
     * Session set-up costs tens of microseconds, so it is timed on 500
     * sessions of its own, from construction until one health request is
     * answered; each is then torn down. Each set-up is followed by a start
     * and join of an empty thread, and the set-up times are scaled by
     * those (speed.hh).
     */
    void
    timeSetUps()
    {
        std::vector<double> raw, spawns;
        for (int i = 0; i < 500; ++i) {
            const auto t0 = Clock::now();
            openSession();
            MappingRequest health;
            health.kind = RequestKind::Health;
            const MappingResponse r = session_->execute(health);
            raw.push_back(since(t0));
            session_.reset();
            if (!r.ok)
                fail("set-up health request failed: " + r.error);
            spawns.push_back(spawnSeconds());
        }
        const double scale =
            kSpawnReferenceSeconds / percentile(spawns, 50);
        for (double v : raw)
            t_.setup.push_back(v * scale);
    }

    void
    openSession()
    {
        session_ = std::make_unique<SchedulerSession>(sessionOpts_);
        checker_.newSession();
    }

    /** Times the reference loop (every time when `force`), as the
     *  benchmark's own work. */
    void
    probe(bool force)
    {
        const double cpu0 = threadCpuSeconds();
        force ? probe_.sample() : probe_.maybeSample();
        t_.ownCpuSeconds += threadCpuSeconds() - cpu0;
    }

    double
    programCpuSeconds()
    {
        return processCpuSeconds() - t_.ownCpuSeconds - awake_.cpuSeconds();
    }

    void
    fail(const std::string &why)
    {
        ++t_.failed;
        if (t_.failed <= 5)
            std::fprintf(stderr, "check failed: %s\n", why.c_str());
    }

    /** @return false when the workload has no lines left for `pass` */
    bool
    runPass(int pass, bool traced)
    {
        const std::vector<Line> lines = spec_.makePass(opts_.seed, pass);
        if (lines.empty())
            return false;
        // Memory is measured on the first pass, after each line is served
        // and before it is checked. A fresh session per line is one
        // process per request, so its peak is the largest line's: heap
        // left over from earlier lines, which depends on their order, is
        // returned to the OS before each line, as a new process starts
        // without it.
        const bool rssPerLine = pass == 0 && spec_.scope == SessionScope::Line;
        if (pass == 0)
            resetPeakRss();
        pass_ = {};
        probe(true);
        obs::tracer().setEnabled(traced);
        if (spec_.scope == SessionScope::Pass)
            openSession();
        const double cpu0 = programCpuSeconds();
        for (const Line &line : lines) {
            if (rssPerLine) {
                const double own0 = threadCpuSeconds();
                resetPeakRss();
                t_.ownCpuSeconds += threadCpuSeconds() - own0;
            }
            const auto t0 = Clock::now();
            if (spec_.scope == SessionScope::Line)
                openSession();
            const double checkSeconds = serveLine(line, pass);
            if (spec_.scope == SessionScope::Line)
                session_.reset();
            pass_.service += since(t0) - checkSeconds;
            if (traced) {
                const double drain0 = threadCpuSeconds();
                std::vector<obs::SpanRecord> spans = obs::tracer().spans();
                t_.spansDropped += obs::tracer().spansDropped();
                obs::tracer().clear();
                aggregateSelfTime(spans, pass_.spans);
                t_.ownCpuSeconds += threadCpuSeconds() - drain0;
            }
            probe(false);
        }
        pass_.cpu = programCpuSeconds() - cpu0;
        obs::tracer().setEnabled(false);
        if (session_) {
            noteCacheEntries();
            if (spec_.scope == SessionScope::Pass)
                session_.reset();
        }
        probe(true);
        lastScale_ = probe_.takeScale();
        (traced ? t_.traced : t_.untraced).add(pass_, lastScale_);
        return true;
    }

    void
    noteCacheEntries()
    {
        JsonValue h;
        if (!parseJson(session_->healthJson(), h))
            return;
        if (const JsonValue *s = h.find("session"))
            if (const JsonValue *n = s->find("result_cache_entries"))
                t_.resultCacheEntries = std::max<std::int64_t>(
                    t_.resultCacheEntries, n->asInt(0));
    }

    /**
     * One line through the serve front end, then its checks.
     * @return the wall seconds the checks took
     */
    double
    serveLine(const Line &line, int pass)
    {
        SchedulerSession &session = *session_;
        service::ArtifactSet artifacts(artifactOpts_, session.engine());
        const SearchStats before = session.engine().stats();

        const auto t0 = Clock::now();
        MappingRequest req;
        MappingResponse resp;
        bool parsed;
        {
            obs::TraceSpan span("bench.parse");
            std::string err;
            JsonValue v;
            parsed = parseJson(line.text, v, &err) &&
                     MappingRequest::fromJson(v, req, &err);
            if (!parsed) {
                if (const JsonValue *id =
                        v.isObject() ? v.find("id") : nullptr)
                    resp.id = id->asString();
                resp.error = "bad request: " + err;
            }
        }
        double executeSeconds = 0;
        if (parsed) {
            obs::TraceSpan span("bench.execute");
            const auto e0 = Clock::now();
            resp = session.execute(req, &artifacts);
            executeSeconds = since(e0);
        }
        std::string rendered;
        {
            obs::TraceSpan span("bench.render");
            rendered = resp.toJson();
        }
        pass_.latency.push_back(since(t0));

        const SearchStats after = session.engine().stats();
        ++t_.attempted;

        const auto c0 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        if (pass == 0)
            t_.peakRssMiB = std::max(t_.peakRssMiB, peakRssMiB());
        const std::string err =
            checker_.check(line, parsed ? &req : nullptr, resp, rendered);
        if (!err.empty())
            fail(err + "\n  line: " + line.text.substr(0, 240));
        record(req, resp, parsed, line, pass, executeSeconds, before, after,
               artifacts);
        t_.ownCpuSeconds += threadCpuSeconds() - cpu0;
        return since(c0);
    }

    void
    record(const MappingRequest &req, const MappingResponse &resp,
           bool parsed, const Line &line, int pass, double executeSeconds,
           const SearchStats &before, const SearchStats &after,
           service::ArtifactSet &artifacts)
    {
        const bool first = pass == 0;
        if (first) {
            t_.digest = hashAnswer(t_.digest, resp);
            if (line.malformed && !resp.ok)
                ++t_.rejected;
        }
        if (!parsed)
            return;

        ++t_.executed;
        pass_.handoff += std::max(0.0, executeSeconds - resp.seconds);
        const SearchStats &d = resp.engineDelta;
        t_.engine.evaluations += d.evaluations;
        t_.engine.cacheHits += d.cacheHits;
        t_.engine.cacheMisses += d.cacheMisses;
        t_.engine.invalidMappings += d.invalidMappings;
        t_.engine.prefixHits += d.prefixHits;
        t_.engine.prefixMisses += d.prefixMisses;
        t_.evictions += d.evictions;
        pass_.evalBusy +=
            1e-6 * (after.evalLatencyUs.sum - before.evalLatencyUs.sum);
        t_.batchSizeSum += after.batchSize.sum - before.batchSize.sum;
        t_.batchSizeCount += after.batchSize.count - before.batchSize.count;
        if (first) {
            t_.evaluations += d.evaluations;
            t_.batches += d.batches;
            t_.warmSeeds += resp.warmSeeds;
        }

        const bool search = resp.ok && (req.kind == RequestKind::Map ||
                                        req.kind == RequestKind::Net);
        if (!search)
            return;
        ++t_.okSearches;
        if (resp.cached) {
            ++t_.cached;
            pass_.cached += resp.seconds;
            return;
        }

        const double edp = req.kind == RequestKind::Net
                               ? resp.net->totalEdp
                               : resp.result.cost.edp;
        if (first && edp > 0 && std::isfinite(edp)) {
            t_.logEdpSum += std::log(edp);
            ++t_.edpCount;
        }
        if (req.kind == RequestKind::Map && req.mapper != "sunstone") {
            t_.driverEvals += d.evaluations;
            pass_.driver += resp.seconds;
        }
        if (obs::ConvergenceRecorder *rec = artifacts.convergence())
            for (const obs::ConvergenceTrajectory *tr : rec->trajectories()) {
                const obs::TimeToQuality q = obs::timeToQuality(tr->points());
                if (q.secondsTo1pct < 0)
                    continue;
                pass_.secondsTo1pct += q.secondsTo1pct;
                ++pass_.searches;
                if (first)
                    t_.evalsTo1pct.push_back(
                        static_cast<double>(q.evalsTo1pct));
            }
        if (!first)
            return;
        if (req.kind == RequestKind::Net) {
            t_.groupsFused += resp.net->groupsFused;
            for (const LayerSchedule &l : resp.net->layers) {
                ++t_.netLayers;
                t_.dedupLayers += l.deduplicated ? 1 : 0;
                t_.candidates += l.candidatesExamined;
            }
        } else if (req.mapper == "sunstone") {
            t_.candidates += resp.result.mappingsEvaluated;
        }
    }

    const Options &opts_;
    const WorkloadSpec &spec_;
    const unsigned threads_;
    /** Runs for the Runner's whole life, set-ups included. */
    KeepAwake awake_;
    service::SessionOptions sessionOpts_;
    service::ArtifactOptions artifactOpts_;
    std::unique_ptr<SchedulerSession> session_;
    AnswerChecker checker_;
    SpeedProbe probe_;
    Tally t_;
    int passes_ = 0;
    /** The last pass's scale to reference seconds. */
    double lastScale_ = 1;
    /** The running pass's times, at host speed. */
    PassTimes pass_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEnd(const Runner &r)
{
    const Tally &t = r.tally();
    const PassTimes &u = t.untraced;
    const double lines = static_cast<double>(u.latency.size());
    return {
        {"setup_s", percentile(t.setup, 50), "s"},
        {"latency_p50_s", percentile(u.latency, 50), "s"},
        {"latency_p90_s", percentile(u.latency, 90), "s"},
        {"requests_per_s", ratio(lines, u.service), "1/s"},
        {"edp_geomean",
         t.edpCount ? std::exp(t.logEdpSum / t.edpCount) : 0, "pJ.s"},
        // A mean, not a median: per-search values are multimodal (GA and
        // random-search trajectories differ tenfold).
        {"time_to_1pct_s",
         ratio(u.secondsTo1pct, static_cast<double>(u.searches)), "s"},
        {"peak_rss_mb", t.peakRssMiB, "MiB"},
        {"cpu_s_per_request", ratio(u.cpu, lines), "s"},
    };
}

std::vector<Metric>
perLayer(const Runner &r)
{
    const Tally &t = r.tally();
    const PassTimes &tr = t.traced;
    // Self seconds per traced line of the spans named in `names`; a
    // name ending in '.' matches every span it prefixes.
    auto self = [&](std::initializer_list<std::string> names) {
        std::int64_t ns = 0;
        for (const auto &[span, s] : tr.spans)
            for (const std::string &n : names)
                if (n.back() == '.' ? span.rfind(n, 0) == 0 : span == n)
                    ns += s.selfNs;
        return ratio(1e-9 * static_cast<double>(ns),
                     static_cast<double>(tr.latency.size()));
    };
    auto meanUs = [&](const char *name) {
        const auto it = tr.spans.find(name);
        if (it == tr.spans.end() || it->second.count == 0)
            return 0.0;
        return 1e-3 * static_cast<double>(it->second.totalNs) /
               static_cast<double>(it->second.count);
    };
    auto poolOuter = [&] {
        const auto it = tr.spans.find("pool.task");
        return it == tr.spans.end() ? 0.0 : 1e-9 * it->second.outerNs;
    };
    // Times summed over every pass.
    auto both = [&](double PassTimes::*field) {
        return t.untraced.*field + tr.*field;
    };
    const double untracedP50 = percentile(t.untraced.latency, 50);
    const double lines = static_cast<double>(t.executed);
    const SearchStats &e = t.engine;
    return {
        {"service.parse_us", meanUs("bench.parse"), "us"},
        {"service.materialize_us", meanUs("bench.materialize"), "us"},
        {"service.render_us", meanUs("bench.render"), "us"},
        {"service.handoff_us", 1e6 * ratio(both(&PassTimes::handoff), lines), "us"},
        {"service.cached_us",
         1e6 * ratio(both(&PassTimes::cached), static_cast<double>(t.cached)),
         "us"},
        {"service.result_cache_hit_rate",
         ratio(static_cast<double>(t.cached),
               static_cast<double>(t.okSearches)),
         "fraction"},
        {"service.result_cache_entries",
         static_cast<double>(t.resultCacheEntries), "count"},
        {"service.rejected", static_cast<double>(t.rejected), "count"},
        {"core.net.schedule_s",
         self({"net.schedule", "net.schedule.fused", "net.search",
               "net.search.fused", "net.broadcast"}),
         "s"},
        {"core.net.fuse_plan_s", self({"net.fuse.plan"}), "s"},
        {"core.net.dedup_ratio",
         ratio(static_cast<double>(t.dedupLayers),
               static_cast<double>(t.netLayers)),
         "fraction"},
        {"core.net.groups_fused", static_cast<double>(t.groupsFused),
         "count"},
        {"core.candidates", static_cast<double>(t.candidates), "count"},
        {"core.sunstone.search_s", self({"sunstone.search"}), "s"},
        {"core.sunstone.tiling_s", self({"sunstone.tiling"}), "s"},
        {"core.sunstone.ordering_s", self({"sunstone.ordering"}), "s"},
        {"core.sunstone.unrolling_s", self({"sunstone.unrolling"}), "s"},
        {"core.sunstone.rank_s", self({"sunstone.rank"}), "s"},
        {"core.refine_s", self({"sunstone.refine", "refine.hillclimb"}),
         "s"},
        {"search.drive_s", self({"search.drive."}), "s"},
        {"mappers.self_s", self({"mapper."}), "s"},
        {"search.evals_per_s",
         ratio(static_cast<double>(t.driverEvals), both(&PassTimes::driver)),
         "1/s"},
        {"search.evals_to_1pct", percentile(t.evalsTo1pct, 50), "count"},
        {"search.warm_seeds", static_cast<double>(t.warmSeeds), "count"},
        {"model.evaluations", static_cast<double>(t.evaluations), "count"},
        {"model.memo_hit_rate",
         ratio(static_cast<double>(e.cacheHits),
               static_cast<double>(e.cacheHits + e.cacheMisses)),
         "fraction"},
        {"model.memo_evictions", static_cast<double>(t.evictions), "count"},
        {"model.prefix_hit_rate",
         ratio(static_cast<double>(e.prefixHits),
               static_cast<double>(e.prefixHits + e.prefixMisses)),
         "fraction"},
        {"model.eval_busy_s", ratio(both(&PassTimes::evalBusy), lines), "s"},
        {"model.invalid_rate",
         ratio(static_cast<double>(e.invalidMappings),
               static_cast<double>(e.evaluations)),
         "fraction"},
        {"model.batches", static_cast<double>(t.batches), "count"},
        {"model.batch_size_mean",
         ratio(t.batchSizeSum, static_cast<double>(t.batchSizeCount)),
         "count"},
        {"pool.task_self_s", self({"pool.task"}), "s"},
        {"pool.utilization",
         ratio(poolOuter(), r.threads() * tr.service),
         "fraction"},
        {"trace.overhead",
         untracedP50 > 0 ? percentile(tr.latency, 50) / untracedP50 - 1
                         : 0,
         "fraction"},
        {"trace.spans_dropped", static_cast<double>(t.spansDropped),
         "count"},
    };
}

std::string
num(double v)
{
    return jsonDouble(std::isfinite(v) ? v : 0);
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += i ? ", " : "";
        out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}";
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace
} // namespace bench
} // namespace sunstone

int
main(int argc, char **argv)
{
    using namespace sunstone;
    using namespace sunstone::bench;
    const Options opts = parseArgs(argc, argv);
    const WorkloadSpec &spec = *findWorkload(opts.workload);

    // One request's spans must fit the per-thread rings: at the default
    // capacity a single resnet18 request overflows them. The capacity
    // applies to rings created later, so set it before any session
    // thread exists.
    if (opts.trace)
        obs::tracer().setRingCapacity(std::size_t{1} << 20);

    Runner runner(opts, spec);
    runner.run();
    const Tally &t = runner.tally();

    const std::vector<Metric> e2e = endToEnd(runner);
    const std::vector<Metric> layers = perLayer(runner);
    const bool correct = t.failed == 0;

    std::printf("workload %s  seed %llu  threads %u  simd %s  passes %d  "
                "lines %lld  failed %lld\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), runner.threads(),
                BatchEvaluator::backendName(), runner.passes(),
                static_cast<long long>(t.attempted),
                static_cast<long long>(t.failed));
    std::printf("answers_digest %s\n", hex(t.digest).c_str());
    const std::vector<Metric> &shown = opts.trace ? layers : e2e;
    // Exact first-pass counts, reported by every run so two sets of runs
    // can be checked for identical work.
    std::vector<Metric> counts;
    for (const Metric &m : layers)
        if (m.name == "model.evaluations" || m.name == "core.candidates" ||
            m.name == "search.evals_to_1pct" || m.name == "service.rejected")
            counts.push_back(m);
    for (const Metric &m : shown)
        std::printf("  %-32s %-14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    if (!opts.out.empty()) {
        std::ofstream os(opts.out);
        os << "{\"workload\": \"" << opts.workload << "\", \"seed\": "
           << opts.seed << ", \"trace\": " << (opts.trace ? 1 : 0)
           << ", \"threads\": " << runner.threads() << ", \"simd\": \""
           << BatchEvaluator::backendName()
           << "\", \"passes\": " << runner.passes()
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << t.attempted
           << ", \"failed\": " << t.failed << ", \"answers_digest\": \""
           << hex(t.digest) << "\", \"metrics\": " << metricsJson(shown)
           << ", \"counts\": " << metricsJson(counts) << "}\n";
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n", opts.out.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(t.attempted),
                static_cast<long long>(t.failed), metricsJson(shown).c_str());
    return correct ? 0 : 1;
}
