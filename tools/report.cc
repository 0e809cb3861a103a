/**
 * @file
 * `sunstone report`: offline digestion of the run artifacts the other
 * subcommands write. It ingests any subset of
 *
 *   --stats-json F        map/map --net outcome + engine stats
 *   --metrics-json F      {"engine": ..., "registry": ...}
 *   --snapshot-json F     live-telemetry JSONL time series
 *   --convergence-json F  incumbent trajectories
 *   --trace-json F        Chrome trace_event spans
 *   --diag-dir D          a crash/exit bundle (reads metrics.json,
 *                         engine.json, events.jsonl, crash.txt, and
 *                         trace.json inside D)
 *
 * and prints, per section: the run summary, evaluation-latency
 * percentiles (p50/p90/p99 interpolated from the histogram buckets),
 * the engine counters (evaluations, scratch reuses, invalid, pruned,
 * batches), per-layer/per-chain fusion outcomes,
 * the snapshot time series (records, eval-rate trend, final search
 * states), convergence trajectories with time-to-quality (evals and
 * seconds to within 1%/5% of each trajectory's final metric), the
 * warm-start counters from the metrics registry, the trace spans'
 * totals by name (the one wall-clock attribution, largest first), and
 * the flight-event tail. Sections whose artifact was not supplied are
 * skipped, so the command composes with whatever a run actually
 * produced.
 *
 * Torn trailing lines in the snapshot JSONL (a killed writer) are
 * counted and skipped — every complete line parses by construction.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/convergence.hh"
#include "obs/metrics.hh"

namespace sunstone {
namespace report {

namespace {

bool
loadFile(const std::string &path, std::string &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Parses `path` as one JSON document; fatal() on junk. */
bool
loadJson(const std::string &path, JsonValue &out)
{
    std::string text;
    if (!loadFile(path, text))
        return false;
    std::string err;
    if (!parseJson(text, out, &err))
        SUNSTONE_FATAL("cannot parse '", path, "': ", err);
    return true;
}

void
section(const char *title)
{
    std::printf("\n== %s ==\n", title);
}

/** Rebuilds a HistogramSnapshot from its toJson() rendering. */
bool
histogramFromJson(const JsonValue &v, obs::HistogramSnapshot &h)
{
    const JsonValue *bounds = v.find("bounds");
    const JsonValue *counts = v.find("counts");
    if (!bounds || !counts || !bounds->isArray() || !counts->isArray())
        return false;
    for (const JsonValue &b : bounds->items)
        h.bounds.push_back(b.asDouble());
    for (const JsonValue &c : counts->items) {
        h.counts.push_back(c.asInt());
        h.count += h.counts.back();
    }
    if (const JsonValue *s = v.find("sum"))
        h.sum = s->asDouble();
    return true;
}

// ---------------------------------------------------------------------
// Sections. Each takes the parsed artifact(s) it reads and prints
// nothing when the data is absent, so the report composes.
// ---------------------------------------------------------------------

void
printEvalLatency(const JsonValue &engine)
{
    const JsonValue *lat = engine.find("eval_latency_us");
    if (!lat)
        return;
    obs::HistogramSnapshot h;
    if (!histogramFromJson(*lat, h) || h.count == 0)
        return;
    section("evaluation latency");
    // Percentiles are re-derived from the buckets so old artifacts
    // (written before the p50/p90/p99 summary fields) report too.
    std::printf("  evaluations timed   %lld\n",
                static_cast<long long>(h.count));
    std::printf("  mean                %.1f us\n",
                h.sum / static_cast<double>(h.count));
    std::printf("  p50                 %.1f us\n", h.percentile(50));
    std::printf("  p90                 %.1f us\n", h.percentile(90));
    std::printf("  p99                 %.1f us\n", h.percentile(99));
}

void
printCache(const JsonValue &engine)
{
    if (!engine.find("evaluations"))
        return;
    section("cache");
    auto row = [&](const char *label, const char *key) {
        if (const JsonValue *v = engine.find(key))
            std::printf("  %-18s %lld\n", label,
                        static_cast<long long>(v->asInt()));
    };
    row("evaluations", "evaluations");
    // Artifacts written while the engine had a result memo carry its
    // counters; newer ones do not.
    const JsonValue *hits = engine.find("cache_hits");
    const JsonValue *misses = engine.find("cache_misses");
    if (hits && misses) {
        row("cache hits", "cache_hits");
        row("cache misses", "cache_misses");
        const double h = hits->asDouble();
        const double m = misses->asDouble();
        if (h + m > 0)
            std::printf("  %-18s %.1f%%\n", "hit rate",
                        100.0 * h / (h + m));
    }
    row("evictions", "evictions");
    row("scratch reuses", "scratch_reuses");
    row("invalid mappings", "invalid_mappings");
    row("prunes", "prunes");
    row("batches", "batches");
}

void
printRunSummary(const JsonValue &result)
{
    section("run summary");
    if (const JsonValue *m = result.find("mapper")) {
        // Single-layer map document.
        std::printf("  mapper         %s\n", m->asString().c_str());
        if (const JsonValue *v = result.find("found"))
            std::printf("  found          %s\n",
                        v->asBool() ? "yes" : "no");
        if (const JsonValue *v = result.find("stop_reason"))
            std::printf("  stop reason    %s\n", v->asString().c_str());
        if (const JsonValue *v = result.find("seconds"))
            std::printf("  search time    %.3f s\n", v->asDouble());
        if (const JsonValue *v = result.find("mappings_evaluated"))
            std::printf("  evaluations    %lld\n",
                        static_cast<long long>(v->asInt()));
        if (const JsonValue *v = result.find("edp"))
            std::printf("  best EDP       %.6g J*s\n", v->asDouble());
        return;
    }
    // Network-schedule document.
    if (const JsonValue *v = result.find("stopReason"))
        std::printf("  stop reason    %s\n", v->asString().c_str());
    if (const JsonValue *v = result.find("layersTotal"))
        std::printf("  layers         %lld",
                    static_cast<long long>(v->asInt()));
    if (const JsonValue *v = result.find("layersUnique"))
        std::printf(" (%lld unique searched)\n",
                    static_cast<long long>(v->asInt()));
    if (const JsonValue *v = result.find("seconds"))
        std::printf("  schedule time  %.3f s\n", v->asDouble());
    if (const JsonValue *v = result.find("totalEnergyPj"))
        std::printf("  total energy   %.6g pJ\n", v->asDouble());
    if (const JsonValue *v = result.find("totalEdp"))
        std::printf("  total EDP      %.6g J*s\n", v->asDouble());
}

void
printLayers(const JsonValue &result)
{
    const JsonValue *layers = result.find("layers");
    if (!layers || !layers->isArray() || layers->items.empty())
        return;
    section("per-layer outcomes");
    std::printf("  %-16s %6s %-8s %10s %12s %s\n", "layer", "count",
                "via", "evals", "seconds", "stop");
    for (const JsonValue &l : layers->items) {
        const bool dedup =
            l.find("deduplicated") && l.find("deduplicated")->asBool();
        const bool fused = l.find("fused") && l.find("fused")->asBool();
        const char *via = dedup ? "dedup" : fused ? "fused" : "search";
        std::printf("  %-16s %6lld %-8s %10lld %12.3f %s\n",
                    l.find("name") ? l.find("name")->asString().c_str()
                                   : "?",
                    static_cast<long long>(
                        l.find("count") ? l.find("count")->asInt() : 0),
                    via,
                    static_cast<long long>(
                        l.find("candidatesExamined")
                            ? l.find("candidatesExamined")->asInt()
                            : 0),
                    l.find("seconds") ? l.find("seconds")->asDouble() : 0,
                    l.find("stopReason")
                        ? l.find("stopReason")->asString().c_str()
                        : "");
    }
}

void
printFusion(const JsonValue &result)
{
    const JsonValue *fusion = result.find("fusion");
    if (!fusion || !fusion->isObject())
        return;
    section("fusion");
    if (const JsonValue *v = fusion->find("mode"))
        std::printf("  mode           %s\n", v->asString().c_str());
    const auto count = [&](const char *key) {
        const JsonValue *v = fusion->find(key);
        return static_cast<long long>(v ? v->asInt() : 0);
    };
    std::printf("  chains         %lld fusable, %lld fused (%lld ops)\n",
                count("groupsFusable"), count("groupsFused"),
                count("opsFused"));
    const JsonValue *groups = fusion->find("groups");
    if (!groups || !groups->isArray())
        return;
    for (const JsonValue &gr : groups->items) {
        const JsonValue *members = gr.find("members");
        if (!members || !members->isArray() || members->items.size() < 2)
            continue; // singletons carry no decision
        std::string chain;
        for (const JsonValue &m : members->items) {
            if (!chain.empty())
                chain += "+";
            chain += m.asString();
        }
        const bool fused = gr.find("fused") && gr.find("fused")->asBool();
        std::string verdict = fused ? "fused" : "unfused";
        if (const JsonValue *r = gr.find("rejectReason");
            r && !r->asString().empty())
            verdict += " (" + r->asString() + ")";
        std::printf("  %-34s %-18s", chain.c_str(), verdict.c_str());
        if (const JsonValue *s = gr.find("searchSeconds"))
            std::printf(" %9.3f s", s->asDouble());
        if (const JsonValue *e = gr.find("candidatesExamined"))
            std::printf(" %10lld evals",
                        static_cast<long long>(e->asInt()));
        std::printf("\n");
    }
}

void
printSnapshots(const std::string &path)
{
    std::string text;
    if (!loadFile(path, text))
        SUNSTONE_FATAL("cannot read '", path, "'");
    std::istringstream is(text);
    std::string line;
    std::vector<JsonValue> records;
    int torn = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        JsonValue v;
        if (parseJson(line, v))
            records.push_back(std::move(v));
        else
            ++torn;
    }
    section("snapshots");
    std::printf("  records        %zu\n", records.size());
    if (torn)
        std::printf("  torn lines     %d (skipped)\n", torn);
    if (records.empty())
        return;
    const JsonValue &last = records.back();
    const auto totalEvals = [](const JsonValue &rec) {
        std::int64_t n = 0;
        if (const JsonValue *ss = rec.find("searches"); ss && ss->isArray())
            for (const JsonValue &s : ss->items)
                if (const JsonValue *e = s.find("evaluated"))
                    n += e->asInt();
        return n;
    };
    const double span =
        last.find("elapsed_seconds")
            ? last.find("elapsed_seconds")->asDouble()
            : 0;
    std::printf("  covers         %.1f s\n", span);
    if (const JsonValue *u = last.find("units"))
        std::printf("  units          %lld/%lld done\n",
                    static_cast<long long>(
                        u->find("done") ? u->find("done")->asInt() : 0),
                    static_cast<long long>(
                        u->find("total") ? u->find("total")->asInt()
                                         : 0));
    const std::int64_t evals = totalEvals(last);
    std::printf("  evaluations    %lld", static_cast<long long>(evals));
    if (span > 0)
        std::printf(" (%.0f/s overall)", evals / span);
    std::printf("\n");
    if (const JsonValue *ss = last.find("searches");
        ss && ss->isArray() && !ss->items.empty()) {
        std::printf("  searches       %zu\n", ss->items.size());
        for (const JsonValue &s : ss->items) {
            const bool done =
                s.find("done") && s.find("done")->asBool();
            std::printf("    %-28s %10lld evals  %s%s\n",
                        s.find("label")
                            ? s.find("label")->asString().c_str()
                            : "?",
                        static_cast<long long>(
                            s.find("evaluated")
                                ? s.find("evaluated")->asInt()
                                : 0),
                        done ? "done" : "running",
                        done && s.find("stop_reason")
                            ? (" (" + s.find("stop_reason")->asString() +
                               ")")
                                  .c_str()
                            : "");
        }
    }
}

void
printConvergence(const JsonValue &doc)
{
    const JsonValue *trajs = doc.find("trajectories");
    if (!trajs || !trajs->isArray() || trajs->items.empty())
        return;
    section("convergence");
    for (const JsonValue &t : trajs->items) {
        const JsonValue *pts = t.find("points");
        const std::size_t n =
            pts && pts->isArray() ? pts->items.size() : 0;
        std::printf("  %-34s %4zu improvements",
                    t.find("name") ? t.find("name")->asString().c_str()
                                   : "?",
                    n);
        if (n > 0) {
            const JsonValue &fin = pts->items.back();
            std::printf("  final metric %.6g at %lld evals",
                        fin.find("metric")
                            ? fin.find("metric")->asDouble()
                            : 0,
                        static_cast<long long>(
                            fin.find("evaluations")
                                ? fin.find("evaluations")->asInt()
                                : 0));
        }
        std::printf("\n");
    }
}

/**
 * Time-to-quality per trajectory (DESIGN.md §15): the evaluation count
 * and wall-clock at which the incumbent first came within 1% and 5% of
 * the trajectory's final metric.
 */
void
printTimeToQuality(const JsonValue &doc)
{
    const JsonValue *trajs = doc.find("trajectories");
    if (!trajs || !trajs->isArray() || trajs->items.empty())
        return;
    section("time to quality");
    std::printf("  %-34s %10s %10s %12s %12s\n", "trajectory",
                "to 5% (ev)", "to 1% (ev)", "to 1% (s)", "final");
    for (const JsonValue &t : trajs->items) {
        const JsonValue *pts = t.find("points");
        if (!pts || !pts->isArray() || pts->items.empty())
            continue;
        std::vector<obs::ConvergencePoint> points;
        points.reserve(pts->items.size());
        for (const JsonValue &p : pts->items) {
            obs::ConvergencePoint cp;
            if (const JsonValue *v = p.find("seconds"))
                cp.seconds = v->asDouble();
            if (const JsonValue *v = p.find("evaluations"))
                cp.evaluations = v->asInt();
            if (const JsonValue *v = p.find("metric"))
                cp.metric = v->asDouble();
            points.push_back(cp);
        }
        const obs::TimeToQuality q = obs::timeToQuality(points);
        std::printf("  %-34s %10lld %10lld %12.3f %12.6g\n",
                    t.find("name") ? t.find("name")->asString().c_str()
                                   : "?",
                    static_cast<long long>(q.evalsTo5pct),
                    static_cast<long long>(q.evalsTo1pct),
                    q.secondsTo1pct, q.finalMetric);
    }
}

/**
 * Warm-start counters from the flat metrics registry
 * ("search.<mapper>.warmstart.*" keys).
 */
void
printWarmStart(const JsonValue &metricsDoc)
{
    const JsonValue *reg = metricsDoc.find("registry");
    if (!reg || !reg->isObject())
        return;
    std::vector<std::pair<std::string, double>> rows;
    for (const auto &[name, v] : reg->fields)
        if (name.find(".warmstart.") != std::string::npos)
            rows.emplace_back(name, v.asDouble());
    if (rows.empty())
        return;
    section("warm start");
    std::sort(rows.begin(), rows.end());
    for (const auto &[name, v] : rows)
        std::printf("  %-40s %.6g\n", name.c_str(), v);
}

void
printTrace(const JsonValue &doc)
{
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return;
    // Aggregate complete ("X") spans by name.
    std::map<std::string, std::pair<std::int64_t, double>> byName;
    for (const JsonValue &e : events->items) {
        const JsonValue *ph = e.find("ph");
        if (!ph || ph->asString() != "X")
            continue;
        const std::string name =
            e.find("name") ? e.find("name")->asString() : "?";
        auto &[count, us] = byName[name];
        ++count;
        if (const JsonValue *d = e.find("dur"))
            us += d->asDouble();
    }
    if (byName.empty())
        return;
    section("trace spans");
    std::vector<std::pair<std::string, std::pair<std::int64_t, double>>>
        rows(byName.begin(), byName.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.second > b.second.second;
    });
    const std::size_t shown = std::min<std::size_t>(rows.size(), 15);
    for (std::size_t i = 0; i < shown; ++i)
        std::printf("  %-40s %6lld x %12.3f ms total\n",
                    rows[i].first.c_str(),
                    static_cast<long long>(rows[i].second.first),
                    rows[i].second.second / 1000.0);
    if (rows.size() > shown)
        std::printf("  ... %zu more span names\n", rows.size() - shown);
}

void
printFlightEvents(const std::string &path)
{
    std::string text;
    if (!loadFile(path, text))
        return;
    std::istringstream is(text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    if (lines.empty())
        return;
    section("flight events");
    std::printf("  %zu events retained; most recent last:\n",
                lines.size());
    const std::size_t shown = std::min<std::size_t>(lines.size(), 20);
    for (std::size_t i = lines.size() - shown; i < lines.size(); ++i) {
        JsonValue v;
        if (!parseJson(lines[i], v))
            continue;
        std::printf("  %12.3f s  %-20s %s\n",
                    (v.find("ns") ? v.find("ns")->asDouble() : 0) / 1e9,
                    v.find("kind") ? v.find("kind")->asString().c_str()
                                   : "?",
                    v.find("detail")
                        ? v.find("detail")->asString().c_str()
                        : "");
    }
}

} // anonymous namespace

int
run(const std::map<std::string, std::string> &kv)
{
    const auto get = [&](const char *k) {
        auto it = kv.find(k);
        return it == kv.end() ? std::string() : it->second;
    };
    std::string statsPath = get("stats-json");
    std::string metricsPath = get("metrics-json");
    std::string snapshotPath = get("snapshot-json");
    std::string convergencePath = get("convergence-json");
    std::string tracePath = get("trace-json");
    const std::string diagDir = get("diag-dir");

    if (statsPath.empty() && metricsPath.empty() &&
        snapshotPath.empty() && convergencePath.empty() &&
        tracePath.empty() && diagDir.empty()) {
        std::printf(
            "usage: sunstone report [--stats-json F] [--metrics-json F]\n"
            "                       [--snapshot-json F] "
            "[--convergence-json F]\n"
            "                       [--trace-json F] [--diag-dir D]\n");
        return 2;
    }

    std::printf("sunstone report\n");

    JsonValue stats, metricsDoc, diagMetrics, diagEngine;
    const bool haveStats =
        !statsPath.empty() && loadJson(statsPath, stats);
    if (!statsPath.empty() && !haveStats)
        SUNSTONE_FATAL("cannot read '", statsPath, "'");
    const bool haveMetrics =
        !metricsPath.empty() && loadJson(metricsPath, metricsDoc);
    if (!metricsPath.empty() && !haveMetrics)
        SUNSTONE_FATAL("cannot read '", metricsPath, "'");

    if (!diagDir.empty()) {
        std::string crash;
        if (loadFile(diagDir + "/crash.txt", crash)) {
            section("diag bundle");
            std::printf("  %s", crash.c_str());
        }
        loadJson(diagDir + "/metrics.json", diagMetrics);
        loadJson(diagDir + "/engine.json", diagEngine);
    }

    // The engine document can arrive through --stats-json,
    // --metrics-json, or a diag bundle; first supplier wins.
    const JsonValue *engine = nullptr;
    if (haveStats)
        engine = stats.find("engine");
    if (!engine && haveMetrics)
        engine = metricsDoc.find("engine");
    if (!engine)
        engine = diagEngine.find("engine");

    if (haveStats)
        if (const JsonValue *result = stats.find("result")) {
            printRunSummary(*result);
            printLayers(*result);
            printFusion(*result);
        }
    if (engine) {
        printEvalLatency(*engine);
        printCache(*engine);
    }
    if (!snapshotPath.empty())
        printSnapshots(snapshotPath);
    if (!convergencePath.empty()) {
        JsonValue conv;
        if (!loadJson(convergencePath, conv))
            SUNSTONE_FATAL("cannot read '", convergencePath, "'");
        printConvergence(conv);
        printTimeToQuality(conv);
    }
    if (haveMetrics)
        printWarmStart(metricsDoc);
    else if (!diagDir.empty())
        printWarmStart(diagMetrics);
    if (!tracePath.empty() || !diagDir.empty()) {
        JsonValue trace;
        const std::string tp =
            !tracePath.empty() ? tracePath : diagDir + "/trace.json";
        if (loadJson(tp, trace))
            printTrace(trace);
        else if (!tracePath.empty())
            SUNSTONE_FATAL("cannot read '", tracePath, "'");
    }
    if (!diagDir.empty())
        printFlightEvents(diagDir + "/events.jsonl");
    return 0;
}

} // namespace report
} // namespace sunstone
