/**
 * @file
 * Command-line front end to the library. Since the service-core
 * extraction (DESIGN.md §16) this file is exactly what a front end
 * should be: argv parsing into a service::MappingRequest, one
 * SchedulerSession call, and rendering of the response — the search
 * orchestration, signal handling, artifact sinks, and warm-start
 * plumbing all live in src/service/. Subcommands:
 *
 *   sunstone describe --einsum "<expr>" --dims k=64,c=32,...
 *       Print the inferred reuse table (Table III style).
 *
 *   sunstone map [workload opts] [--arch NAME|--arch-file F]
 *                [--mapper sunstone|timeloop|dmaze|inter|cosa|gamma|
 *                 exhaustive]
 *                [--energy] [--save-mapping F] [--save-workload F]
 *                [--stats-json F] [--trace-json F] [--metrics-json F]
 *                [--convergence-json F] [--threads N]
 *                [--deadline-ms N] [--max-evals N] [--plateau N]
 *                [--seed S] [--stop-policy F]
 *                [--checkpoint F] [--resume F]
 *       Search for a dataflow and print it with its cost breakdown.
 *
 * Search control (both map modes; see DESIGN.md §12): every search runs
 * under one StopPolicy enforced by the shared SearchDriver —
 *   --deadline-ms N    wall-clock budget (negative: expire immediately)
 *   --max-evals N      total candidate evaluations
 *   --plateau N        stop after N consecutive non-improving evals
 *   --seed S           RNG seed (results are identical at any --threads)
 *   --stop-policy F    text config (deadline_ms/max_evals/plateau/
 *                      max_consecutive_invalid/seed)
 *   --checkpoint F     periodically snapshot resumable search state
 *   --resume F         continue from a snapshot written by --checkpoint
 * SIGINT/SIGTERM raise the cooperative cancellation flag (see
 * src/service/signals.hh for the escalation ladder): the search stops
 * at the next batch boundary, writes a final checkpoint, and the
 * best-so-far result is reported with stop reason "cancelled".
 *
 * Warm starting (both map modes; DESIGN.md §15):
 *   --warmstart-store F   persistent best-mapping store; searches are
 *                         seeded from stored bests of structurally
 *                         similar layers and realized bests are
 *                         recorded back (file created when missing)
 *
 *   sunstone map --net NAME [--batch N] [--seq N] [--fuse off|greedy]
 *                [--arch ...] [--stats-json F]
 *                [--trace-json F] [--metrics-json F]
 *                [--convergence-json F]
 *       Schedule a whole network (resnet18, resnet18-fused, inception,
 *       inception-wu, alexnet, vgg16, nondnn, tcl, attention,
 *       depthwise) through the network scheduler: identical layers are
 *       deduplicated and the per-net aggregate energy/delay/EDP is
 *       reported. --seq sets the attention sequence length. With
 *       --fuse greedy, producer→consumer chains of the net's DAG whose
 *       intermediate tensors fit on chip are additionally searched as
 *       fused subgraphs (intermediates pinned on chip, DRAM traffic
 *       dropped) and each chain keeps whichever variant wins; --fuse
 *       off (the default) reproduces per-layer results exactly.
 *
 * Observability sinks (both map modes; see DESIGN.md §9):
 *   --stats-json F        one document {"result": ..., "engine": ...}
 *                         with the search outcome and the evaluation
 *                         engine's counters and latency statistics
 *   --trace-json F        Chrome trace_event JSON of the search's spans
 *                         (load into https://ui.perfetto.dev)
 *   --metrics-json F      {"engine": ..., "registry": ...} counters,
 *                         gauges, and histograms
 *   --convergence-json F  incumbent-vs-evaluations trajectories
 * --threads defaults to hardware_concurrency clamped to [2, 8] (the
 *   session's default pool size).
 *
 * Live telemetry (both map modes; see DESIGN.md §14):
 *   --progress            throttled single-line progress on stderr
 *   --snapshot-json F     append-only JSONL time series of the metrics
 *                         registry + live per-search state
 *   --snapshot-interval-ms N  snapshot period (default 1000)
 *   --diag-dir D          on fatal signals, std::terminate, repeated
 *                         SIGINT/SIGTERM, or cancelled exit, write a
 *                         diagnostics bundle into D
 * A second SIGINT/SIGTERM while the cooperative cancellation is still
 * draining force-flushes all telemetry sinks and exits immediately.
 *
 *   sunstone serve [--threads N] [--warmstart-store F]
 *                  [--queue-capacity N] [--metrics-json F]
 *       Long-lived scheduler session over newline-delimited JSON on
 *       stdin/stdout: one MappingRequest object per line in, one
 *       MappingResponse per line out (src/service/request.hh is the
 *       schema; field values are the same strings the map flags take).
 *       Identical deterministic requests are deduplicated against the
 *       session's result cache (`"cached": true` in the response, with
 *       `engine_delta.evaluations` 0).
 *       A {"kind": "health"} line scrapes session/engine/registry
 *       metrics. EOF or SIGINT/SIGTERM shuts down cleanly (exit 0);
 *       --metrics-json captures the final health document.
 *
 *   sunstone report [--stats-json F] [--metrics-json F]
 *                   [--snapshot-json F] [--convergence-json F]
 *                   [--trace-json F] [--diag-dir D]
 *       Digest run artifacts offline.
 *
 *   sunstone eval --mapping F [workload opts] [--arch ...]
 *       Re-evaluate a saved mapping.
 *
 *   sunstone arch --arch NAME [--save F]
 *       Print (or save) a preset architecture config.
 *
 *   sunstone check [--trials N] [--seed S] [--no-shrink]
 *                  [--repro-prefix P] [--inject-fault top-level-reads]
 *       Differential-fuzz the analytical cost model against the
 *       loop-nest oracle on random (workload, arch, mapping) triples.
 *
 * Workload options: --einsum/--dims/--bits, or --workload-file F, or a
 * preset: --conv n=16,k=64,c=64,p=56,q=56,r=3,s=3[,stride=1].
 * Architectures: conventional (default), simba, eyeriss, diannao, toy,
 * or --arch-file with a config in the arch_config format.
 *
 * Each subcommand accepts only the options it reads (kKnownFlags); any
 * other --option is a fatal usage error naming it, so a misspelled or
 * retired flag never runs silently ignored.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "arch/arch_config.hh"
#include "common/parse.hh"
#include "mapping/serialize.hh"
#include "obs/thread_registry.hh"
#include "service/serve.hh"
#include "service/session.hh"
#include "service/signals.hh"

using namespace sunstone;
using service::ArtifactOptions;
using service::ArtifactSet;
using service::MappingRequest;
using service::MappingResponse;
using service::RequestKind;
using service::SchedulerSession;
using service::ServeOptions;
using service::SessionOptions;
using service::SignalBridge;

namespace {

/** Minimal argv parser: --key value pairs plus the subcommand. */
struct Args
{
    std::string command;
    std::map<std::string, std::string> kv;

    bool has(const std::string &k) const { return kv.count(k) > 0; }
    std::string
    get(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }
};

/**
 * The options each subcommand reads. Mode-conditional ones (--budget is
 * read only for timeloop, --save-mapping only without --net) count as
 * known: they are valid input that the chosen mode ignores.
 */
const std::map<std::string, std::set<std::string>> kKnownFlags = {
    {"describe",
     {"workload-file", "conv", "einsum", "dims", "bits", "name"}},
    {"map",
     {"workload-file", "conv", "einsum", "dims", "bits", "name", "arch",
      "arch-file", "mapper", "energy", "beam", "budget", "stop-policy",
      "deadline-ms", "max-evals", "plateau", "seed", "checkpoint",
      "resume", "warmstart-store", "net", "batch", "seq", "fuse",
      "threads", "save-mapping", "save-workload", "stats-json",
      "trace-json", "metrics-json", "convergence-json", "snapshot-json",
      "snapshot-interval-ms", "progress", "diag-dir"}},
    {"eval",
     {"workload-file", "conv", "einsum", "dims", "bits", "name", "arch",
      "arch-file", "mapping", "threads"}},
    {"arch", {"arch", "arch-file", "save"}},
    {"check", {"trials", "seed", "no-shrink", "inject-fault",
               "repro-prefix", "threads"}},
    {"serve", {"threads", "warmstart-store", "queue-capacity",
               "metrics-json"}},
    {"report", {"stats-json", "metrics-json", "snapshot-json",
                "convergence-json", "trace-json", "diag-dir"}},
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc >= 2 && argv[1][0] != '-')
        a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            SUNSTONE_FATAL("expected --option, got '", key, "'");
        key = key.substr(2);
        std::string value = "1";
        // Only a following "--option" is not a value; a lone "-" or a
        // negative number ("--budget -0.5") is.
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            value = argv[++i];
        a.kv[key] = value;
    }
    const auto known = kKnownFlags.find(a.command);
    if (known != kKnownFlags.end())
        for (const auto &[key, value] : a.kv)
            if (!known->second.count(key))
                SUNSTONE_FATAL("unknown option --", key, " for '",
                               a.command, "'");
    return a;
}

/**
 * Parses a strictly positive integer flag; fatal() with the offending
 * text on junk, trailing garbage, overflow, or values <= 0 (the zoo
 * builders would otherwise build degenerate shapes from them). The
 * shared validator for every positive-integer flag — --threads, --beam,
 * --snapshot-interval-ms, --batch, --seq — so zero, negative, overflown,
 * and garbage values all die with the same clean usage error instead of
 * an uncaught std::stoi exception.
 */
std::int64_t
positiveArg(const Args &a, const char *name)
{
    const std::string v = a.get(name);
    std::int64_t x = 0;
    if (!tryParseInt64(v, x))
        SUNSTONE_FATAL("--", name, " expects a positive integer, got '",
                       v, "'");
    if (x <= 0)
        SUNSTONE_FATAL("--", name, " must be > 0, got '", v, "'");
    return x;
}

/** positiveArg with an inclusive upper bound, for flags that feed
 *  fixed-width consumers (thread counts, beam widths, intervals). */
std::int64_t
positiveArg(const Args &a, const char *name, std::int64_t max_value)
{
    const std::int64_t x = positiveArg(a, name);
    if (x > max_value)
        SUNSTONE_FATAL("--", name, " must be <= ", max_value, ", got '",
                       a.get(name), "'");
    return x;
}

/**
 * Parses a finite double flag; fatal() on junk, trailing garbage, or
 * inf/nan. Negative values pass — "--budget -0.5" is a legal
 * instantly-expiring budget (see test_cli OptionValuesMayBeNegative-
 * Numbers).
 */
double
finiteArg(const Args &a, const char *name)
{
    const std::string v = a.get(name);
    double x = 0;
    if (!tryParseDouble(v, x))
        SUNSTONE_FATAL("--", name, " expects a finite number, got '", v,
                       "'");
    return x;
}

unsigned
threadsFromArgs(const Args &a)
{
    // 0 selects SchedulerSession's default pool size.
    if (!a.has("threads"))
        return 0;
    return static_cast<unsigned>(positiveArg(a, "threads", 4096));
}

/** Maps the shared map/eval/net flags onto the request schema. */
MappingRequest
requestFromArgs(const Args &a)
{
    MappingRequest req;

    req.workloadFile = a.get("workload-file");
    req.conv = a.get("conv");
    req.einsum = a.get("einsum");
    req.dims = a.get("dims");
    req.bits = a.get("bits");
    req.workloadName = a.get("name");

    req.archName = a.get("arch", "conventional");
    req.archFile = a.get("arch-file");

    req.mapper = a.get("mapper", "sunstone");
    req.optimizeEdp = !a.has("energy");
    if (a.has("beam"))
        req.beamWidth =
            static_cast<int>(positiveArg(a, "beam", 1 << 30));
    // --budget is a timeloop-only knob; other mappers historically
    // ignored it, so it is not even parsed for them.
    if (req.mapper == "timeloop" && a.has("budget"))
        req.budgetSeconds = finiteArg(a, "budget");

    req.stopPolicyFile = a.get("stop-policy");
    if (a.has("deadline-ms"))
        req.deadlineMs = finiteArg(a, "deadline-ms");
    std::int64_t v;
    if (a.has("max-evals")) {
        if (!tryParseInt64(a.get("max-evals"), v) || v < 1)
            SUNSTONE_FATAL("--max-evals needs a positive integer");
        req.maxEvals = v;
    }
    if (a.has("plateau")) {
        if (!tryParseInt64(a.get("plateau"), v) || v < 1)
            SUNSTONE_FATAL("--plateau needs a positive integer");
        req.plateau = v;
    }
    if (a.has("seed")) {
        if (!tryParseInt64(a.get("seed"), v) || v < 0)
            SUNSTONE_FATAL("--seed needs a non-negative integer");
        req.seed = static_cast<std::uint64_t>(v);
    }
    req.checkpointPath = a.get("checkpoint");
    req.resumePath = a.get("resume");

    // --warmstart-store both names the session's store (below) and opts
    // the request into seeding, exactly the old coupled behavior.
    req.warmStart = a.has("warmstart-store");

    req.net = a.get("net");
    if (a.has("batch"))
        req.batch = positiveArg(a, "batch");
    if (a.has("seq"))
        req.seq = positiveArg(a, "seq");
    req.fuse = a.get("fuse", "off");

    req.mappingFile = a.get("mapping");
    return req;
}

SessionOptions
sessionOptionsFromArgs(const Args &a)
{
    SessionOptions o;
    o.threads = threadsFromArgs(a);
    o.warmStartPath = a.get("warmstart-store");
    o.logSink = [](const std::string &s) {
        std::printf("%s\n", s.c_str());
    };
    return o;
}

ArtifactOptions
artifactOptionsFromArgs(const Args &a)
{
    ArtifactOptions o;
    o.statsJsonPath = a.get("stats-json");
    o.tracePath = a.get("trace-json");
    o.metricsPath = a.get("metrics-json");
    o.convergencePath = a.get("convergence-json");
    o.snapshotPath = a.get("snapshot-json");
    if (a.has("snapshot-interval-ms"))
        o.snapshotIntervalMs = static_cast<int>(
            positiveArg(a, "snapshot-interval-ms", 1 << 30));
    o.progress = a.has("progress");
    o.diagDir = a.get("diag-dir");
    return o;
}

void
printReuseTable(const Workload &wl)
{
    std::printf("workload: %s\n\n", wl.toString().c_str());
    std::printf("%-10s | %-14s | %-14s | %s\n", "tensor", "indexed by",
                "reused by", "partially reused by");
    auto render = [&](DimSet s) {
        std::string out;
        for (DimId d : s) {
            if (!out.empty())
                out += ",";
            out += wl.dimName(d);
        }
        return out.empty() ? std::string("-") : out;
    };
    for (TensorId t = 0; t < wl.numTensors(); ++t) {
        const TensorReuse &r = wl.reuse(t);
        std::printf("%-10s | %-14s | %-14s | %s\n",
                    wl.tensor(t).name.c_str(), render(r.indexing).c_str(),
                    render(r.fullyReusedBy).c_str(),
                    render(r.partiallyReusedBy).c_str());
    }
}

void
printCost(const BoundArch &ba, const CostResult &cost)
{
    std::printf("energy  %.6g pJ\ndelay   %.6g s\nEDP     %.6g J*s\n"
                "util    %.1f%%  (bound by %s)\n",
                cost.totalEnergyPj, cost.delaySeconds, cost.edp,
                100.0 * cost.utilization, cost.bottleneck.c_str());
    std::printf("per-level energy:");
    for (int l = 0; l < ba.numLevels(); ++l)
        std::printf(" %s=%.4g", ba.arch().levels[l].name.c_str(),
                    cost.levelEnergyPj[l]);
    std::printf(" MAC=%.4g NoC=%.4g\n", cost.macEnergyPj,
                cost.nocEnergyPj);
}

int
cmdDescribe(const Args &a)
{
    printReuseTable(service::materializeWorkload(requestFromArgs(a)));
    return 0;
}

int
cmdMapNet(const Args &a)
{
    MappingRequest req = requestFromArgs(a);
    req.kind = RequestKind::Net;

    SchedulerSession session(sessionOptionsFromArgs(a));
    SignalBridge::instance().install();
    SignalBridge::instance().attach(&session.cancellation());
    ArtifactSet artifacts(artifactOptionsFromArgs(a), session.engine());

    const MappingResponse resp = session.execute(req, &artifacts);
    const NetScheduleResult &r = *resp.net;

    std::printf("%-12s | %5s | %10s | %12s | %8s | %s\n", "layer",
                "count", "EDP", "energy pJ", "time s", "via");
    for (const auto &l : r.layers) {
        const char *via = l.deduplicated ? "dedup"
                          : l.fused      ? "fused"
                                         : "search";
        if (l.found)
            std::printf("%-12s | %5d | %10.3g | %12.4g | %8.3f | %s\n",
                        l.name.c_str(), l.count, l.cost.edp,
                        l.cost.totalEnergyPj, l.seconds, via);
        else
            std::printf("%-12s | %5d | %10s | %12s | %8.3f | %s\n",
                        l.name.c_str(), l.count, "invalid", "-",
                        l.seconds, via);
    }
    std::printf("\nnetwork: %d layers (%d unique searched)\n",
                r.layersTotal, r.layersUnique);
    if (!r.fusionMode.empty())
        std::printf("fusion: %d of %d fusable chains fused (%d ops "
                    "scheduled fused)\n",
                    r.groupsFused, r.groupsFusable, r.opsFused);
    std::printf("total energy %.6g pJ, total delay %.6g s, "
                "EDP %.6g J*s\n",
                r.totalEnergyPj, r.totalDelaySeconds, r.totalEdp);
    const SearchStats engine = session.engine().stats();
    std::printf("engine: %lld evaluations, %lld prunes (%.2f s)\n",
                static_cast<long long>(engine.evaluations),
                static_cast<long long>(engine.prunes), r.seconds);
    if (a.has("stats-json"))
        artifacts.writeStats("{\"result\": " + r.toJson() +
                             ", \"engine\": " + engine.toJson() + "}");
    artifacts.writeFinal();
    return r.allFound ? 0 : 1;
}

int
cmdMap(const Args &a)
{
    if (a.has("net")) {
        // --net always runs the Sunstone network scheduler; a --mapper
        // flag would be silently ignored, so reject the combination.
        if (a.has("mapper"))
            SUNSTONE_FATAL("--mapper cannot be combined with --net; "
                           "network search always uses the Sunstone "
                           "scheduler");
        return cmdMapNet(a);
    }
    MappingRequest req = requestFromArgs(a);
    req.kind = RequestKind::Map;

    SchedulerSession session(sessionOptionsFromArgs(a));
    SignalBridge::instance().install();
    SignalBridge::instance().attach(&session.cancellation());
    ArtifactSet artifacts(artifactOptionsFromArgs(a), session.engine());

    const MappingResponse resp = session.execute(req, &artifacts);
    const MapperResult &mr = resp.result;

    if (a.has("stats-json"))
        artifacts.writeStats("{\"result\": " + resp.resultJson() +
                             ", \"engine\": " +
                             session.engine().stats().toJson() + "}");
    artifacts.writeFinal();

    if (!mr.found) {
        std::printf("no valid mapping found: %s\n",
                    mr.invalidReason.c_str());
        return 1;
    }
    std::printf("mapper  %s (%.3f s, %lld candidates, stop: %s)\n\n",
                req.mapper.c_str(), mr.seconds,
                static_cast<long long>(mr.mappingsEvaluated),
                mr.stopReason.empty() ? "exhausted"
                                      : mr.stopReason.c_str());
    std::printf("%s\n", resp.mappingText.c_str());
    BoundArch ba(*resp.arch, *resp.workload);
    printCost(ba, mr.cost);
    if (a.has("save-mapping"))
        saveMappingFile(mr.mapping, ba, a.get("save-mapping"));
    if (a.has("save-workload"))
        saveWorkloadFile(*resp.workload, a.get("save-workload"));
    return 0;
}

int
cmdEval(const Args &a)
{
    MappingRequest req = requestFromArgs(a);
    req.kind = RequestKind::Eval;

    SchedulerSession session(sessionOptionsFromArgs(a));
    const MappingResponse resp = session.execute(req);

    if (!resp.result.found) {
        std::printf("mapping is INVALID: %s\n",
                    resp.result.cost.invalidReason.c_str());
        return 1;
    }
    std::printf("%s\n", resp.mappingText.c_str());
    BoundArch ba(*resp.arch, *resp.workload);
    printCost(ba, resp.result.cost);
    return 0;
}

int
cmdArch(const Args &a)
{
    ArchSpec arch = service::materializeArch(requestFromArgs(a));
    if (a.has("save")) {
        saveArchFile(arch, a.get("save"));
        std::printf("wrote %s\n", a.get("save").c_str());
    } else {
        std::printf("%s", archToText(arch).c_str());
    }
    return 0;
}

int
cmdCheck(const Args &a)
{
    MappingRequest req;
    req.kind = RequestKind::Check;
    std::int64_t v;
    if (a.has("trials")) {
        if (!tryParseInt64(a.get("trials"), v) || v < 1)
            SUNSTONE_FATAL("--trials needs a positive integer");
        req.checkTrials = static_cast<int>(v);
    }
    if (a.has("seed")) {
        if (!tryParseInt64(a.get("seed"), v) || v < 0)
            SUNSTONE_FATAL("--seed needs a non-negative integer");
        req.checkSeed = static_cast<std::uint64_t>(v);
    }
    req.checkShrink = !a.has("no-shrink");
    req.checkFault = a.get("inject-fault");

    SchedulerSession session(sessionOptionsFromArgs(a));
    const MappingResponse resp = session.execute(req);
    const DiffcheckReport &rep = *resp.check;

    if (rep.ok()) {
        std::printf("check: %d trials, model and oracle agree\n",
                    rep.trialsRun);
        return 0;
    }

    const DiffcheckMismatch &mm = rep.first;
    std::printf("check: FAILED -- %s\n", mm.summary.c_str());
    std::printf("--- minimized workload ---\n%s", mm.workloadText.c_str());
    std::printf("--- minimized arch ---\n%s", mm.archText.c_str());
    std::printf("--- minimized mapping ---\n%s", mm.mappingText.c_str());
    if (a.has("repro-prefix")) {
        const std::string p = a.get("repro-prefix");
        const auto dump = [](const std::string &path,
                             const std::string &text) {
            std::ofstream f(path);
            if (!f)
                SUNSTONE_FATAL("cannot write '", path, "'");
            f << text;
        };
        dump(p + ".workload", mm.workloadText);
        dump(p + ".arch", mm.archText);
        dump(p + ".mapping", mm.mappingText);
        std::printf("repro written to %s.{workload,arch,mapping}\n",
                    p.c_str());
    }
    return 1;
}

int
cmdServe(const Args &a)
{
    ServeOptions o;
    o.session.threads = threadsFromArgs(a);
    o.session.warmStartPath = a.get("warmstart-store");
    if (a.has("queue-capacity"))
        o.session.queueCapacity = static_cast<std::size_t>(
            positiveArg(a, "queue-capacity", 1 << 20));
    o.metricsPath = a.get("metrics-json");
    return service::runServe(o);
}

void
usage()
{
    std::printf(
        "usage: sunstone <describe|map|eval|arch|check|serve|"
        "report> [options]\n"
        "see the header of tools/sunstone_cli.cc for the full option "
        "list\n");
}

} // anonymous namespace

namespace sunstone {
namespace report {
// Implemented in tools/report.cc (compiled into this binary).
int run(const std::map<std::string, std::string> &kv);
} // namespace report
} // namespace sunstone

int
main(int argc, char **argv)
{
    obs::registerThisThread("main");
    Args a = parseArgs(argc, argv);
    if (a.command == "describe")
        return cmdDescribe(a);
    if (a.command == "map")
        return cmdMap(a);
    if (a.command == "eval")
        return cmdEval(a);
    if (a.command == "arch")
        return cmdArch(a);
    if (a.command == "check")
        return cmdCheck(a);
    if (a.command == "serve")
        return cmdServe(a);
    if (a.command == "report")
        return sunstone::report::run(a.kv);
    usage();
    return a.command.empty() ? 1 : 2;
}
