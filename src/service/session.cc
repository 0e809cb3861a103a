#include "service/session.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "core/net_scheduler.hh"
#include "core/sunstone.hh"
#include "mappers/cosa_mapper.hh"
#include "mappers/dmaze_mapper.hh"
#include "mappers/exhaustive_mapper.hh"
#include "mappers/gamma_mapper.hh"
#include "mappers/interstellar_mapper.hh"
#include "mappers/timeloop_mapper.hh"
#include "mapping/serialize.hh"
#include "obs/metrics.hh"
#include "obs/thread_registry.hh"
#include "search/checkpoint.hh"
#include "search/stop_policy.hh"
#include "service/signals.hh"

namespace sunstone {
namespace service {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // anonymous namespace

SchedulerSession::SchedulerSession(SessionOptions opts)
    : opts_(std::move(opts))
{
    threads_ = opts_.threads != 0
                   ? opts_.threads
                   // The CLI's historical default: a small pool so traces
                   // show real parallelism even where
                   // hardware_concurrency() reports 1 (CI containers).
                   : std::clamp(std::thread::hardware_concurrency(), 2u,
                                8u);
    engine_ = std::make_unique<EvalEngine>(threads_);
    if (!opts_.warmStartPath.empty()) {
        std::string err;
        std::ifstream probe(opts_.warmStartPath);
        if (probe.good() && !warmStore_.load(opts_.warmStartPath, &err))
            SUNSTONE_FATAL("bad --warmstart-store '", opts_.warmStartPath,
                           "': ", err);
    }
    worker_ = std::thread([this] { workerLoop(); });
}

SchedulerSession::~SchedulerSession()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    // Reject whatever the worker never reached.
    for (auto &p : queue_) {
        MappingResponse resp;
        resp.id = p.req.id;
        resp.kind = p.req.kind;
        resp.error = "session shut down";
        p.promise.set_value(std::move(resp));
    }
}

std::future<MappingResponse>
SchedulerSession::submit(MappingRequest req, ArtifactSet *artifacts)
{
    Pending p;
    p.req = std::move(req);
    p.artifacts = artifacts;
    std::future<MappingResponse> fut = p.promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (stopping_ || queue_.size() >= opts_.queueCapacity) {
            ++counters_.rejected;
            MappingResponse resp;
            resp.id = p.req.id;
            resp.kind = p.req.kind;
            resp.error = stopping_ ? "session shut down"
                                   : "queue full (capacity " +
                                         std::to_string(
                                             opts_.queueCapacity) +
                                         ")";
            p.promise.set_value(std::move(resp));
            return fut;
        }
        queue_.push_back(std::move(p));
    }
    cv_.notify_one();
    return fut;
}

MappingResponse
SchedulerSession::execute(const MappingRequest &req, ArtifactSet *artifacts)
{
    return submit(req, artifacts).get();
}

std::size_t
SchedulerSession::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return queue_.size();
}

SessionCounters
SchedulerSession::counters() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return counters_;
}

void
SchedulerSession::workerLoop()
{
    obs::registerThisThread("session");
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lock(mtx_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping; the destructor drains the rest
            p = std::move(queue_.front());
            queue_.pop_front();
        }
        p.promise.set_value(executeNow(p.req, p.artifacts));
    }
}

MappingResponse
SchedulerSession::executeNow(const MappingRequest &req,
                             ArtifactSet *artifacts)
{
    const auto t0 = std::chrono::steady_clock::now();
    const SearchStats before = engine_->stats();

    // Result-cache lookup: a bit-identical repeat of a deterministic
    // request is served from the stored response, paying only a
    // re-validation of its winning mapping(s) through the engine — a
    // guaranteed memo hit, so the client's engine_delta shows the dedup.
    const bool canCache = cacheable(req);
    std::string key;
    if (canCache) {
        key = cacheKey(req);
        std::unique_lock<std::mutex> lock(mtx_);
        auto it = resultCache_.find(key);
        if (it != resultCache_.end()) {
            MappingResponse resp = it->second;
            ++counters_.deduped;
            ++counters_.executed;
            lock.unlock();
            revalidate(req, resp);
            resp.id = req.id;
            resp.cached = true;
            resp.engineDelta = engine_->stats().deltaSince(before);
            resp.seconds = secondsSince(t0);
            return resp;
        }
    }

    MappingResponse resp = dispatch(req, artifacts);
    resp.engineDelta = engine_->stats().deltaSince(before);
    resp.seconds = secondsSince(t0);

    std::lock_guard<std::mutex> lock(mtx_);
    ++counters_.executed;
    if (!resp.ok)
        ++counters_.failed;
    counters_.warmSeeded += resp.warmSeeds;
    if (canCache && resp.ok)
        resultCache_.emplace(std::move(key), resp);
    return resp;
}

MappingResponse
SchedulerSession::dispatch(const MappingRequest &req, ArtifactSet *artifacts)
{
    MappingResponse resp;
    resp.id = req.id;
    resp.kind = req.kind;

    auto run = [&] {
        switch (req.kind) {
        case RequestKind::Map:
            runMap(req, artifacts, resp);
            break;
        case RequestKind::Net:
            runNet(req, artifacts, resp);
            break;
        case RequestKind::Eval:
            runEval(req, resp);
            break;
        case RequestKind::Check:
            runCheck(req, resp);
            break;
        case RequestKind::Health:
            runHealth(resp);
            break;
        }
    };

    if (!opts_.captureFatals) {
        run();
        return resp;
    }
    // Serve mode: a bad request must produce an error response, not kill
    // the session. The capture is thread-local, so only fatals raised on
    // this worker thread (materialization, validation) convert; the CLI
    // path never engages it and keeps its historical exit behavior.
    ScopedFatalCapture capture;
    try {
        run();
    } catch (const FatalError &e) {
        resp.ok = false;
        resp.error = e.what();
    } catch (const std::exception &e) {
        resp.ok = false;
        resp.error = std::string("internal error: ") + e.what();
    }
    return resp;
}

SearchContext
SchedulerSession::makeContext(const MappingRequest &req,
                              obs::ConvergenceRecorder *convergence)
{
    StopPolicy p;
    std::optional<std::uint64_t> seed;
    // The stop-policy file carries the lowest precedence; explicit
    // request fields override it (same layering as the CLI flags).
    if (!req.stopPolicyFile.empty()) {
        std::string err;
        if (!loadStopPolicyFile(req.stopPolicyFile, p, &seed, &err))
            SUNSTONE_FATAL("bad --stop-policy '", req.stopPolicyFile,
                           "': ", err);
    }
    if (req.deadlineMs)
        p.deadlineSeconds = *req.deadlineMs / 1000.0;
    if (req.maxEvals)
        p.maxEvals = *req.maxEvals;
    if (req.plateau)
        p.plateau = *req.plateau;
    if (req.seed)
        seed = req.seed;
    p.cancel = cancel_.flag();

    SearchContext sc(engine_.get(), p, convergence);
    if (seed)
        sc.setSeed(*seed);

    if (!req.checkpointPath.empty())
        sc.setCheckpointPath(req.checkpointPath);
    if (!req.resumePath.empty()) {
        SearchCheckpoint ck;
        std::string err;
        if (!SearchCheckpoint::load(req.resumePath, ck, &err))
            SUNSTONE_FATAL("cannot resume from '", req.resumePath,
                           "': ", err);
        sc.setResume(std::move(ck));
    }
    return sc;
}

void
SchedulerSession::runMap(const MappingRequest &req, ArtifactSet *artifacts,
                         MappingResponse &resp)
{
    Workload wl = materializeWorkload(req);
    ArchSpec arch = materializeArch(req);
    applyArchPrecisions(req, wl);
    BoundArch ba(arch, wl);

    SearchContext sc =
        makeContext(req, artifacts ? artifacts->convergence() : nullptr);

    // Warm starting is an explicit opt-in: seeding changes search
    // results, and the default must stay bit-identical to a cold run.
    if (req.warmStart) {
        std::vector<Mapping> seeds = warmStore_.query(ba);
        resp.warmSeeds = static_cast<int>(seeds.size());
        sc.setWarmStarts(std::move(seeds));
    }

    if (artifacts) {
        SignalBridge::instance().setForceFlush(
            [artifacts] { artifacts->flushBestEffort(); });
        artifacts->start();
    }

    MapperResult mr;
    const bool edp = req.optimizeEdp;
    if (req.mapper == "sunstone") {
        SunstoneOptions opts;
        opts.optimizeEdp = edp;
        if (req.beamWidth > 0)
            opts.beamWidth = req.beamWidth;
        SunstoneResult r = sunstoneOptimize(sc, ba, opts);
        mr.found = r.found;
        mr.mapping = r.mapping;
        mr.cost = r.cost;
        mr.seconds = r.seconds;
        mr.mappingsEvaluated = r.candidatesExamined;
        mr.stopReason = r.stopReason;
        if (!r.found) {
            mr.invalid = true;
            mr.invalidReason = "search produced no valid mapping";
        }
    } else if (req.mapper == "timeloop") {
        TimeloopOptions opts = TimeloopOptions::slow();
        opts.optimizeEdp = edp;
        if (req.budgetSeconds)
            opts.maxSeconds = *req.budgetSeconds;
        mr = TimeloopMapper(opts).optimize(sc, ba);
    } else if (req.mapper == "dmaze") {
        mr = DMazeMapper(DMazeOptions::slow()).optimize(sc, ba);
    } else if (req.mapper == "inter") {
        mr = InterstellarMapper(InterstellarOptions{}).optimize(sc, ba);
    } else if (req.mapper == "cosa") {
        mr = CosaMapper(CosaOptions{}).optimize(sc, ba);
    } else if (req.mapper == "gamma") {
        GammaOptions opts;
        opts.optimizeEdp = edp;
        mr = GammaMapper(opts).optimize(sc, ba);
    } else if (req.mapper == "exhaustive") {
        ExhaustiveOptions opts;
        opts.optimizeEdp = edp;
        mr = ExhaustiveMapper(opts).optimize(sc, ba);
    } else {
        if (artifacts)
            artifacts->stop();
        SignalBridge::instance().setForceFlush(nullptr);
        SUNSTONE_FATAL("unknown mapper '", req.mapper, "'");
    }

    if (artifacts)
        artifacts->stop();
    SignalBridge::instance().setForceFlush(nullptr);

    resp.ok = true;
    resp.mapper = req.mapper;
    resp.result = mr;
    resp.workload = wl;
    resp.arch = arch;
    if (mr.found) {
        resp.mappingText = mr.mapping.toString(ba);
        // Every realized best feeds the session store (that is what
        // keeps later warm_start requests warm); only a configured
        // path persists it.
        if (warmStore_.record(ba, wl.name(), mr.cost.edp, mr.mapping) &&
            !opts_.warmStartPath.empty()) {
            if (!warmStore_.save(opts_.warmStartPath))
                SUNSTONE_FATAL("cannot write '", opts_.warmStartPath,
                               "'");
        }
    }
}

void
SchedulerSession::runNet(const MappingRequest &req, ArtifactSet *artifacts,
                         MappingResponse &resp)
{
    ArchSpec arch = materializeArch(req);
    NetGraph graph = materializeNetGraph(req);
    if (req.archName == "simba" && req.archFile.empty() &&
        req.bits.empty())
        for (int i = 0; i < graph.numNodes(); ++i)
            applySimbaPrecisions(graph.node(i).workload);

    NetSchedulerOptions opts;
    opts.fusion = materializeFusionMode(req);
    opts.warmstartStore = req.warmStart ? opts_.warmStartPath : "";
    opts.sunstone.optimizeEdp = req.optimizeEdp;
    if (req.beamWidth > 0)
        opts.sunstone.beamWidth = req.beamWidth;

    SearchContext sc =
        makeContext(req, artifacts ? artifacts->convergence() : nullptr);

    if (artifacts) {
        SignalBridge::instance().setForceFlush(
            [artifacts] { artifacts->flushBestEffort(); });
        artifacts->start();
    }
    NetScheduleResult r = scheduleNet(sc, arch, graph, opts);
    if (artifacts)
        artifacts->stop();
    SignalBridge::instance().setForceFlush(nullptr);

    resp.ok = true;
    resp.arch = arch;
    resp.net = std::move(r);
}

void
SchedulerSession::runEval(const MappingRequest &req, MappingResponse &resp)
{
    Workload wl = materializeWorkload(req);
    ArchSpec arch = materializeArch(req);
    BoundArch ba(arch, wl);
    if (req.mappingFile.empty())
        SUNSTONE_FATAL("eval needs --mapping <file>");
    Mapping m = loadMappingFile(req.mappingFile, ba);
    const CostResult cost = engine_->evaluate(engine_->context(ba), m);

    resp.ok = true;
    resp.mapper = "eval";
    resp.result.found = cost.valid;
    resp.result.mapping = m;
    resp.result.cost = cost;
    if (!cost.valid) {
        resp.result.invalid = true;
        resp.result.invalidReason = cost.invalidReason;
    }
    resp.mappingText = m.toString(ba);
    resp.workload = wl;
    resp.arch = arch;
}

void
SchedulerSession::runCheck(const MappingRequest &req, MappingResponse &resp)
{
    DiffcheckOptions opts;
    if (req.checkTrials)
        opts.trials = *req.checkTrials;
    if (req.checkSeed)
        opts.seed = *req.checkSeed;
    opts.shrink = req.checkShrink;
    if (req.checkFault == "top-level-reads")
        opts.fault = DiffcheckOptions::Fault::TopLevelReads;
    else if (!req.checkFault.empty())
        SUNSTONE_FATAL("unknown fault '", req.checkFault,
                       "' (known: top-level-reads)");
    if (opts_.logSink)
        opts.log = opts_.logSink;

    resp.check = runDiffcheck(opts);
    resp.ok = true;
}

void
SchedulerSession::runHealth(MappingResponse &resp)
{
    resp.ok = true;
    resp.healthJson = healthJson();
}

std::string
SchedulerSession::healthJson() const
{
    SessionCounters c;
    std::size_t depth, cached;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        c = counters_;
        depth = queue_.size();
        cached = resultCache_.size();
    }
    std::string out = "{\"session\": {";
    out += "\"executed\": " + std::to_string(c.executed);
    out += ", \"failed\": " + std::to_string(c.failed);
    out += ", \"deduped\": " + std::to_string(c.deduped);
    out += ", \"rejected\": " + std::to_string(c.rejected);
    out += ", \"warm_seeded\": " + std::to_string(c.warmSeeded);
    out += ", \"queue_depth\": " + std::to_string(depth);
    out += ", \"queue_capacity\": " +
           std::to_string(opts_.queueCapacity);
    out += ", \"result_cache_entries\": " + std::to_string(cached);
    out += ", \"warmstart_entries\": " +
           std::to_string(warmStore_.size());
    out += ", \"threads\": " + std::to_string(threads_);
    out += "}, \"engine\": " + engine_->stats().toJson();
    out += ", \"registry\": " + obs::metrics().toJson();
    out += "}";
    return out;
}

bool
SchedulerSession::cacheable(const MappingRequest &req)
{
    // Only deterministic, side-effect-free searches may be deduplicated:
    // wall-clock bounds (deadline, budget), resumable/checkpointed runs,
    // external stop-policy files (their contents can change between
    // requests), and warm-started searches (session-state-dependent)
    // always re-execute.
    if (req.kind != RequestKind::Map && req.kind != RequestKind::Net)
        return false;
    return !req.deadlineMs && !req.budgetSeconds &&
           req.stopPolicyFile.empty() && req.checkpointPath.empty() &&
           req.resumePath.empty() && !req.warmStart;
}

std::string
SchedulerSession::cacheKey(const MappingRequest &req)
{
    MappingRequest canonical = req;
    canonical.id.clear();
    return canonical.toJson();
}

void
SchedulerSession::revalidate(const MappingRequest &req,
                             const MappingResponse &resp)
{
    if (req.kind == RequestKind::Map) {
        if (!resp.result.found)
            return;
        Workload wl = materializeWorkload(req);
        ArchSpec arch = materializeArch(req);
        applyArchPrecisions(req, wl);
        BoundArch ba(arch, wl);
        engine_->evaluate(engine_->context(ba), resp.result.mapping);
        return;
    }
    if (!resp.net)
        return;
    ArchSpec arch = materializeArch(req);
    NetGraph graph = materializeNetGraph(req);
    if (req.archName == "simba" && req.archFile.empty() &&
        req.bits.empty())
        for (int i = 0; i < graph.numNodes(); ++i)
            applySimbaPrecisions(graph.node(i).workload);
    // result.layers is in graph-node order. Fused layers searched under
    // a residency-modified BoundArch are skipped — their mappings were
    // never cached under the plain binding.
    const int n = std::min<int>(graph.numNodes(),
                                static_cast<int>(resp.net->layers.size()));
    for (int i = 0; i < n; ++i) {
        const LayerSchedule &l = resp.net->layers[i];
        if (!l.found || l.fused)
            continue;
        BoundArch ba(arch, graph.node(i).workload);
        engine_->evaluate(engine_->context(ba), l.mapping);
    }
}

} // namespace service
} // namespace sunstone
