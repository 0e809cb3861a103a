#include "core/net_scheduler.hh"

#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/warmstart.hh"

namespace sunstone {

namespace {

/**
 * Structural fingerprint of the whole schedule: the unique per-op
 * fingerprints folded in discovery order (which is deterministic — it
 * follows the node list), then the fused-unit fingerprints in plan
 * order. Guards a "net" checkpoint against being resumed for a different
 * network, architecture or fusion plan.
 */
std::uint64_t
netFingerprint(const std::vector<std::uint64_t> &unique_fps)
{
    std::uint64_t h = 0x53554e53544f4e45ULL; // "SUNSTONE"
    for (std::uint64_t fp : unique_fps) {
        h ^= fp;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    }
    return h;
}

/** One completed search, as carried by the "net" checkpoint. */
std::string
doneToJson(std::uint64_t fp, const SunstoneResult &d)
{
    std::string s = "{\"fp\": " + jsonHexU64(fp) +
                    ", \"found\": " + (d.found ? "true" : "false") +
                    ", \"seconds\": " + jsonDouble(d.seconds) +
                    ", \"examined\": " +
                    std::to_string(d.candidatesExamined) +
                    ", \"stop\": \"" + jsonEscape(d.stopReason) + "\"";
    if (d.found)
        s += ", \"mapping\": " + mappingToJson(d.mapping);
    return s + "}";
}

/** Parses a doneToJson() entry; the cost is left to restoreSearch(). */
bool
doneFromJson(const JsonValue &v, std::uint64_t &fp, SunstoneResult &d)
{
    const JsonValue *f = v.find("fp");
    if (!f)
        return false;
    fp = f->asHexU64();
    if (const JsonValue *x = v.find("found"))
        d.found = x->asBool();
    if (const JsonValue *x = v.find("seconds"))
        d.seconds = x->asDouble();
    if (const JsonValue *x = v.find("examined"))
        d.candidatesExamined = x->asInt();
    const JsonValue *stop = v.find("stop");
    d.stopReason = stop ? stop->asString("exhausted") : "exhausted";
    if (d.found) {
        const JsonValue *m = v.find("mapping");
        if (!m || !mappingFromJson(*m, d.mapping))
            return false;
    }
    return true;
}

/**
 * Completes a search restored from a "net" checkpoint under the bound
 * architecture it was taken for. Mapping::valid() checks the level and
 * dim counts first, then factors, orders and capacities, so a tampered
 * entry is a clean fatal instead of a "found" layer with a garbage cost.
 */
void
restoreSearch(EvalEngine &eng, const BoundArch &ba, SunstoneResult &d)
{
    if (!d.found)
        return;
    std::string why;
    if (!d.mapping.valid(ba, &why))
        SUNSTONE_FATAL("malformed 'net' checkpoint: the mapping of '",
                       ba.workload().name(), "' is invalid (", why, ")");
    d.cost = eng.evaluate(eng.context(ba), d.mapping);
}

bool
cancelled(const SunstoneResult &r)
{
    return r.stopReason == "cancelled";
}

} // anonymous namespace

std::string
NetScheduleResult::toJson() const
{
    std::string j = "{";
    j += "\"allFound\":" + std::string(allFound ? "true" : "false");
    j += ",\"stopReason\":\"" + jsonEscape(stopReason) + "\"";
    j += ",\"layersTotal\":" + std::to_string(layersTotal);
    j += ",\"layersUnique\":" + std::to_string(layersUnique);
    j += ",\"totalEnergyPj\":" + jsonDouble(totalEnergyPj);
    j += ",\"totalDelaySeconds\":" + jsonDouble(totalDelaySeconds);
    j += ",\"totalEdp\":" + jsonDouble(totalEdp);
    j += ",\"seconds\":" + jsonDouble(seconds);
    j += ",\"layers\":[";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerSchedule &l = layers[i];
        if (i)
            j += ",";
        j += "{\"name\":\"" + jsonEscape(l.name) + "\"";
        j += ",\"count\":" + std::to_string(l.count);
        j += ",\"found\":" + std::string(l.found ? "true" : "false");
        j += ",\"deduplicated\":" +
             std::string(l.deduplicated ? "true" : "false");
        if (!l.stopReason.empty())
            j += ",\"stopReason\":\"" + jsonEscape(l.stopReason) + "\"";
        if (l.found) {
            j += ",\"energyPj\":" + jsonDouble(l.cost.totalEnergyPj);
            j += ",\"delaySeconds\":" + jsonDouble(l.cost.delaySeconds);
            j += ",\"edp\":" + jsonDouble(l.cost.edp);
            j += ",\"utilization\":" + jsonDouble(l.cost.utilization);
        }
        j += ",\"seconds\":" + jsonDouble(l.seconds);
        j += ",\"candidatesExamined\":" +
             std::to_string(l.candidatesExamined);
        // Only the fusion-aware scheduler emits these, so FusionMode::Off
        // output stays byte-identical to the pre-fusion format.
        if (!fusionMode.empty()) {
            j += ",\"group\":" + std::to_string(l.group);
            j += ",\"fused\":" + std::string(l.fused ? "true" : "false");
        }
        j += "}";
    }
    j += "]";
    if (!fusionMode.empty()) {
        j += ",\"fusion\":{\"mode\":\"" + jsonEscape(fusionMode) + "\"";
        j += ",\"groupsFusable\":" + std::to_string(groupsFusable);
        j += ",\"groupsFused\":" + std::to_string(groupsFused);
        j += ",\"opsFused\":" + std::to_string(opsFused);
        j += ",\"groups\":[";
        for (std::size_t i = 0; i < groups.size(); ++i) {
            const GroupSchedule &gr = groups[i];
            if (i)
                j += ",";
            j += "{\"members\":[";
            for (std::size_t m = 0; m < gr.members.size(); ++m) {
                if (m)
                    j += ",";
                j += "\"" + jsonEscape(gr.members[m]) + "\"";
            }
            j += "],\"count\":" + std::to_string(gr.count);
            j += ",\"fused\":" + std::string(gr.fused ? "true" : "false");
            if (!gr.rejectReason.empty())
                j += ",\"rejectReason\":\"" + jsonEscape(gr.rejectReason) +
                     "\"";
            j += ",\"fusedEnergyPj\":" + jsonDouble(gr.fusedEnergyPj);
            j += ",\"fusedDelaySeconds\":" + jsonDouble(gr.fusedDelaySeconds);
            j += ",\"unfusedEnergyPj\":" + jsonDouble(gr.unfusedEnergyPj);
            j += ",\"unfusedDelaySeconds\":" +
                 jsonDouble(gr.unfusedDelaySeconds);
            j += ",\"searchSeconds\":" + jsonDouble(gr.searchSeconds);
            j += ",\"candidatesExamined\":" +
                 std::to_string(gr.candidatesExamined);
            j += "}";
        }
        j += "]}";
    }
    j += ",\"stats\":" + stats.toJson();
    j += "}";
    return j;
}

namespace {

/**
 * @return true when mapping m keeps every Ephemeral tensor of ba fully
 * resident at its residency level — the exact condition under which the
 * cost model drops the tensor's DRAM round-trip.
 */
bool
coversEphemeral(const BoundArch &ba, const Mapping &m)
{
    const Workload &wl = ba.workload();
    for (TensorId t = 0; t < ba.numTensors(); ++t) {
        if (ba.residency(t) != Residency::Ephemeral)
            continue;
        const int lvl = ba.residencyLevel(t);
        if (lvl < 0)
            return false;
        const std::vector<std::int64_t> shape = m.tileShape(lvl);
        for (DimId d : wl.tensor(t).indexingDims())
            if (shape[d] != wl.dimSize(d))
                return false;
    }
    return true;
}

/**
 * Derives a fused candidate from a per-layer mapping: every temporal
 * loop over an ephemeral tensor's indexing dims is sunk from above the
 * residency level into it, so the tensor's tile there spans the whole
 * tensor. Spatial factors stay put (moving them would break fanout
 * packing); a mapping that spreads such a dim spatially above the level
 * simply fails the coverage check later. The result may be invalid
 * (capacity) — callers must check valid().
 */
Mapping
sinkEphemeralLoops(const BoundArch &ba, const Mapping &m0)
{
    Mapping m = m0;
    const Workload &wl = ba.workload();
    for (TensorId t = 0; t < ba.numTensors(); ++t) {
        if (ba.residency(t) != Residency::Ephemeral)
            continue;
        const int lvl = ba.residencyLevel(t);
        if (lvl < 0)
            continue;
        for (DimId d : wl.tensor(t).indexingDims())
            for (int l = lvl + 1; l < m.numLevels(); ++l) {
                m.level(lvl).temporal[d] *= m.level(l).temporal[d];
                m.level(l).temporal[d] = 1;
            }
    }
    return m;
}

} // anonymous namespace

NetScheduleResult
scheduleNet(SearchContext &sc, const ArchSpec &arch, const NetGraph &g,
            const NetSchedulerOptions &opts)
{
    std::string err;
    if (!g.validate(&err))
        SUNSTONE_FATAL("invalid network graph: ", err);
    SUNSTONE_TRACE_SPAN("net.schedule");
    Timer timer;
    NetScheduleResult result;
    const bool greedy = opts.fusion == FusionMode::Greedy;
    if (greedy)
        result.fusionMode = "greedy";

    EvalEngine &eng = sc.engine();

    // The whole-network wall-clock budget becomes one absolute deadline
    // shared by every search: searches launched late inherit whatever is
    // left instead of each getting a fresh budget. The other StopPolicy
    // bounds (max-evals, plateau, invalid streak) apply to each search
    // individually.
    const StopPolicy &netPolicy = sc.policy();
    if (netPolicy.deadlineSeconds != 0 && !sc.hardDeadline()) {
        const double budget = std::max(0.0, netPolicy.deadlineSeconds);
        sc.setHardDeadline(std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(budget)));
    }

    // ---- Bind + dedup per-op searches --------------------------------
    // BoundArch objects are heap-allocated so references taken by the
    // concurrent searches below stay stable.
    struct Unique
    {
        std::unique_ptr<BoundArch> ba;
        std::uint64_t fingerprint = 0;
        /** Recorded in the checkpoint: restored, or run to its end. */
        bool done = false;
        SunstoneResult search;
    };
    std::vector<Unique> uniques;
    std::vector<std::size_t> nodeToUnique(g.numNodes());
    std::unordered_map<std::uint64_t, std::size_t> byFingerprint;
    for (int i = 0; i < g.numNodes(); ++i) {
        auto ba = std::make_unique<BoundArch>(arch, g.node(i).workload);
        const std::uint64_t fp = eng.context(*ba).fingerprint();
        auto [it, inserted] = byFingerprint.emplace(fp, uniques.size());
        if (inserted)
            uniques.push_back({std::move(ba), fp, false, {}});
        nodeToUnique[i] = it->second;
    }

    // ---- Plan groups -------------------------------------------------
    // FusionMode::Off puts every node in a group of its own. Greedy
    // grows maximal chains in topological order: extend while the tail
    // produces a single-consumer tensor that statically fits at a common
    // on-chip level on both sides. The check is optimistic (the whole
    // partition budget); the search-time fits() and the coverage test
    // decide for the actual mappings.
    std::vector<std::vector<int>> groupNodes;
    std::vector<int> nodeGroup(g.numNodes(), -1);
    if (!greedy) {
        for (int v = 0; v < g.numNodes(); ++v) {
            nodeGroup[v] = v;
            groupNodes.push_back({v});
        }
    } else {
        SUNSTONE_TRACE_SPAN("net.fuse.plan");
        auto fusableEdge = [&](const NetEdge &e) {
            obs::metrics().counter("net.fusion.edges_considered").add(1);
            if (g.consumerCount(e.producer, e.producerTensor) != 1) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_multiconsumer")
                    .add(1);
                return false;
            }
            const BoundArch &pba = *uniques[nodeToUnique[e.producer]].ba;
            const BoundArch &cba = *uniques[nodeToUnique[e.consumer]].ba;
            const Workload &pwl = g.node(e.producer).workload;
            const Workload &cwl = g.node(e.consumer).workload;
            const TensorId pt = pwl.tensorByName(e.producerTensor);
            const TensorId ct = cwl.tensorByName(e.consumerTensor);
            const int pl = pba.residencyLevel(pt);
            const int cl = cba.residencyLevel(ct);
            if (pl < 0 || pl != cl) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_level")
                    .add(1);
                return false;
            }
            const std::int64_t pbits =
                pwl.tensor(pt).footprint(pwl.shape()) *
                pwl.tensor(pt).wordBits;
            const std::int64_t cbits =
                cwl.tensor(ct).footprint(cwl.shape()) *
                cwl.tensor(ct).wordBits;
            if (pbits > pba.capacityBitsFor(pl, pt) ||
                cbits > cba.capacityBitsFor(cl, ct)) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_capacity")
                    .add(1);
                return false;
            }
            return true;
        };
        for (int v : g.topoOrder()) {
            if (nodeGroup[v] >= 0)
                continue;
            std::vector<int> chain{v};
            nodeGroup[v] = static_cast<int>(groupNodes.size());
            for (bool grew = true; grew;) {
                grew = false;
                const int tail = chain.back();
                for (int e = 0; e < g.numEdges() && !grew; ++e) {
                    const NetEdge &ed = g.edge(e);
                    if (ed.producer != tail || nodeGroup[ed.consumer] >= 0)
                        continue;
                    if (!fusableEdge(ed))
                        continue;
                    chain.push_back(ed.consumer);
                    nodeGroup[ed.consumer] = nodeGroup[v];
                    grew = true;
                }
            }
            groupNodes.push_back(std::move(chain));
        }
    }

    // ---- Build fused units (dedup by subgraph fingerprint) -----------
    struct FusedMember
    {
        std::unique_ptr<BoundArch> ba; // residency-marked
        std::uint64_t fingerprint = 0;
        int node = -1;
        SunstoneResult search;
    };
    struct FusedUnit
    {
        std::vector<FusedMember> members;
        std::uint64_t fingerprint = 0;
        bool done = false;
    };
    std::vector<FusedUnit> fusedUnits;
    std::vector<int> groupUnit(groupNodes.size(), -1);
    std::unordered_map<std::uint64_t, int> unitByFp;
    for (std::size_t gi = 0; gi < groupNodes.size(); ++gi) {
        const std::vector<int> &chain = groupNodes[gi];
        if (chain.size() < 2)
            continue;
        const auto eph = g.ephemeralTensors(chain);
        FusedUnit fu;
        fu.fingerprint = 0x46555345ULL; // "FUSE": separates the fp
                                        // namespace from node fps
        for (std::size_t i = 0; i < chain.size(); ++i) {
            FusedMember fm;
            fm.node = chain[i];
            fm.ba = std::make_unique<BoundArch>(
                arch, g.node(chain[i]).workload);
            for (const std::string &name : eph[i])
                fm.ba->setResidency(fm.ba->workload().tensorByName(name),
                                    Residency::Ephemeral);
            fm.fingerprint = eng.context(*fm.ba).fingerprint();
            fu.fingerprint ^= fm.fingerprint;
            fu.fingerprint *= 0x100000001b3ULL;
            fu.fingerprint ^= fu.fingerprint >> 29;
            fu.members.push_back(std::move(fm));
        }
        auto [it, inserted] =
            unitByFp.emplace(fu.fingerprint,
                             static_cast<int>(fusedUnits.size()));
        if (inserted)
            fusedUnits.push_back(std::move(fu));
        groupUnit[gi] = it->second;
    }
    std::vector<int> unitOwner(fusedUnits.size(), -1);
    for (std::size_t gi = 0; gi < groupNodes.size(); ++gi)
        if (groupUnit[gi] >= 0 && unitOwner[groupUnit[gi]] < 0)
            unitOwner[groupUnit[gi]] = static_cast<int>(gi);

    std::vector<std::uint64_t> allFps;
    for (const Unique &u : uniques)
        allFps.push_back(u.fingerprint);
    for (const FusedUnit &fu : fusedUnits)
        allFps.push_back(fu.fingerprint);
    const std::uint64_t netFp = netFingerprint(allFps);

    // ---- Resume ------------------------------------------------------
    // Consume a pending "net" resume snapshot: every per-op search and
    // fused unit it records as done is adopted instead of re-run.
    double baseSeconds = 0;
    if (std::optional<SearchCheckpoint> ck = sc.takeResume()) {
        if (ck->search != "net")
            SUNSTONE_FATAL("checkpoint was written by search '",
                           ck->search, "', cannot resume the network "
                           "scheduler from it");
        if (ck->workloadFingerprint != netFp)
            SUNSTONE_FATAL("checkpoint fingerprint ",
                           ck->workloadFingerprint,
                           " does not match this network/architecture (",
                           netFp, ") — it was taken for a different "
                           "problem");
        if (sc.hasSeed() && sc.seed() != ck->seed)
            SUNSTONE_FATAL("checkpoint seed ", ck->seed,
                           " differs from the requested seed ",
                           sc.seed());
        sc.setSeed(ck->seed);
        baseSeconds = ck->seconds;
        JsonValue v;
        if (!parseJson(ck->streamState, v) || !v.isObject())
            SUNSTONE_FATAL("malformed 'net' checkpoint payload");
        std::unordered_map<std::uint64_t, SunstoneResult> done;
        std::unordered_map<std::uint64_t, std::vector<SunstoneResult>>
            doneFused;
        if (const JsonValue *arr = v.find("done"); arr && arr->isArray())
            for (const JsonValue &e : arr->items) {
                const JsonValue *f = e.find("fp");
                if (!f)
                    SUNSTONE_FATAL("malformed 'net' checkpoint entry");
                if (const JsonValue *fs = e.find("fused");
                    fs && fs->isArray()) {
                    std::vector<SunstoneResult> recs;
                    for (const JsonValue &me : fs->items) {
                        std::uint64_t mfp = 0;
                        SunstoneResult d;
                        if (!doneFromJson(me, mfp, d))
                            SUNSTONE_FATAL(
                                "malformed 'net' checkpoint member entry");
                        recs.push_back(std::move(d));
                    }
                    doneFused.emplace(f->asHexU64(), std::move(recs));
                    continue;
                }
                std::uint64_t fp = 0;
                SunstoneResult d;
                if (!doneFromJson(e, fp, d))
                    SUNSTONE_FATAL("malformed 'net' checkpoint entry");
                done.emplace(fp, std::move(d));
            }
        for (Unique &u : uniques) {
            auto it = done.find(u.fingerprint);
            if (it == done.end())
                continue;
            u.done = true;
            u.search = it->second;
            restoreSearch(eng, *u.ba, u.search);
            obs::metrics().counter("net.resumed_searches").add(1);
        }
        for (FusedUnit &fu : fusedUnits) {
            auto it = doneFused.find(fu.fingerprint);
            if (it == doneFused.end() ||
                it->second.size() != fu.members.size())
                continue;
            fu.done = true;
            for (std::size_t i = 0; i < fu.members.size(); ++i) {
                FusedMember &fm = fu.members[i];
                fm.search = it->second[i];
                restoreSearch(eng, *fm.ba, fm.search);
            }
            obs::metrics().counter("net.resumed_searches").add(1);
        }
    }

    // ---- Checkpointing -----------------------------------------------
    // Writes the "net" checkpoint: one entry per done per-op search, then
    // one {"fp", "fused": [...]} entry per done fused unit. Serialized by
    // checkpointMtx — completed searches land concurrently from the pool.
    std::mutex checkpointMtx;
    const auto writeNetCheckpoint = [&] {
        if (sc.checkpointPath().empty())
            return;
        SearchCheckpoint ck;
        ck.search = "net";
        ck.workloadFingerprint = netFp;
        ck.seed = sc.seed();
        std::string payload = "{\"done\": [";
        bool first = true;
        for (const Unique &u : uniques) {
            if (!u.done)
                continue;
            if (!first)
                payload += ", ";
            first = false;
            payload += doneToJson(u.fingerprint, u.search);
            ck.evaluated += u.search.candidatesExamined;
        }
        for (const FusedUnit &fu : fusedUnits) {
            if (!fu.done)
                continue;
            if (!first)
                payload += ", ";
            first = false;
            payload += "{\"fp\": " + jsonHexU64(fu.fingerprint) +
                       ", \"fused\": [";
            for (std::size_t i = 0; i < fu.members.size(); ++i) {
                const FusedMember &fm = fu.members[i];
                if (i)
                    payload += ", ";
                payload += doneToJson(fm.fingerprint, fm.search);
                ck.evaluated += fm.search.candidatesExamined;
            }
            payload += "]}";
        }
        payload += "]}";
        ck.streamState = payload;
        ck.seconds = baseSeconds + timer.seconds();
        if (!ck.save(sc.checkpointPath()))
            SUNSTONE_WARN("failed to write checkpoint '",
                          sc.checkpointPath(), "'");
        else
            obs::flightRecorder().record(
                "checkpoint.written",
                "net evals=" + std::to_string(ck.evaluated) + " -> " +
                    sc.checkpointPath());
    };
    // A search that ends "cancelled" stopped short of its own end, so it
    // stays out of the checkpoint and a resume runs it again; any other
    // end (a deadline included) is final and recorded.
    const auto recordDone = [&](bool &done) {
        std::lock_guard<std::mutex> lk(checkpointMtx);
        done = true;
        writeNetCheckpoint();
    };
    {
        std::lock_guard<std::mutex> lk(checkpointMtx);
        writeNetCheckpoint(); // records the restored set immediately
    }

    // Coarse phase units for the progress line: one per unique per-op
    // search, one per fused chain search.
    obs::ProgressBoard &board = obs::progressBoard();
    board.addUnits(
        static_cast<std::int64_t>(uniques.size() + fusedUnits.size()));
    for (const Unique &u : uniques)
        if (u.done)
            board.noteUnitDone();
    for (const FusedUnit &fu : fusedUnits)
        if (fu.done)
            board.noteUnitDone();

    // Warm-start store: loaded once before the fan-outs (a missing file
    // just means an empty store) and only *read* while searches run,
    // so concurrent queries need no locking and results stay
    // deterministic. Realized bests are recorded back serially below.
    WarmStartStore wstore;
    const bool useWarmstart = !opts.warmstartStore.empty();
    if (useWarmstart)
        wstore.load(opts.warmstartStore);

    // Runs one Sunstone search in its own child context: the
    // network-wide hard deadline and cancellation flag are shared
    // through it, the per-search bounds are copied. Each search records
    // one convergence trajectory under `label`. Fused variants share the
    // per-op structure, so stored per-op bests seed them too.
    const auto runSearch = [&](const BoundArch &ba,
                               const std::string &label) {
        SunstoneOptions so = opts.sunstone;
        if (sc.convergence())
            so.searchLabel = label;
        SearchContext child(&eng, netPolicy, sc.convergence());
        child.policy().deadlineSeconds = 0; // network-wide, see above
        if (sc.hardDeadline())
            child.setHardDeadline(*sc.hardDeadline());
        if (sc.hasSeed())
            child.setSeed(sc.seed());
        if (useWarmstart)
            child.setWarmStarts(wstore.query(ba));
        return sunstoneOptimize(child, ba, so);
    };
    const auto fom = [&](const CostResult &c) {
        return opts.sunstone.optimizeEdp ? c.edp : c.totalEnergyPj;
    };

    // ---- Pass 1: per-op baseline searches ----------------------------
    // One search per unique structure, concurrently on the shared pool.
    // The search's own parallelFor nests on the same pool through
    // group-scoped joins, so no thread oversubscription.
    parallelFor(eng.pool(), uniques.size(), [&](std::size_t u) {
        Unique &uq = uniques[u];
        if (uq.done)
            return;
        const std::string &name = uq.ba->workload().name();
        SUNSTONE_TRACE_SPAN("net.search:" + name);
        uq.search = runSearch(*uq.ba, "sunstone:" + name);
        if (!cancelled(uq.search))
            recordDone(uq.done);
        board.noteUnitDone();
    });
    obs::metrics().counter("net.unique_searches").add(
        static_cast<std::int64_t>(uniques.size()));

    // ---- Pass 2: fused-chain searches --------------------------------
    // Runs after the baselines (a barrier, not a pipeline) because each
    // fused member search is seeded with the sunken per-op winner, which
    // both bounds the fused result from below and guarantees a coverage
    // candidate whenever one is valid.
    parallelFor(eng.pool(), fusedUnits.size(), [&](std::size_t fi) {
        FusedUnit &fu = fusedUnits[fi];
        if (fu.done)
            return;
        SUNSTONE_TRACE_SPAN("net.search.fused:" +
                            fu.members.front().ba->workload().name());
        bool complete = true;
        for (FusedMember &fm : fu.members) {
            fm.search = runSearch(
                *fm.ba, "sunstone:" + fm.ba->workload().name() + "+fused");
            complete &= !cancelled(fm.search);
            const Unique &base = uniques[nodeToUnique[fm.node]];
            if (base.search.found) {
                Mapping seeded =
                    sinkEphemeralLoops(*fm.ba, base.search.mapping);
                if (seeded.valid(*fm.ba)) {
                    const CostResult c =
                        eng.evaluate(eng.context(*fm.ba), seeded);
                    if (!fm.search.found || fom(c) < fom(fm.search.cost)) {
                        fm.search.found = true;
                        fm.search.mapping = std::move(seeded);
                        fm.search.cost = c;
                    }
                }
            }
        }
        if (complete)
            recordDone(fu.done);
        board.noteUnitDone();
    });
    if (greedy)
        obs::metrics().counter("net.fusion.unit_searches").add(
            static_cast<std::int64_t>(fusedUnits.size()));

    if (useWarmstart) {
        // Serial, in unique order: deterministic store contents. Only
        // per-op results are recorded (fused costs assume residency).
        bool changed = false;
        for (const Unique &u : uniques)
            if (u.search.found &&
                wstore.record(*u.ba, u.ba->workload().name(),
                              u.search.cost.edp, u.search.mapping))
                changed = true;
        if (changed && !wstore.save(opts.warmstartStore))
            SUNSTONE_WARN("failed to write warm-start store '",
                          opts.warmstartStore, "'");
        obs::metrics().gauge("net.warmstart.store_entries")
            .set(static_cast<double>(wstore.size()));
    }

    // ---- Decide per group --------------------------------------------
    // The first interrupting reason wins over "exhausted"; cancellation
    // outranks the deadline.
    result.stopReason = "exhausted";
    const auto foldStop = [&](const std::string &s) {
        if (s == "deadline" && result.stopReason == "exhausted")
            result.stopReason = "deadline";
        if (s == "cancelled")
            result.stopReason = "cancelled";
    };
    for (const Unique &u : uniques)
        foldStop(u.search.stopReason);
    for (const FusedUnit &fu : fusedUnits)
        for (const FusedMember &fm : fu.members)
            foldStop(fm.search.stopReason);

    // Group entries are reported in greedy mode only; Off mode's
    // singleton groups have nothing to decide.
    std::vector<bool> accepted(groupNodes.size(), false);
    if (greedy)
        result.groups.resize(groupNodes.size());
    for (std::size_t gi = 0; gi < result.groups.size(); ++gi) {
        const std::vector<int> &chain = groupNodes[gi];
        GroupSchedule &gr = result.groups[gi];
        gr.count = g.node(chain.front()).count;
        bool unfusedFound = true;
        for (int n : chain) {
            gr.members.push_back(g.node(n).workload.name());
            const Unique &uq = uniques[nodeToUnique[n]];
            unfusedFound &= uq.search.found;
            gr.searchSeconds += uq.search.seconds;
            gr.candidatesExamined += uq.search.candidatesExamined;
            if (uq.search.found) {
                gr.unfusedEnergyPj += uq.search.cost.totalEnergyPj;
                gr.unfusedDelaySeconds += uq.search.cost.delaySeconds;
            }
        }
        if (groupUnit[gi] < 0)
            continue; // singleton: nothing to decide
        ++result.groupsFusable;
        const FusedUnit &fu = fusedUnits[groupUnit[gi]];
        bool fusedFound = true;
        bool covered = true;
        for (const FusedMember &fm : fu.members) {
            fusedFound &= fm.search.found;
            gr.searchSeconds += fm.search.seconds;
            gr.candidatesExamined += fm.search.candidatesExamined;
            if (fm.search.found) {
                covered &= coversEphemeral(*fm.ba, fm.search.mapping);
                gr.fusedEnergyPj += fm.search.cost.totalEnergyPj;
                gr.fusedDelaySeconds += fm.search.cost.delaySeconds;
            }
        }
        if (!fusedFound) {
            gr.rejectReason = "search";
        } else if (!covered) {
            gr.rejectReason = "coverage";
        } else if (unfusedFound &&
                   !(gr.fusedEnergyPj <= gr.unfusedEnergyPj &&
                     gr.fusedDelaySeconds <= gr.unfusedDelaySeconds &&
                     gr.fusedEnergyPj * gr.fusedDelaySeconds <
                         gr.unfusedEnergyPj * gr.unfusedDelaySeconds)) {
            // Fusing must not regress either energy or delay, and must
            // strictly improve EDP: chain-wise dominance is what makes
            // the net-level totals provably no worse than per-layer.
            gr.rejectReason = "cost";
        } else {
            accepted[gi] = true;
            gr.fused = true;
            ++result.groupsFused;
            result.opsFused += static_cast<int>(chain.size());
        }
        std::string detail = gr.members.front();
        for (std::size_t m = 1; m < gr.members.size(); ++m)
            detail += "+" + gr.members[m];
        if (gr.fused)
            obs::flightRecorder().record("chain.accepted", detail);
        else
            obs::flightRecorder().record(
                "chain.rejected", detail + " reason=" + gr.rejectReason);
    }
    if (greedy) {
        obs::metrics().counter("net.fusion.groups_fused").add(
            result.groupsFused);
        obs::metrics().counter("net.fusion.ops_fused").add(
            result.opsFused);
    }

    // ---- Assemble per-node results (node order) ----------------------
    result.allFound = true;
    result.layers.reserve(g.numNodes());
    std::vector<bool> seen(uniques.size(), false);
    for (int n = 0; n < g.numNodes(); ++n) {
        const int gi = nodeGroup[n];
        LayerSchedule ls;
        ls.name = g.node(n).workload.name();
        ls.count = g.node(n).count;
        if (greedy)
            ls.group = gi;
        if (accepted[gi]) {
            const FusedUnit &fu = fusedUnits[groupUnit[gi]];
            std::size_t pos = 0;
            while (groupNodes[gi][pos] != n)
                ++pos;
            const FusedMember &fm = fu.members[pos];
            ls.found = true;
            ls.fused = true;
            ls.mapping = fm.search.mapping;
            if (unitOwner[groupUnit[gi]] == gi) {
                ls.cost = fm.search.cost;
                ls.seconds = fm.search.seconds;
                ls.candidatesExamined = fm.search.candidatesExamined;
                ls.stopReason = fm.search.stopReason;
            } else {
                // A structurally identical chain already searched this
                // subgraph; broadcast with a guaranteed cache hit.
                ls.deduplicated = true;
                ls.stopReason = "dedup";
                ls.cost = eng.evaluate(eng.context(*fm.ba), ls.mapping);
                obs::metrics().counter("net.dedup_broadcasts").add(1);
            }
        } else {
            const std::size_t u = nodeToUnique[n];
            const Unique &uq = uniques[u];
            ls.found = uq.search.found;
            ls.mapping = uq.search.mapping;
            if (seen[u]) {
                // Broadcast: re-validate the chosen mapping under this
                // node's own context. Identical structure means an
                // identical cache key, so this is a guaranteed hit — the
                // dedup shows up in the telemetry instead of as a
                // repeated search.
                ls.deduplicated = true;
                ls.stopReason = "dedup";
                obs::metrics().counter("net.dedup_broadcasts").add(1);
                if (ls.found) {
                    SUNSTONE_TRACE_SPAN("net.broadcast");
                    ls.cost =
                        eng.evaluate(eng.context(*uq.ba), ls.mapping);
                }
            } else {
                seen[u] = true;
                ls.cost = uq.search.cost;
                ls.seconds = uq.search.seconds;
                ls.candidatesExamined = uq.search.candidatesExamined;
                ls.stopReason = uq.search.stopReason;
            }
        }
        if (ls.found) {
            result.totalEnergyPj += ls.count * ls.cost.totalEnergyPj;
            result.totalDelaySeconds += ls.count * ls.cost.delaySeconds;
        } else {
            result.allFound = false;
        }
        result.layersTotal += ls.count;
        result.layers.push_back(std::move(ls));
    }
    obs::metrics().counter("net.layers_scheduled").add(g.numNodes());
    result.layersUnique = static_cast<int>(uniques.size());
    result.totalEdp = result.totalEnergyPj * result.totalDelaySeconds;
    result.seconds = baseSeconds + timer.seconds();
    result.stats = eng.stats();
    return result;
}

} // namespace sunstone
