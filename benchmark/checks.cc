#include "checks.hh"

#include <cmath>
#include <memory>

#include "common/json.hh"
#include "common/logging.hh"
#include "mapping/serialize.hh"
#include "model/nest_simulator.hh"
#include "obs/trace.hh"

namespace sunstone {
namespace bench {

namespace {

using service::MappingRequest;
using service::MappingResponse;
using service::RequestKind;

/** Largest problem (in MACs) the nest oracle walks. */
constexpr std::int64_t kOracleMaxOps = std::int64_t{1} << 20;

/**
 * The cost model and the packed batch evaluator agree bitwise on
 * mainstream toolchains; the tolerance only covers a packed backend that
 * rounds differently, and is far below any mapping-to-mapping EDP gap.
 */
bool
sameValue(double a, double b)
{
    return a == b || std::fabs(a - b) <= 1e-9 * std::fabs(b);
}

bool
sameCounts(const std::vector<std::vector<AccessCounts>> &a,
           const std::vector<std::vector<AccessCounts>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t l = 0; l < a.size(); ++l) {
        if (a[l].size() != b[l].size())
            return false;
        for (std::size_t t = 0; t < a[l].size(); ++t) {
            const AccessCounts &x = a[l][t];
            const AccessCounts &y = b[l][t];
            if (x.reads != y.reads || x.fills != y.fills ||
                x.updates != y.updates || x.accumReads != y.accumReads ||
                x.drains != y.drains)
                return false;
        }
    }
    return true;
}

bool
sameMapping(const Mapping &a, const Mapping &b)
{
    if (a.numLevels() != b.numLevels())
        return false;
    for (int l = 0; l < a.numLevels(); ++l)
        if (a.level(l).temporal != b.level(l).temporal ||
            a.level(l).spatial != b.level(l).spatial ||
            a.level(l).order != b.level(l).order)
            return false;
    return true;
}

/** The part of a rendered answer that a cached repeat must reproduce. */
std::string
answerBody(const std::string &rendered)
{
    const std::size_t at = rendered.find(", \"result\": ");
    return at == std::string::npos ? rendered : rendered.substr(at);
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    return fnv(fnv(h, s.data(), s.size()), "\0", 1);
}

std::uint64_t
fnv(std::uint64_t h, double v)
{
    return fnv(h, &v, sizeof v);
}

template <typename T>
std::uint64_t
fnv(std::uint64_t h, const std::vector<T> &v)
{
    return fnv(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t
fnv(std::uint64_t h, const Mapping &m)
{
    for (int l = 0; l < m.numLevels(); ++l) {
        const LevelMapping &lm = m.level(l);
        h = fnv(fnv(fnv(h, lm.temporal), lm.spatial), lm.order);
    }
    return h;
}

} // anonymous namespace

std::string
AnswerChecker::check(const Line &line, const MappingRequest *req,
                     const MappingResponse &resp, const std::string &rendered)
{
    JsonValue wire;
    if (!parseJson(rendered, wire) || !wire.isObject())
        return "response line is not a JSON object";
    const JsonValue *okField = wire.find("ok");
    if (!okField || okField->asBool() != resp.ok)
        return "rendered ok flag differs from the response";
    if (line.malformed)
        return resp.ok ? "malformed line answered ok:true" : "";
    if (!req)
        return "well-formed line did not parse";
    if (!resp.ok)
        return "well-formed line answered ok:false: " + resp.error;
    const JsonValue *id = wire.find("id");
    if (!id || id->asString() != req->id)
        return "rendered id differs from the request id";

    // Materializers and the oracle fatal() on bad input; a fatal here
    // is a failed check, not a crash of the benchmark.
    std::string err;
    ScopedFatalCapture capture;
    try {
        switch (req->kind) {
        case RequestKind::Health: {
            const JsonValue *h = wire.find("health");
            if (!h || !h->isObject() || !h->find("session"))
                err = "health answer has no session document";
            break;
        }
        case RequestKind::Map:
        case RequestKind::Net: {
            const bool isNet = req->kind == RequestKind::Net;
            const JsonValue *res = wire.find("result");
            if (!res || !res->isObject() || (isNet && !resp.net)) {
                err = "answer has no result";
                break;
            }
            if (!isNet && !resp.result.found) {
                err = "no mapping found";
                break;
            }
            const JsonValue *edp = res->find(isNet ? "totalEdp" : "edp");
            const double want =
                isNet ? resp.net->totalEdp : resp.result.cost.edp;
            if (!edp || edp->asDouble() != want) {
                err = "rendered EDP " + (edp ? edp->raw : "(none)") +
                      " differs from the response's " + jsonDouble(want);
                break;
            }
            if (!isNet) {
                const JsonValue *mt = wire.find("mapping");
                if (!mt || mt->asString() != resp.mappingText) {
                    err = "rendered mapping differs from the response";
                    break;
                }
            }
            // Cached answers were fully checked when first served.
            if (resp.cached)
                break;
            err = isNet ? checkNet(*req, resp) : checkMap(*req, resp);
            break;
        }
        default:
            err = "unexpected request kind";
        }
    } catch (const std::exception &e) {
        err = std::string("check raised: ") + e.what();
    }
    if (!err.empty() ||
        (req->kind != RequestKind::Map && req->kind != RequestKind::Net))
        return err;

    MappingRequest canonical = *req;
    canonical.id.clear();
    const std::string key = canonical.toJson();
    if (!resp.cached) {
        originals_[key] = answerBody(rendered);
        return "";
    }
    const auto it = originals_.find(key);
    if (it == originals_.end())
        return "cached answer to a request this session never answered";
    if (it->second != answerBody(rendered))
        return "cached answer differs from the original";
    return "";
}

std::string
AnswerChecker::checkMapping(const BoundArch &ba, const Mapping &m,
                            const CostResult &reported, bool oracle)
{
    const CostResult raw = evaluateMapping(ba, m);
    if (!raw.valid)
        return "answer mapping is invalid: " + raw.invalidReason;
    if (!sameValue(raw.edp, reported.edp) ||
        !sameValue(raw.totalEnergyPj, reported.totalEnergyPj))
        return "re-evaluated EDP/energy differs from the answer";
    if (!sameCounts(raw.access, reported.access))
        return "re-evaluated access counts differ from the answer";
    if (!sameMapping(mappingFromText(mappingToText(m, ba), ba), m))
        return "mapping does not survive a text round trip";
    if (!oracle || ba.workload().totalOps() > kOracleMaxOps)
        return "";
    std::string key = ba.arch().name + "\n" + workloadToText(ba.workload()) +
                      mappingToText(m, ba);
    if (oracleConfirmed_.count(key))
        return "";
    if (!sameCounts(simulateAccessCounts(ba, m), raw.access))
        return "access counts differ from the loop-nest oracle";
    oracleConfirmed_.insert(std::move(key));
    return "";
}

std::string
AnswerChecker::checkMap(const MappingRequest &req,
                        const MappingResponse &resp)
{
    std::unique_ptr<BoundArch> ba;
    {
        obs::TraceSpan span("bench.materialize");
        Workload wl = service::materializeWorkload(req);
        applyArchPrecisions(req, wl);
        ba = std::make_unique<BoundArch>(service::materializeArch(req), wl);
    }
    if (resp.mappingText != resp.result.mapping.toString(*ba))
        return "mapping text does not render the answer mapping";
    return checkMapping(*ba, resp.result.mapping, resp.result.cost, true);
}

std::string
AnswerChecker::checkNet(const MappingRequest &req,
                        const MappingResponse &resp)
{
    const NetScheduleResult &net = *resp.net;
    if (!net.allFound)
        return "a layer has no mapping";

    std::vector<std::unique_ptr<BoundArch>> bas;
    NetGraph graph;
    {
        obs::TraceSpan span("bench.materialize");
        const ArchSpec arch = service::materializeArch(req);
        graph = service::materializeNetGraph(req);
        for (int i = 0; i < graph.numNodes(); ++i) {
            applyArchPrecisions(req, graph.node(i).workload);
            bas.push_back(
                std::make_unique<BoundArch>(arch, graph.node(i).workload));
        }
    }
    if (static_cast<int>(net.layers.size()) != graph.numNodes())
        return "answer has " + std::to_string(net.layers.size()) +
               " layers, the net has " + std::to_string(graph.numNodes());

    double energy = 0, delay = 0;
    for (int i = 0; i < graph.numNodes(); ++i) {
        const LayerSchedule &l = net.layers[i];
        BoundArch &ba = *bas[i];
        if (l.name != ba.workload().name() || l.count != graph.node(i).count)
            return "layer " + std::to_string(i) + " is not node " +
                   std::to_string(i);
        if (l.fused) {
            // Rebuild the member's residency from its fused chain.
            if (l.group < 0 ||
                l.group >= static_cast<int>(net.groups.size()))
                return "fused layer without a group";
            std::vector<int> chain;
            std::size_t pos = 0;
            for (const std::string &name : net.groups[l.group].members) {
                for (int j = 0; j < graph.numNodes(); ++j)
                    if (graph.node(j).workload.name() == name) {
                        if (j == i)
                            pos = chain.size();
                        chain.push_back(j);
                        break;
                    }
            }
            const auto eph = graph.ephemeralTensors(chain);
            for (const std::string &t : eph.at(pos))
                ba.setResidency(ba.workload().tensorByName(t),
                                Residency::Ephemeral);
        }
        const std::string err =
            checkMapping(ba, l.mapping, l.cost, !l.fused);
        if (!err.empty())
            return "layer " + l.name + ": " + err;
        energy += l.count * l.cost.totalEnergyPj;
        delay += l.count * l.cost.delaySeconds;
    }
    if (!sameValue(energy * delay, net.totalEdp))
        return "network EDP is not the product of the layer totals";
    return "";
}

std::uint64_t
hashAnswer(std::uint64_t h, const MappingResponse &resp)
{
    h = fnv(h, resp.id);
    h = fnv(h, std::string(service::requestKindName(resp.kind)));
    h = fnv(h, std::string(resp.ok ? "ok" : "error"));
    if (!resp.ok)
        return h;
    h = fnv(h, std::string(resp.cached ? "cached" : "fresh"));
    if (resp.kind == RequestKind::Map) {
        h = fnv(h, resp.result.cost.edp);
        h = fnv(h, resp.result.cost.totalEnergyPj);
        h = fnv(h, resp.result.mapping);
    } else if (resp.net) {
        h = fnv(h, resp.net->totalEdp);
        for (const LayerSchedule &l : resp.net->layers) {
            h = fnv(h, l.cost.edp);
            h = fnv(h, std::string(l.fused ? "fused" : "single"));
            h = fnv(h, l.mapping);
        }
    }
    return h;
}

} // namespace bench
} // namespace sunstone
