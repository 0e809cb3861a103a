#include "service/request.hh"

#include <sstream>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "mapping/serialize.hh"
#include "workload/nets.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace service {

namespace {

/** Splits "a=1,b=2" into (name, value) pairs; fatal() on junk. This is
 *  the one parser behind --dims/--bits/--conv and their request-field
 *  twins. */
std::vector<std::pair<std::string, std::int64_t>>
parsePairs(const std::string &text)
{
    std::vector<std::pair<std::string, std::int64_t>> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            SUNSTONE_FATAL("expected name=value in '", item, "'");
        std::int64_t v;
        if (!tryParseInt64(item.substr(eq + 1), v))
            SUNSTONE_FATAL("value in '", item,
                           "' is not a valid integer");
        out.emplace_back(item.substr(0, eq), v);
    }
    return out;
}

void
appendStringField(std::string &out, const char *name,
                  const std::string &v, bool &first)
{
    if (v.empty())
        return;
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    out += name;
    out += "\": \"" + jsonEscape(v) + "\"";
}

void
appendIntField(std::string &out, const char *name,
               std::optional<std::int64_t> v, bool &first)
{
    if (!v)
        return;
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    out += name;
    out += "\": " + std::to_string(*v);
}

void
appendDoubleField(std::string &out, const char *name,
                  std::optional<double> v, bool &first)
{
    if (!v)
        return;
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    out += name;
    out += "\": " + jsonDouble(*v);
}

void
appendBoolField(std::string &out, const char *name, bool v, bool &first)
{
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    out += name;
    out += v ? "\": true" : "\": false";
}

} // anonymous namespace

const char *
requestKindName(RequestKind k)
{
    switch (k) {
    case RequestKind::Map:
        return "map";
    case RequestKind::Net:
        return "net";
    case RequestKind::Eval:
        return "eval";
    case RequestKind::Check:
        return "check";
    case RequestKind::Health:
        return "health";
    }
    return "map";
}

std::string
MappingRequest::toJson() const
{
    std::string out = "{";
    bool first = true;
    appendStringField(out, "id", id, first);
    out += first ? "" : ", ";
    first = false;
    out += std::string("\"kind\": \"") + requestKindName(kind) + "\"";

    // Workload spec.
    if (!einsum.empty() || !dims.empty() || !bits.empty() ||
        !conv.empty() || !workloadFile.empty() || !workloadName.empty()) {
        out += ", \"workload\": {";
        bool wf = true;
        appendStringField(out, "einsum", einsum, wf);
        appendStringField(out, "dims", dims, wf);
        appendStringField(out, "bits", bits, wf);
        appendStringField(out, "name", workloadName, wf);
        appendStringField(out, "conv", conv, wf);
        appendStringField(out, "file", workloadFile, wf);
        out += "}";
    }

    if (archName != "conventional")
        out += ", \"arch\": \"" + jsonEscape(archName) + "\"";
    if (!archFile.empty())
        out += ", \"arch_file\": \"" + jsonEscape(archFile) + "\"";

    if (mapper != "sunstone")
        out += ", \"mapper\": \"" + jsonEscape(mapper) + "\"";
    if (!optimizeEdp)
        out += ", \"objective\": \"energy\"";
    if (beamWidth > 0)
        out += ", \"beam\": " + std::to_string(beamWidth);
    {
        bool f = false;
        appendDoubleField(out, "budget_seconds", budgetSeconds, f);
    }

    if (deadlineMs || maxEvals || plateau || seed) {
        out += ", \"stop\": {";
        bool sf = true;
        appendDoubleField(out, "deadline_ms", deadlineMs, sf);
        appendIntField(out, "max_evals", maxEvals, sf);
        appendIntField(out, "plateau", plateau, sf);
        if (seed) {
            out += sf ? "" : ", ";
            sf = false;
            out += "\"seed\": " + std::to_string(*seed);
        }
        out += "}";
    }
    {
        bool f = false;
        appendStringField(out, "stop_policy_file", stopPolicyFile, f);
        appendStringField(out, "checkpoint", checkpointPath, f);
        appendStringField(out, "resume", resumePath, f);
    }

    if (warmStart) {
        bool f = false;
        appendBoolField(out, "warm_start", warmStart, f);
    }

    {
        bool f = false;
        appendStringField(out, "net", net, f);
        appendIntField(out, "batch", batch, f);
        appendIntField(out, "seq", seq, f);
    }
    if (fuse != "off")
        out += ", \"fuse\": \"" + jsonEscape(fuse) + "\"";
    {
        bool f = false;
        appendStringField(out, "mapping_file", mappingFile, f);
    }

    if (kind == RequestKind::Check) {
        out += ", \"check\": {";
        bool cf = true;
        if (checkTrials) {
            out += "\"trials\": " + std::to_string(*checkTrials);
            cf = false;
        }
        if (checkSeed) {
            out += cf ? "" : ", ";
            cf = false;
            out += "\"seed\": " + std::to_string(*checkSeed);
        }
        if (!checkShrink) {
            out += cf ? "" : ", ";
            cf = false;
            out += "\"shrink\": false";
        }
        appendStringField(out, "inject_fault", checkFault, cf);
        out += "}";
    }

    out += "}";
    return out;
}

namespace {

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

} // anonymous namespace

bool
MappingRequest::fromJson(const JsonValue &v, MappingRequest &out,
                         std::string *err)
{
    if (!v.isObject())
        return fail(err, "request must be a JSON object");
    out = MappingRequest{};
    for (const auto &[name, field] : v.fields) {
        if (name == "id") {
            out.id = field.asString();
        } else if (name == "kind") {
            const std::string k = field.asString();
            if (k == "map")
                out.kind = RequestKind::Map;
            else if (k == "net")
                out.kind = RequestKind::Net;
            else if (k == "eval")
                out.kind = RequestKind::Eval;
            else if (k == "check")
                out.kind = RequestKind::Check;
            else if (k == "health")
                out.kind = RequestKind::Health;
            else
                return fail(err, "unknown kind '" + k + "'");
        } else if (name == "workload") {
            if (!field.isObject())
                return fail(err, "workload must be an object");
            for (const auto &[wn, wv] : field.fields) {
                if (wn == "einsum")
                    out.einsum = wv.asString();
                else if (wn == "dims")
                    out.dims = wv.asString();
                else if (wn == "bits")
                    out.bits = wv.asString();
                else if (wn == "name")
                    out.workloadName = wv.asString();
                else if (wn == "conv")
                    out.conv = wv.asString();
                else if (wn == "file")
                    out.workloadFile = wv.asString();
                else
                    return fail(err,
                                "unknown workload field '" + wn + "'");
            }
        } else if (name == "arch") {
            out.archName = field.asString();
        } else if (name == "arch_file") {
            out.archFile = field.asString();
        } else if (name == "mapper") {
            out.mapper = field.asString();
        } else if (name == "objective") {
            const std::string o = field.asString();
            if (o == "edp")
                out.optimizeEdp = true;
            else if (o == "energy")
                out.optimizeEdp = false;
            else
                return fail(err, "unknown objective '" + o + "'");
        } else if (name == "beam") {
            const std::int64_t b = field.asInt(-1);
            if (b <= 0)
                return fail(err, "beam must be a positive integer");
            out.beamWidth = static_cast<int>(b);
        } else if (name == "budget_seconds") {
            out.budgetSeconds = field.asDouble();
        } else if (name == "stop") {
            if (!field.isObject())
                return fail(err, "stop must be an object");
            for (const auto &[sn, sv] : field.fields) {
                if (sn == "deadline_ms") {
                    out.deadlineMs = sv.asDouble();
                } else if (sn == "max_evals") {
                    const std::int64_t n = sv.asInt(-1);
                    if (n < 1)
                        return fail(err, "stop.max_evals must be >= 1");
                    out.maxEvals = n;
                } else if (sn == "plateau") {
                    const std::int64_t n = sv.asInt(-1);
                    if (n < 1)
                        return fail(err, "stop.plateau must be >= 1");
                    out.plateau = n;
                } else if (sn == "seed") {
                    const std::int64_t s = sv.asInt(-1);
                    if (s < 0)
                        return fail(err, "stop.seed must be >= 0");
                    out.seed = static_cast<std::uint64_t>(s);
                } else {
                    return fail(err, "unknown stop field '" + sn + "'");
                }
            }
        } else if (name == "stop_policy_file") {
            out.stopPolicyFile = field.asString();
        } else if (name == "checkpoint") {
            out.checkpointPath = field.asString();
        } else if (name == "resume") {
            out.resumePath = field.asString();
        } else if (name == "warm_start") {
            out.warmStart = field.asBool();
        } else if (name == "net") {
            out.net = field.asString();
        } else if (name == "batch") {
            const std::int64_t b = field.asInt(-1);
            if (b <= 0)
                return fail(err, "batch must be a positive integer");
            out.batch = b;
        } else if (name == "seq") {
            const std::int64_t s = field.asInt(-1);
            if (s <= 0)
                return fail(err, "seq must be a positive integer");
            out.seq = s;
        } else if (name == "fuse") {
            out.fuse = field.asString();
        } else if (name == "mapping_file") {
            out.mappingFile = field.asString();
        } else if (name == "check") {
            if (!field.isObject())
                return fail(err, "check must be an object");
            for (const auto &[cn, cv] : field.fields) {
                if (cn == "trials") {
                    const std::int64_t t = cv.asInt(-1);
                    if (t < 1)
                        return fail(err, "check.trials must be >= 1");
                    out.checkTrials = static_cast<int>(t);
                } else if (cn == "seed") {
                    const std::int64_t s = cv.asInt(-1);
                    if (s < 0)
                        return fail(err, "check.seed must be >= 0");
                    out.checkSeed = static_cast<std::uint64_t>(s);
                } else if (cn == "shrink") {
                    out.checkShrink = cv.asBool(true);
                } else if (cn == "inject_fault") {
                    out.checkFault = cv.asString();
                } else {
                    return fail(err, "unknown check field '" + cn + "'");
                }
            }
        } else {
            return fail(err, "unknown request field '" + name + "'");
        }
    }
    // Infer the kind for requests that name a net but no kind.
    if (out.kind == RequestKind::Map && !out.net.empty())
        out.kind = RequestKind::Net;
    return true;
}

std::string
MappingResponse::resultJson() const
{
    if (kind == RequestKind::Net && net)
        return net->toJson();
    std::ostringstream os;
    os.precision(17);
    os << "{\"mapper\": \"" << mapper << "\", \"found\": "
       << (result.found ? "true" : "false") << ", \"stop_reason\": \""
       << result.stopReason << "\""
       << ", \"seconds\": " << result.seconds
       << ", \"mappings_evaluated\": " << result.mappingsEvaluated;
    if (result.found)
        os << ", \"energy_pj\": " << result.cost.totalEnergyPj
           << ", \"delay_seconds\": " << result.cost.delaySeconds
           << ", \"edp\": " << result.cost.edp
           << ", \"utilization\": " << result.cost.utilization;
    os << "}";
    return os.str();
}

std::string
MappingResponse::toJson() const
{
    std::string out = "{\"id\": \"" + jsonEscape(id) + "\", \"kind\": \"";
    out += requestKindName(kind);
    out += ok ? "\", \"ok\": true" : "\", \"ok\": false";
    if (!ok) {
        out += ", \"error\": \"" + jsonEscape(error) + "\"}";
        return out;
    }
    out += cached ? ", \"cached\": true" : ", \"cached\": false";
    out += ", \"warm_seeds\": " + std::to_string(warmSeeds);
    out += ", \"seconds\": " + jsonDouble(seconds);
    out += ", \"engine_delta\": {\"evaluations\": " +
           std::to_string(engineDelta.evaluations) + "}";
    switch (kind) {
    case RequestKind::Map:
    case RequestKind::Net:
        out += ", \"result\": " + resultJson();
        if (!mappingText.empty())
            out += ", \"mapping\": \"" + jsonEscape(mappingText) + "\"";
        break;
    case RequestKind::Eval:
        out += ", \"result\": " + resultJson();
        break;
    case RequestKind::Check:
        if (check) {
            out += ", \"trials\": " + std::to_string(check->trialsRun);
            out += check->ok() ? ", \"agree\": true"
                               : ", \"agree\": false";
            if (!check->ok())
                out += ", \"summary\": \"" +
                       jsonEscape(check->first.summary) + "\"";
        }
        break;
    case RequestKind::Health:
        out += ", \"health\": " + healthJson;
        break;
    }
    out += "}";
    return out;
}

Workload
materializeWorkload(const MappingRequest &req)
{
    if (!req.workloadFile.empty())
        return loadWorkloadFile(req.workloadFile);
    if (!req.conv.empty()) {
        ConvShape sh;
        for (auto &[k, v] : parsePairs(req.conv)) {
            if (k == "n")
                sh.n = v;
            else if (k == "k")
                sh.k = v;
            else if (k == "c")
                sh.c = v;
            else if (k == "p")
                sh.p = v;
            else if (k == "q")
                sh.q = v;
            else if (k == "r")
                sh.r = v;
            else if (k == "s")
                sh.s = v;
            else if (k == "stride")
                sh.strideH = sh.strideW = v;
            else
                SUNSTONE_FATAL("unknown conv parameter '", k, "'");
        }
        return makeConv2D(sh);
    }
    if (req.einsum.empty() || req.dims.empty())
        SUNSTONE_FATAL("specify a workload: --einsum + --dims, --conv, "
                       "or --workload-file");
    Workload wl = parseEinsum(req.workloadName.empty() ? "workload"
                                                       : req.workloadName,
                              req.einsum, parsePairs(req.dims));
    if (!req.bits.empty())
        for (auto &[t, b] : parsePairs(req.bits))
            wl.setWordBits(wl.tensorByName(t), static_cast<int>(b));
    return wl;
}

ArchSpec
materializeArch(const MappingRequest &req)
{
    if (!req.archFile.empty())
        return loadArchFile(req.archFile);
    const std::string &name = req.archName;
    if (name == "conventional")
        return makeConventional();
    if (name == "simba")
        return makeSimbaLike();
    if (name == "eyeriss")
        return makeEyerissLike();
    if (name == "diannao")
        return makeDianNaoLike();
    if (name == "toy")
        return makeToyArch();
    SUNSTONE_FATAL("unknown architecture '", name,
                   "' (try conventional, simba, eyeriss, diannao, toy, "
                   "or --arch-file)");
}

NetGraph
materializeNetGraph(const MappingRequest &req)
{
    const std::string &net = req.net;
    const std::int64_t batch = req.batch.value_or(-1);
    auto b = [&](std::int64_t dflt) { return batch > 0 ? batch : dflt; };
    // seq names the sequence length of attention nets; batch is
    // accepted there too for backward compatibility.
    const std::int64_t seq = req.seq ? *req.seq : b(512);
    if (net == "resnet18")
        return NetGraph::fromLayers(resnet18Layers(b(16)));
    if (net == "resnet18-fused")
        return resnet18Graph(b(16));
    if (net == "inception")
        return NetGraph::fromLayers(inceptionV3Layers(b(16)));
    if (net == "inception-wu")
        return NetGraph::fromLayers(inceptionV3WeightUpdateLayers(b(16)));
    if (net == "alexnet")
        return NetGraph::fromLayers(alexnetLayers(b(4)));
    if (net == "vgg16")
        return NetGraph::fromLayers(vgg16Layers(b(4)));
    if (net == "nondnn")
        return NetGraph::fromLayers(nonDnnSuite());
    if (net == "tcl")
        return NetGraph::fromLayers(tclSuite());
    if (net == "attention")
        return attentionGraph(seq);
    if (net == "depthwise")
        return NetGraph::fromLayers(depthwiseSuite(b(4)));
    SUNSTONE_FATAL("unknown net '", net,
                   "' (try resnet18, resnet18-fused, inception, "
                   "inception-wu, alexnet, vgg16, nondnn, tcl, "
                   "attention, depthwise)");
}

FusionMode
materializeFusionMode(const MappingRequest &req)
{
    if (req.fuse == "off")
        return FusionMode::Off;
    if (req.fuse == "greedy")
        return FusionMode::Greedy;
    SUNSTONE_FATAL("--fuse expects 'off' or 'greedy', got '", req.fuse,
                   "'");
}

void
applyArchPrecisions(const MappingRequest &req, Workload &wl)
{
    if (req.archName == "simba" && req.archFile.empty() &&
        req.bits.empty())
        applySimbaPrecisions(wl);
}

} // namespace service
} // namespace sunstone
