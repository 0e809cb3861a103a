#include "search/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace sunstone {

namespace {

std::string
intArrayToJson(const std::vector<std::int64_t> &v)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
    return os.str();
}

bool
intArrayFromJson(const JsonValue &v, std::vector<std::int64_t> &out)
{
    if (!v.isArray())
        return false;
    out.clear();
    out.reserve(v.items.size());
    for (const JsonValue &e : v.items) {
        if (e.kind != JsonValue::Kind::Number)
            return false;
        out.push_back(e.asInt());
    }
    return true;
}

} // anonymous namespace

std::string
mappingToJson(const Mapping &m)
{
    std::ostringstream os;
    os << "{\"levels\": [";
    for (int l = 0; l < m.numLevels(); ++l) {
        const LevelMapping &lm = m.level(l);
        std::vector<std::int64_t> order(lm.order.begin(), lm.order.end());
        os << (l ? ", " : "") << "{\"t\": " << intArrayToJson(lm.temporal)
           << ", \"s\": " << intArrayToJson(lm.spatial)
           << ", \"o\": " << intArrayToJson(order) << "}";
    }
    os << "]}";
    return os.str();
}

bool
mappingFromJson(const JsonValue &v, Mapping &out)
{
    const JsonValue *levels = v.find("levels");
    if (!levels || !levels->isArray())
        return false;
    const int nl = static_cast<int>(levels->items.size());
    int nd = 0;
    if (nl > 0) {
        const JsonValue *t0 = levels->items[0].find("t");
        if (!t0 || !t0->isArray())
            return false;
        nd = static_cast<int>(t0->items.size());
    }
    out = Mapping(nl, nd);
    for (int l = 0; l < nl; ++l) {
        const JsonValue &jl = levels->items[l];
        const JsonValue *t = jl.find("t");
        const JsonValue *s = jl.find("s");
        const JsonValue *o = jl.find("o");
        if (!t || !s || !o)
            return false;
        std::vector<std::int64_t> order;
        if (!intArrayFromJson(*t, out.level(l).temporal) ||
            !intArrayFromJson(*s, out.level(l).spatial) ||
            !intArrayFromJson(*o, order))
            return false;
        if (static_cast<int>(out.level(l).temporal.size()) != nd ||
            static_cast<int>(out.level(l).spatial.size()) != nd ||
            static_cast<int>(order.size()) != nd)
            return false;
        // Factors below 1 and out-of-range dims would reach the cost
        // model's checked arithmetic and the order-indexed tables.
        for (int d = 0; d < nd; ++d)
            if (out.level(l).temporal[d] < 1 || out.level(l).spatial[d] < 1 ||
                order[d] < 0 || order[d] >= nd)
                return false;
        out.level(l).order.assign(order.begin(), order.end());
    }
    return true;
}

std::string
SearchCheckpoint::toJson() const
{
    std::ostringstream os;
    os << "{\"version\": " << version
       << ", \"search\": \"" << jsonEscape(search) << "\""
       << ", \"fingerprint\": " << jsonHexU64(workloadFingerprint)
       << ", \"seed\": " << jsonHexU64(seed)
       << ", \"stop_reason\": \"" << jsonEscape(stopReason) << "\""
       << ", \"rng_states\": [";
    for (std::size_t i = 0; i < rngStates.size(); ++i)
        os << (i ? ", " : "") << jsonHexU64(rngStates[i]);
    os << "]"
       << ", \"evaluated\": " << evaluated
       << ", \"plateau_length\": " << plateauLength
       << ", \"invalid_streak\": " << invalidStreak;
    if (consumed >= 0 && consumed != evaluated)
        os << ", \"consumed\": " << consumed;
    os << ", \"seconds\": " << jsonDouble(seconds)
       << ", \"found\": " << (found ? "true" : "false")
       << ", \"best_metric\": " << jsonDouble(bestMetric);
    if (found)
        os << ", \"best_mapping\": " << mappingToJson(bestMapping);
    os << ", \"stream\": " << streamState << "}";
    return os.str();
}

bool
SearchCheckpoint::fromJson(const std::string &text, SearchCheckpoint &out,
                           std::string *err)
{
    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (!root.isObject()) {
        if (err)
            *err = "checkpoint is not a JSON object";
        return false;
    }
    out = SearchCheckpoint{};
    const JsonValue *v = root.find("version");
    out.version = v ? static_cast<int>(v->asInt(-1)) : -1;
    if (out.version != kSearchCheckpointVersion) {
        if (err) {
            std::ostringstream os;
            os << "unsupported checkpoint version " << out.version
               << " (expected " << kSearchCheckpointVersion << ")";
            *err = os.str();
        }
        return false;
    }
    if (root.find("surrogate")) {
        // Resuming such a run unranked would silently continue a
        // different search than the one that was checkpointed.
        if (err)
            *err = "checkpoint carries surrogate ranker state; the "
                   "surrogate ranker was removed, so this run cannot be "
                   "resumed";
        return false;
    }
    if (const JsonValue *f = root.find("search"))
        out.search = f->asString();
    if (const JsonValue *f = root.find("fingerprint"))
        out.workloadFingerprint = f->asHexU64();
    if (const JsonValue *f = root.find("seed"))
        out.seed = f->asHexU64();
    if (const JsonValue *f = root.find("stop_reason"))
        out.stopReason = f->asString("none");
    if (const JsonValue *f = root.find("rng_states"); f && f->isArray())
        for (const JsonValue &e : f->items)
            out.rngStates.push_back(e.asHexU64());
    if (const JsonValue *f = root.find("evaluated"))
        out.evaluated = f->asInt();
    if (const JsonValue *f = root.find("plateau_length"))
        out.plateauLength = f->asInt();
    if (const JsonValue *f = root.find("invalid_streak"))
        out.invalidStreak = f->asInt();
    if (const JsonValue *f = root.find("consumed"))
        out.consumed = f->asInt(-1);
    if (const JsonValue *f = root.find("seconds"))
        out.seconds = f->asDouble();
    if (const JsonValue *f = root.find("found"))
        out.found = f->asBool();
    if (const JsonValue *f = root.find("best_metric"))
        out.bestMetric = f->isNull()
                             ? std::numeric_limits<double>::infinity()
                             : f->asDouble();
    if (out.found) {
        const JsonValue *bm = root.find("best_mapping");
        if (!bm || !mappingFromJson(*bm, out.bestMapping)) {
            if (err)
                *err = "malformed best_mapping";
            return false;
        }
    }
    if (const JsonValue *f = root.find("stream")) {
        if (!f->isObject()) {
            if (err)
                *err = "stream payload is not an object";
            return false;
        }
        // Keep the payload as text; the owning stream re-parses it.
        out.streamState = f->dump();
    }
    return true;
}

bool
SearchCheckpoint::save(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << toJson() << "\n";
        if (!os)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool
SearchCheckpoint::load(const std::string &path, SearchCheckpoint &out,
                       std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromJson(buf.str(), out, err);
}

} // namespace sunstone
