#include "search/warmstart.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/math_utils.hh"
#include "search/checkpoint.hh"

namespace sunstone {

namespace {

/** FNV-1a over 64-bit chunks; plenty for a structural class key. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    }
};

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

double
logDistance(const std::vector<std::int64_t> &a,
            const std::vector<std::int64_t> &b)
{
    double d2 = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = std::log2(static_cast<double>(a[i]))
                         - std::log2(static_cast<double>(b[i]));
        d2 += d * d;
    }
    return std::sqrt(d2);
}

} // anonymous namespace

Mapping
adaptMapping(const Mapping &m, const BoundArch &ba)
{
    const int nl = ba.numLevels();
    const int nd = ba.workload().numDims();
    Mapping out(nl, nd);
    for (int l = 0; l < nl; ++l)
        out.level(l).order = m.level(l).order;
    for (int d = 0; d < nd; ++d) {
        std::int64_t remaining = ba.workload().dimSize(d);
        for (int l = 0; l < nl; ++l) {
            // Spatial slots first so parallelism survives the shrink.
            const std::int64_t s
                = largestDivisorAtMost(remaining, m.level(l).spatial[d]);
            out.level(l).spatial[d] = s;
            remaining /= s;
            const std::int64_t t
                = largestDivisorAtMost(remaining, m.level(l).temporal[d]);
            out.level(l).temporal[d] = t;
            remaining /= t;
        }
        // Whatever the donor's factors could not cover iterates at the
        // outermost (DRAM) level, keeping the mapping divisor-exact.
        out.level(nl - 1).temporal[d] *= remaining;
    }
    return out;
}

std::uint64_t
WarmStartStore::shapeClassKey(const BoundArch &ba)
{
    Fnv f;
    const ArchSpec &arch = ba.arch();
    f.mix(static_cast<std::uint64_t>(arch.numLevels()));
    f.mix(static_cast<std::uint64_t>(arch.macBits));
    for (const LevelSpec &lv : arch.levels) {
        f.mix(static_cast<std::uint64_t>(lv.capacityBits));
        f.mix(static_cast<std::uint64_t>(lv.fanout));
        f.mix(static_cast<std::uint64_t>(lv.meshX));
        f.mix(static_cast<std::uint64_t>(lv.meshY));
        f.mix(lv.isDram ? 1 : 0);
        f.mix(lv.doubleBuffered ? 1 : 0);
        f.mix(static_cast<std::uint64_t>(lv.partitions.size()));
    }
    const Workload &wl = ba.workload();
    f.mix(static_cast<std::uint64_t>(wl.numDims()));
    f.mix(static_cast<std::uint64_t>(wl.numTensors()));
    for (int t = 0; t < wl.numTensors(); ++t) {
        const TensorSpec &ts = wl.tensor(t);
        f.mix(ts.isOutput ? 1 : 0);
        f.mix(static_cast<std::uint64_t>(ts.wordBits));
        f.mix(static_cast<std::uint64_t>(ts.ranks.size()));
        for (const IndexExpr &r : ts.ranks) {
            f.mix(static_cast<std::uint64_t>(r.terms.size()));
            for (const IndexTerm &term : r.terms) {
                f.mix(static_cast<std::uint64_t>(term.dim));
                f.mix(static_cast<std::uint64_t>(term.coeff));
            }
        }
        // Storage membership per level (bypass patterns change which
        // mappings transfer).
        for (int l = 0; l < ba.numLevels(); ++l)
            f.mix(ba.stores(l, t) ? 1 : 0);
    }
    return f.h;
}

bool
WarmStartStore::load(const std::string &path, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromJson(buf.str(), err);
}

bool
WarmStartStore::save(const std::string &path) const
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

std::string
WarmStartStore::toJson() const
{
    std::ostringstream os;
    os << "{\"version\": 1, \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i ? ", " : "") << "{\"class\": " << jsonHexU64(e.shapeClass)
           << ", \"name\": \"" << jsonEscape(e.name) << "\""
           << ", \"extents\": " << intArrayToJson(e.extents)
           << ", \"metric\": " << jsonDouble(e.metric)
           << ", \"mapping\": " << mappingToJson(e.mapping) << "}";
    }
    os << "]}";
    return os.str();
}

bool
WarmStartStore::fromJson(const std::string &text, std::string *err)
{
    JsonValue v;
    std::string perr;
    if (!parseJson(text, v, &perr)) {
        if (err)
            *err = "warmstart store parse error: " + perr;
        return false;
    }
    const JsonValue *ver = v.find("version");
    if (!ver || ver->asInt() != 1) {
        if (err)
            *err = "warmstart store: unsupported version";
        return false;
    }
    const JsonValue *es = v.find("entries");
    if (!es || !es->isArray()) {
        if (err)
            *err = "warmstart store: missing entries";
        return false;
    }
    std::vector<Entry> loaded;
    loaded.reserve(es->items.size());
    for (const JsonValue &je : es->items) {
        Entry e;
        const JsonValue *f = je.find("class");
        if (!f) {
            if (err)
                *err = "warmstart store: entry missing class";
            return false;
        }
        e.shapeClass = f->asHexU64();
        if ((f = je.find("name")))
            e.name = f->asString();
        f = je.find("extents");
        if (!f || !f->isArray()) {
            if (err)
                *err = "warmstart store: entry missing extents";
            return false;
        }
        for (const JsonValue &x : f->items)
            e.extents.push_back(x.asInt());
        if ((f = je.find("metric")))
            e.metric = f->asDouble();
        f = je.find("mapping");
        // adaptMapping() indexes the mapping by the query's dims, which
        // match the entry's extents: a mapping over other dims is bad.
        if (!f || !mappingFromJson(*f, e.mapping) ||
            static_cast<std::size_t>(e.mapping.numDims()) !=
                e.extents.size()) {
            if (err)
                *err = "warmstart store: bad mapping in entry";
            return false;
        }
        loaded.push_back(std::move(e));
    }
    entries_ = std::move(loaded);
    return true;
}

bool
WarmStartStore::record(const BoundArch &ba, const std::string &name,
                       double metric, const Mapping &mapping)
{
    if (!std::isfinite(metric))
        return false;
    const std::uint64_t cls = shapeClassKey(ba);
    const std::vector<std::int64_t> &extents = ba.workload().shape();
    for (Entry &e : entries_) {
        if (e.shapeClass != cls || e.extents != extents)
            continue;
        // An entry query() would skip seeds nothing: replace it
        // whatever its metric.
        if (metric < e.metric || e.mapping.numLevels() != ba.numLevels()) {
            e.name = name;
            e.metric = metric;
            e.mapping = mapping;
            return true;
        }
        return false;
    }
    entries_.push_back(
        {cls, name, extents, metric, mapping});
    return true;
}

std::vector<Mapping>
WarmStartStore::query(const BoundArch &ba, std::size_t k) const
{
    const std::uint64_t cls = shapeClassKey(ba);
    const std::vector<std::int64_t> &extents = ba.workload().shape();
    std::vector<std::pair<double, std::size_t>> cands;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (e.shapeClass != cls || e.extents.size() != extents.size() ||
            e.mapping.numLevels() != ba.numLevels())
            continue;
        cands.emplace_back(logDistance(e.extents, extents), i);
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<Mapping> seeds;
    for (std::size_t i = 0; i < cands.size() && seeds.size() < k; ++i)
        seeds.push_back(adaptMapping(entries_[cands[i].second].mapping, ba));
    return seeds;
}

} // namespace sunstone
