#include "mappers/dmaze_mapper.hh"

#include <algorithm>
#include <atomic>

#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"

namespace sunstone {

namespace {

/** Utilization of a level's usable capacity by a tile shape. */
double
levelUtilization(const BoundArch &ba, int level,
                 const std::vector<std::int64_t> &shape)
{
    const Workload &wl = ba.workload();
    std::int64_t cap_bits = 0, used_bits = 0;
    for (const auto &g : ba.capacityGroups(level)) {
        cap_bits += g.limitBits;
        for (const auto &mb : g.members)
            used_bits += wl.tensor(mb.tensor).footprint(shape) * mb.wordBits;
    }
    if (cap_bits <= 0)
        return 0;
    return static_cast<double>(used_bits) / static_cast<double>(cap_bits);
}

/**
 * Enumerates divisor factor vectors over all dims whose shape (base *
 * factors) keeps utilization of `level` within (lo, 1]; ordered by
 * descending utilization and truncated to `cap` entries.
 */
std::vector<std::vector<std::int64_t>>
enumerateTiles(const BoundArch &ba, int level,
               const std::vector<std::int64_t> &base,
               const std::vector<std::int64_t> &remaining, double lo,
               std::size_t cap)
{
    const int nd = static_cast<int>(remaining.size());
    std::vector<std::pair<double, std::vector<std::int64_t>>> found;
    std::vector<std::int64_t> current(nd, 1);

    // Depth-first over dims; prune a branch as soon as it overflows.
    auto shapeOf = [&](const std::vector<std::int64_t> &f) {
        std::vector<std::int64_t> s(base);
        for (int d = 0; d < nd; ++d)
            s[d] = satMul(s[d], f[d]);
        return s;
    };

    // Bounded exhaustive recursion.
    const std::size_t hard_cap = cap * 64;
    std::size_t visited = 0;
    auto rec = [&](auto &&self, int d) -> void {
        if (visited > hard_cap)
            return;
        if (d == nd) {
            ++visited;
            auto s = shapeOf(current);
            if (!ba.fitsShape(level, s))
                return;
            const double util = levelUtilization(ba, level, s);
            if (util >= lo)
                found.emplace_back(util, current);
            return;
        }
        for (std::int64_t f : cachedDivisors(remaining[d])) {
            current[d] = f;
            if (!ba.fitsShape(level, shapeOf(current))) {
                current[d] = 1;
                break; // footprints are monotone in each factor
            }
            self(self, d + 1);
        }
        current[d] = 1;
    };
    rec(rec, 0);

    std::sort(found.begin(), found.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    if (found.size() > cap)
        found.resize(cap);
    std::vector<std::vector<std::int64_t>> out;
    out.reserve(found.size());
    for (auto &f : found)
        out.push_back(std::move(f.second));
    return out;
}

/** Spatial combos over allowed dims, by descending PE utilization. */
std::vector<std::vector<std::int64_t>>
enumerateSpatial(const Workload &wl, DimSet allowed,
                 const std::vector<std::int64_t> &remaining,
                 std::int64_t fanout, double pe_util, std::size_t cap)
{
    const int nd = wl.numDims();
    std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> found;
    std::vector<std::int64_t> current(nd, 1);
    std::vector<DimId> dims;
    for (DimId d : allowed)
        if (remaining[d] > 1)
            dims.push_back(d);
    auto rec = [&](auto &&self, std::size_t i, std::int64_t prod) -> void {
        if (i == dims.size()) {
            if (static_cast<double>(prod) >=
                pe_util * static_cast<double>(fanout))
                found.emplace_back(prod, current);
            return;
        }
        for (std::int64_t f : cachedDivisors(remaining[dims[i]])) {
            if (satMul(prod, f) > fanout)
                break;
            current[dims[i]] = f;
            self(self, i + 1, prod * f);
        }
        current[dims[i]] = 1;
    };
    rec(rec, 0, 1);
    std::sort(found.begin(), found.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    if (found.size() > cap)
        found.resize(cap);
    std::vector<std::vector<std::int64_t>> out;
    out.reserve(found.size());
    for (auto &f : found)
        out.push_back(std::move(f.second));
    return out;
}

/** Loop order with dim `inner` rotated innermost. */
std::vector<DimId>
rotatedOrder(int nd, DimId inner)
{
    std::vector<DimId> order;
    for (DimId d = 0; d < nd; ++d)
        if (d != inner)
            order.push_back(d);
    order.push_back(inner);
    return order;
}

} // anonymous namespace

DMazeMapper::DMazeMapper(DMazeOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
DMazeMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    const int nd = wl.numDims();

    EvalEngine &eng = sc.engine();

    StopPolicy defaults;
    defaults.maxEvals = opts.maxEvaluations;
    sc.setPolicy(sc.policy().withDefaults(defaults));

    SearchDriver drv(sc, eng, ba, displayName, opts.optimizeEdp);

    auto bail = [&](const std::string &why) {
        return toMapperResult(drv.finish(StopReason::Unsupported), why);
    };

    // dMazeRunner targets conventional accelerators: exactly three
    // levels (L1, L2, DRAM) with the only fanout at L2.
    if (ba.numLevels() != 3 || arch.levels[0].fanout != 1 ||
        arch.levels[1].fanout <= 1)
        return bail("architecture not supported (needs L1/L2/DRAM with a "
                    "single PE-grid fanout)");

    // The tool assumes symmetric convolution kernels (Section V-B2).
    bool has_r = false, has_s = false;
    std::int64_t r_sz = 0, s_sz = 0;
    for (DimId d = 0; d < nd; ++d) {
        if (wl.dimName(d) == "r") {
            has_r = true;
            r_sz = wl.dimSize(d);
        }
        if (wl.dimName(d) == "s") {
            has_s = true;
            s_sz = wl.dimSize(d);
        }
    }
    if (has_r && has_s && r_sz != s_sz)
        return bail("asymmetric convolution not supported");

    // Spatial candidates: without spatial reduction, only dims indexing
    // every output may be unrolled (others would reduce across PEs).
    DimSet allowed = DimSet::all(nd);
    if (!opts.allowSpatialReduction) {
        for (TensorId t : wl.outputs())
            allowed = allowed.intersect(wl.reuse(t).indexing);
    }
    const std::int64_t fanout = arch.levels[1].fanout;
    auto spatials = enumerateSpatial(wl, allowed, wl.shape(), fanout,
                                     opts.peUtil, 24);
    if (spatials.empty())
        return bail("no unrolling meets the PE utilization threshold");

    // The directed enumeration is a push-style nest; a GeneratorStream
    // adapts it into the driver's pull model. Emission order matches the
    // old serial loop exactly, so eval counts and results are unchanged.
    std::atomic<bool> l1_candidates_seen{false};
    std::atomic<bool> l2_candidates_seen{false};

    auto producer = [&](const GeneratorStream::Sink &sink) {
        for (const auto &sp : spatials) {
            std::vector<std::int64_t> rem = wl.shape();
            for (int d = 0; d < nd; ++d)
                rem[d] /= sp[d];

            std::vector<std::int64_t> base0(nd, 1);
            auto l1_tiles =
                enumerateTiles(ba, 0, base0, rem, opts.l1Util, 48);
            if (l1_tiles.empty())
                continue;
            l1_candidates_seen.store(true, std::memory_order_relaxed);

            for (const auto &t1 : l1_tiles) {
                std::vector<std::int64_t> rem2 = rem;
                std::vector<std::int64_t> base1(nd);
                for (int d = 0; d < nd; ++d) {
                    rem2[d] /= t1[d];
                    base1[d] = t1[d] * sp[d];
                }
                auto l2_tiles =
                    enumerateTiles(ba, 1, base1, rem2, opts.l2Util, 48);
                if (l2_tiles.empty())
                    continue;
                l2_candidates_seen.store(true, std::memory_order_relaxed);

                for (const auto &t2 : l2_tiles) {
                    for (DimId in2 = 0; in2 < nd; ++in2) {
                        for (DimId in3 = 0; in3 < nd; ++in3) {
                            Mapping m(3, nd);
                            for (int d = 0; d < nd; ++d) {
                                m.level(0).temporal[d] = t1[d];
                                m.level(1).spatial[d] = sp[d];
                                m.level(1).temporal[d] = t2[d];
                                m.level(2).temporal[d] =
                                    rem2[d] / t2[d];
                            }
                            m.level(1).order = rotatedOrder(nd, in2);
                            m.level(2).order = rotatedOrder(nd, in3);
                            if (!sink(std::move(m)))
                                return;
                        }
                    }
                }
            }
        }
    };

    DriverOutcome o;
    {
        GeneratorStream stream(producer);
        o = drv.run(stream);
    } // joins the producer before the utilization flags are read

    std::string why;
    if (!o.found) {
        why = "no mapping meets the minimum utilization constraints";
        if (!l1_candidates_seen.load())
            why += " (L1 utilization)";
        else if (!l2_candidates_seen.load())
            why += " (L2 utilization)";
    }
    return toMapperResult(o, why);
}

double
DMazeMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::dmazeSpace(ba);
}

} // namespace sunstone
