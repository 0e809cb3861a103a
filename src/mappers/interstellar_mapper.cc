#include "mappers/interstellar_mapper.hh"

#include <algorithm>

#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"

namespace sunstone {

namespace {

/** Best divisor pair (fc, fk) with fc*fk <= fanout, maximizing product. */
std::pair<std::int64_t, std::int64_t>
bestChannelUnroll(std::int64_t c, std::int64_t k, std::int64_t fanout)
{
    std::int64_t best_fc = 1, best_fk = 1, best = 1;
    for (std::int64_t fc : cachedDivisors(c)) {
        if (fc > fanout)
            break;
        const std::int64_t fk = largestDivisorAtMost(k, fanout / fc);
        if (fc * fk > best) {
            best = fc * fk;
            best_fc = fc;
            best_fk = fk;
        }
    }
    return {best_fc, best_fk};
}

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

/** Divisor tilings of one level that fit, largest footprint first. */
std::vector<std::vector<std::int64_t>>
fittingTiles(const BoundArch &ba, int level,
             const std::vector<std::int64_t> &base,
             const std::vector<std::int64_t> &remaining, std::size_t cap)
{
    const Workload &wl = ba.workload();
    const int nd = wl.numDims();
    std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> found;
    std::vector<std::int64_t> current(nd, 1), shape(nd);
    auto fits = [&]() {
        std::int64_t vol = 1;
        for (int d = 0; d < nd; ++d) {
            shape[d] = satMul(base[d], current[d]);
            vol = satMul(vol, current[d]);
        }
        return std::make_pair(ba.fitsShape(level, shape), vol);
    };
    const std::size_t hard_cap = cap * 256;
    std::size_t visited = 0;
    auto rec = [&](auto &&self, int d) -> void {
        if (visited > hard_cap)
            return;
        if (d == nd) {
            ++visited;
            auto [ok, vol] = fits();
            if (ok)
                found.emplace_back(vol, current);
            return;
        }
        for (std::int64_t f : cachedDivisors(remaining[d])) {
            current[d] = f;
            if (!fits().first) {
                current[d] = 1;
                break;
            }
            self(self, d + 1);
        }
        current[d] = 1;
    };
    rec(rec, 0);
    // High-throughput heuristic: larger tiles (more work per refill)
    // first.
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

} // anonymous namespace

InterstellarMapper::InterstellarMapper(InterstellarOptions o,
                                       std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
InterstellarMapper::optimize(SearchContext &sc, const BoundArch &ba)
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

    if (ba.numLevels() != 3 || arch.levels[0].fanout != 1 ||
        arch.levels[1].fanout <= 1)
        return bail("architecture not supported (conventional "
                    "L1/L2/DRAM only)");

    // The tool is DNN-specific: it needs the channel dims to preset the
    // unrolling.
    DimId c_dim = -1, k_dim = -1;
    for (DimId d = 0; d < nd; ++d) {
        if (wl.dimName(d) == "c")
            c_dim = d;
        if (wl.dimName(d) == "k")
            k_dim = d;
    }
    if (c_dim < 0 || k_dim < 0)
        return bail("workload not supported (needs convolution-style "
                    "channel dims for the preset CK unrolling)");

    const std::int64_t fanout = arch.levels[1].fanout;
    auto [fc, fk] =
        bestChannelUnroll(wl.dimSize(c_dim), wl.dimSize(k_dim), fanout);
    std::vector<std::int64_t> sp(nd, 1);
    sp[c_dim] = fc;
    sp[k_dim] = fk;

    // Fallback: when CK cannot utilize the grid, unroll other dims into
    // the remaining budget (largest dims first).
    if (static_cast<double>(fc * fk) <
        opts.ckFallbackBelow * static_cast<double>(fanout)) {
        std::int64_t budget = fanout / (fc * fk);
        std::vector<DimId> others;
        for (DimId d = 0; d < nd; ++d)
            if (d != c_dim && d != k_dim)
                others.push_back(d);
        std::sort(others.begin(), others.end(), [&](DimId a, DimId b) {
            return wl.dimSize(a) > wl.dimSize(b);
        });
        for (DimId d : others) {
            if (budget <= 1)
                break;
            const std::int64_t f =
                largestDivisorAtMost(wl.dimSize(d), budget);
            sp[d] = f;
            budget /= f;
        }
    }

    std::vector<std::int64_t> rem = wl.shape();
    for (int d = 0; d < nd; ++d)
        rem[d] /= sp[d];

    std::vector<std::int64_t> base0(nd, 1);
    auto l1_tiles = fittingTiles(ba, 0, base0, rem, 40);
    if (l1_tiles.empty())
        return bail("no L1 tiling compatible with the preset unrolling");

    // Push-style tile enumeration adapted to the driver's pull model;
    // emission order matches the old serial loop exactly.
    auto producer = [&](const GeneratorStream::Sink &sink) {
        for (const auto &t1 : l1_tiles) {
            std::vector<std::int64_t> rem2 = rem;
            std::vector<std::int64_t> base1(nd);
            for (int d = 0; d < nd; ++d) {
                rem2[d] /= t1[d];
                base1[d] = t1[d] * sp[d];
            }
            auto l2_tiles = fittingTiles(ba, 1, base1, rem2, 40);
            for (const auto &t2 : l2_tiles) {
                for (DimId in2 = 0; in2 < nd; ++in2) {
                    for (DimId in3 = 0; in3 < nd; ++in3) {
                        Mapping m(3, nd);
                        for (int d = 0; d < nd; ++d) {
                            m.level(0).temporal[d] = t1[d];
                            m.level(1).spatial[d] = sp[d];
                            m.level(1).temporal[d] = t2[d];
                            m.level(2).temporal[d] = rem2[d] / t2[d];
                        }
                        m.level(1).order = rotatedOrder(nd, in2);
                        m.level(2).order = rotatedOrder(nd, in3);
                        if (!sink(std::move(m)))
                            return;
                    }
                }
            }
        }
    };

    GeneratorStream stream(producer);
    DriverOutcome o = drv.run(stream);
    return toMapperResult(
        o, o.found ? "" : "no valid mapping with the preset unrolling");
}

double
InterstellarMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::interstellarSpace(ba);
}

} // namespace sunstone
