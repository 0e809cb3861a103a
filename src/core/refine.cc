#include "core/refine.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/math_utils.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "search/search_driver.hh"

namespace sunstone {

namespace {

/** Objective of a mapping; infinity when invalid. */
double
objective(EvalEngine &engine, const EvalEngine::Context &ctx,
          const EvalEngine::PrefixHandle &ph, const Mapping &m, bool edp,
          RefineStats *stats, SearchDriver *driver)
{
    if (stats)
        ++stats->evaluated;
    if (driver)
        driver->noteEvaluated(1);
    CostResult r =
        engine.evaluate(ctx, m, {}, EvalEngine::CachePolicy::UseCache, ph);
    if (!r.valid)
        return std::numeric_limits<double>::infinity();
    return edp ? r.edp : r.totalEnergyPj;
}

/**
 * A candidate move plus the lowest level it touched: levels below
 * `prefixLevels` are identical to the round's base mapping, so the
 * evaluation can reuse the base's cached prefix terms.
 */
struct Neighbour
{
    Mapping m;
    int prefixLevels = 0;
};

/** Generates all single-prime-factor move neighbours of m. */
std::vector<Neighbour>
neighbours(const BoundArch &ba, const Mapping &m)
{
    const int nl = m.numLevels();
    const int nd = m.numDims();
    std::vector<Neighbour> out;

    // Every (level, temporal|spatial) slot is a possible source and
    // destination for one prime factor of each dim.
    struct Slot
    {
        int level;
        bool spatial;
    };
    std::vector<Slot> slots;
    for (int l = 0; l < nl; ++l) {
        slots.push_back({l, false});
        if (ba.arch().levels[l].fanout > 1)
            slots.push_back({l, true});
    }

    auto factorOf = [&](const Mapping &map, const Slot &s, DimId d) {
        const auto &lm = map.level(s.level);
        return s.spatial ? lm.spatial[d] : lm.temporal[d];
    };
    auto factorRef = [&](Mapping &map, const Slot &s,
                         DimId d) -> std::int64_t & {
        auto &lm = map.level(s.level);
        return s.spatial ? lm.spatial[d] : lm.temporal[d];
    };

    for (DimId d = 0; d < nd; ++d) {
        for (const auto &src : slots) {
            const std::int64_t f = factorOf(m, src, d);
            if (f <= 1)
                continue;
            for (auto [p, e] : cachedPrimeFactors(f)) {
                (void)e;
                for (const auto &dst : slots) {
                    if (src.level == dst.level &&
                        src.spatial == dst.spatial)
                        continue;
                    Mapping n = m;
                    factorRef(n, src, d) /= p;
                    factorRef(n, dst, d) =
                        satMul(factorRef(n, dst, d), p);
                    out.push_back(
                        {std::move(n), std::min(src.level, dst.level)});
                }
            }
        }
    }

    // Innermost-loop rotations per level: move each dim with a factor
    // > 1 to the innermost position.
    for (int l = 1; l < nl; ++l) {
        for (DimId d = 0; d < nd; ++d) {
            if (m.level(l).temporal[d] <= 1)
                continue;
            if (m.level(l).order.back() == d)
                continue;
            Mapping n = m;
            auto &order = n.level(l).order;
            order.erase(std::find(order.begin(), order.end(), d));
            order.push_back(d);
            out.push_back({std::move(n), l});
        }
    }
    return out;
}

} // anonymous namespace

Mapping
polishMapping(EvalEngine &eng, const BoundArch &ba, const Mapping &m,
              bool optimize_edp, int max_rounds, RefineStats *stats,
              SearchDriver *driver)
{
    SUNSTONE_TRACE_SPAN("refine.hillclimb");
    const EvalEngine::Context ctx = eng.context(ba);
    Mapping best = m;
    double best_obj = objective(eng, ctx, EvalEngine::PrefixHandle{}, best,
                                optimize_edp, stats, driver);
    for (int round = 0; round < max_rounds; ++round) {
        if (driver && driver->shouldStop())
            break;
        bool improved = false;
        // Neighbours are generated from the round's base mapping, and
        // each shares that base's levels below its lowest changed one:
        // evaluate through the memoized prefix terms of the base so only
        // the touched levels are recomputed.
        const Mapping base = best;
        std::vector<Neighbour> ns = neighbours(ba, base);
        for (auto &n : ns) {
            if (driver && driver->shouldStop())
                break;
            const EvalEngine::PrefixHandle ph =
                eng.prefix(ctx, base, n.prefixLevels);
            const double obj =
                objective(eng, ctx, ph, n.m, optimize_edp, stats, driver);
            if (obj < best_obj) {
                best_obj = obj;
                best = std::move(n.m);
                improved = true;
            }
        }
        if (!improved)
            break;
        if (stats)
            ++stats->movesAccepted;
    }
    return best;
}

} // namespace sunstone
