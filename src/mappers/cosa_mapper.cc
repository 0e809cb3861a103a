#include "mappers/cosa_mapper.hh"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"

namespace sunstone {

namespace {

/** Real-valued tensor footprint for a fractional tile shape. */
double
realFootprint(const TensorSpec &ts, const std::vector<double> &shape)
{
    double fp = 1;
    for (const auto &r : ts.ranks) {
        double e = 1;
        for (const auto &term : r.terms)
            e += term.coeff * (shape[term.dim] - 1.0);
        fp *= e;
    }
    return fp;
}

/**
 * Fill fraction of one level for a fractional shape: the maximum over
 * its capacity groups of used/usable bits.
 */
double
fillFraction(const BoundArch &ba, int level,
             const std::vector<double> &shape)
{
    const Workload &wl = ba.workload();
    double worst = 0;
    for (const auto &g : ba.capacityGroups(level)) {
        double bits = 0;
        for (const auto &mb : g.members)
            bits += realFootprint(wl.tensor(mb.tensor), shape) *
                    static_cast<double>(mb.wordBits);
        worst = std::max(worst, bits / static_cast<double>(g.limitBits));
    }
    return worst;
}

/** Nearest divisor of n to the real target, in log space. */
std::int64_t
nearestDivisor(std::int64_t n, double target)
{
    if (target <= 1)
        return 1;
    std::int64_t best = 1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::int64_t d : cachedDivisors(n)) {
        const double dist = std::abs(std::log(static_cast<double>(d)) -
                                     std::log(target));
        if (dist < best_dist) {
            best_dist = dist;
            best = d;
        }
    }
    return best;
}

/** The one mapping CoSA's relaxation commits to. */
class SingleShotStream : public CandidateStream
{
  public:
    explicit SingleShotStream(Mapping m) : m_(std::move(m)) {}

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        out.resize(max > 0 && !emitted_ ? 1 : 0);
        if (!out.empty()) {
            out[0] = m_;
            emitted_ = true;
        }
        return false;
    }

    ResumeMode resumeMode() const override { return ResumeMode::Replay; }

  private:
    Mapping m_;
    bool emitted_ = false;
};

} // anonymous namespace

CosaMapper::CosaMapper(CosaOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
CosaMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    const int nl = ba.numLevels();
    const int nd = wl.numDims();

    Mapping m(nl, nd);
    std::vector<std::int64_t> rem = wl.shape();

    // Phase 1: one-shot spatial assignment — fill every fanout with the
    // largest-divisor factors of the largest dims (CoSA's utilization
    // objective, linearized).
    for (int l = 0; l < nl; ++l) {
        std::int64_t budget = arch.levels[l].fanout;
        if (budget <= 1)
            continue;
        std::vector<DimId> dims(nd);
        for (DimId d = 0; d < nd; ++d)
            dims[d] = d;
        std::sort(dims.begin(), dims.end(), [&](DimId a, DimId b) {
            return rem[a] > rem[b];
        });
        for (DimId d : dims) {
            if (budget <= 1)
                break;
            const std::int64_t f = largestDivisorAtMost(rem[d], budget);
            m.level(l).spatial[d] = f;
            rem[d] /= f;
            budget /= f;
        }
    }

    // Phase 2: relaxed temporal allocation, inner to outer. A single
    // real-valued growth multiplier per level fills the buffer to the
    // target utilization; the relaxation is then rounded to the nearest
    // divisors (this is the lossy step).
    for (int l = 0; l + 1 < nl; ++l) {
        auto int_shape = m.tileShape(l);
        std::vector<double> shape(int_shape.begin(), int_shape.end());
        if (fillFraction(ba, l, shape) >= opts.targetUtilization)
            continue; // already full from below

        // Binary search the uniform growth multiplier g until the
        // tightest partition reaches the target fill.
        double lo = 1.0, hi = 1.0;
        auto grown = [&](double g) {
            std::vector<double> s(shape);
            for (DimId d = 0; d < nd; ++d)
                s[d] *= std::min(static_cast<double>(rem[d]), g);
            return s;
        };
        while (fillFraction(ba, l, grown(hi)) < opts.targetUtilization &&
               hi < 1e12) {
            bool can_grow = false;
            for (DimId d = 0; d < nd; ++d)
                if (rem[d] > hi)
                    can_grow = true;
            if (!can_grow)
                break;
            hi *= 2;
        }
        for (int it = 0; it < 60; ++it) {
            const double mid = std::sqrt(lo * hi);
            if (fillFraction(ba, l, grown(mid)) < opts.targetUtilization)
                lo = mid;
            else
                hi = mid;
        }
        for (DimId d = 0; d < nd; ++d) {
            const double target =
                std::min(static_cast<double>(rem[d]), lo);
            const std::int64_t f = nearestDivisor(rem[d], target);
            m.level(l).temporal[d] = f;
            rem[d] /= f;
        }
    }

    // Residual loops to DRAM; canonical orders throughout.
    for (DimId d = 0; d < nd; ++d)
        m.level(nl - 1).temporal[d] = rem[d];

    EvalEngine &eng = sc.engine();

    // One-shot construction: the driver evaluates the single candidate,
    // so the convergence trajectory is the one point the solver commits
    // to and the stop reason is "exhausted".
    SearchDriver drv(sc, eng, ba, displayName, /*optimize_edp=*/true);
    SingleShotStream stream(m);
    DriverOutcome o = drv.run(stream);
    MapperResult result = toMapperResult(o, "");
    if (!o.found) {
        // Keep reporting the committed (invalid) mapping and its cost
        // breakdown — Figs. 7-8 chart CoSA's failures by reason.
        result.mapping = m;
        result.cost = eng.evaluate(eng.context(ba), m);
    }
    return result;
}

double
CosaMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::cosaSpace(ba);
}

} // namespace sunstone
