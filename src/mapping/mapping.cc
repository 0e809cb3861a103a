#include "mapping/mapping.hh"

#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace sunstone {

LevelMapping
LevelMapping::identity(int num_dims)
{
    LevelMapping lm;
    lm.temporal.assign(num_dims, 1);
    lm.spatial.assign(num_dims, 1);
    lm.order.resize(num_dims);
    std::iota(lm.order.begin(), lm.order.end(), 0);
    return lm;
}

std::int64_t
LevelMapping::spatialProduct() const
{
    std::int64_t p = 1;
    for (auto s : spatial)
        p = satMul(p, s);
    return p;
}

Mapping::Mapping(int num_levels, int num_dims)
{
    levels.assign(num_levels, LevelMapping::identity(num_dims));
}

std::vector<std::int64_t>
Mapping::tileShape(int l) const
{
    std::vector<std::int64_t> shape;
    tileShape(l, shape);
    return shape;
}

void
Mapping::tileShape(int l, std::vector<std::int64_t> &shape) const
{
    shape.assign(numDims(), 1);
    for (int k = 0; k <= l; ++k)
        for (int d = 0; d < numDims(); ++d)
            shape[d] =
                satMul(shape[d],
                       satMul(levels[k].temporal[d], levels[k].spatial[d]));
}

std::vector<std::int64_t>
Mapping::footprints(int l, const Workload &wl) const
{
    const auto shape = tileShape(l);
    std::vector<std::int64_t> fp(wl.numTensors());
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        fp[t] = wl.tensor(t).footprint(shape);
    return fp;
}

std::int64_t
Mapping::totalSpatial() const
{
    std::int64_t p = 1;
    for (const auto &lm : levels)
        p = satMul(p, lm.spatialProduct());
    return p;
}

bool
Mapping::valid(const BoundArch &ba, std::string *why) const
{
    // Non-hot callers go through a per-thread scratch; the cost model's
    // fast path supplies its own (embedded in EvalScratch).
    thread_local ValidityScratch vs;
    return valid(ba, vs, why);
}

bool
Mapping::valid(const BoundArch &ba, ValidityScratch &vs,
               std::string *why) const
{
    const Workload &wl = ba.workload();
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (numLevels() != ba.numLevels())
        return fail("level count mismatch");
    if (numDims() != wl.numDims())
        return fail("dimension count mismatch");

    // Factor products must reconstruct the problem exactly.
    for (DimId d = 0; d < wl.numDims(); ++d) {
        std::int64_t prod = 1;
        for (const auto &lm : levels)
            prod = satMul(prod, satMul(lm.temporal[d], lm.spatial[d]));
        if (prod != wl.dimSize(d))
            return fail("factors of dim '" + wl.dimName(d) +
                        "' multiply to " + std::to_string(prod) +
                        ", expected " + std::to_string(wl.dimSize(d)));
    }

    // Orders must be permutations; spatial products must fit fanouts.
    for (int l = 0; l < numLevels(); ++l) {
        const auto &lm = levels[l];
        if ((int)lm.order.size() != wl.numDims())
            return fail("bad order length at level " + std::to_string(l));
        vs.seen.assign(wl.numDims(), 0);
        for (DimId d : lm.order) {
            if (d < 0 || d >= wl.numDims() || vs.seen[d])
                return fail("order at level " + std::to_string(l) +
                            " is not a permutation");
            vs.seen[d] = 1;
        }
        const auto &lv = ba.arch().levels[l];
        if (lm.spatialProduct() > lv.fanout)
            return fail("spatial product exceeds fanout at level '" +
                        lv.name + "'");
        if (lv.meshX > 0) {
            // The spatial factors must pack onto the physical X x Y
            // mesh: some subset's product <= meshX with the complement's
            // product <= meshY. Dimension counts are tiny, so subsets
            // are enumerated directly.
            auto &factors = vs.meshFactors;
            factors.clear();
            for (DimId d = 0; d < wl.numDims(); ++d)
                if (lm.spatial[d] > 1)
                    factors.push_back(lm.spatial[d]);
            bool packable = false;
            const std::size_t n = factors.size();
            for (std::size_t mask = 0; mask < (std::size_t(1) << n);
                 ++mask) {
                std::int64_t x = 1, y = 1;
                for (std::size_t i = 0; i < n; ++i) {
                    if (mask & (std::size_t(1) << i))
                        x = satMul(x, factors[i]);
                    else
                        y = satMul(y, factors[i]);
                }
                if (x <= lv.meshX && y <= lv.meshY) {
                    packable = true;
                    break;
                }
            }
            if (!packable)
                return fail("spatial factors do not pack onto the " +
                            std::to_string(lv.meshX) + "x" +
                            std::to_string(lv.meshY) +
                            " mesh at level '" + lv.name + "'");
        }
    }

    // Every stored tile must fit its level. The cumulative shape
    // accumulates across levels (satMul folds in the same inner-to-outer
    // order tileShape() uses, so the products are identical), turning
    // the historical O(levels^2) re-derivation into one pass.
    vs.shape.assign(wl.numDims(), 1);
    for (int l = 0; l < numLevels(); ++l) {
        const auto &lm = levels[l];
        for (DimId d = 0; d < wl.numDims(); ++d)
            vs.shape[d] = satMul(
                vs.shape[d], satMul(lm.temporal[d], lm.spatial[d]));
        if (!ba.fitsShape(l, vs.shape))
            return fail("tile does not fit level '" +
                        ba.arch().levels[l].name + "'");
    }
    return true;
}

std::string
Mapping::toString(const BoundArch &ba) const
{
    const Workload &wl = ba.workload();
    std::ostringstream os;
    int indent = 0;
    auto pad = [&] {
        for (int i = 0; i < indent; ++i)
            os << "  ";
    };
    for (int l = numLevels() - 1; l >= 0; --l) {
        const auto &lm = levels[l];
        pad();
        os << "[" << ba.arch().levels[l].name << "]";
        bool any_spatial = false;
        for (DimId d = 0; d < wl.numDims(); ++d) {
            if (lm.spatial[d] > 1) {
                os << " parallel-for " << wl.dimName(d) << " in 0.."
                   << lm.spatial[d];
                any_spatial = true;
            }
        }
        if (!any_spatial)
            os << " (no spatial unrolling)";
        os << "\n";
        ++indent;
        for (DimId d : lm.order) {
            if (lm.temporal[d] <= 1)
                continue;
            pad();
            os << "for " << wl.dimName(d) << " in 0.." << lm.temporal[d]
               << "\n";
            ++indent;
        }
    }
    pad();
    os << "compute\n";
    return os.str();
}

Mapping
naiveMapping(const BoundArch &ba)
{
    const Workload &wl = ba.workload();
    Mapping m(ba.numLevels(), wl.numDims());
    const int top = ba.numLevels() - 1;
    for (DimId d = 0; d < wl.numDims(); ++d)
        m.level(top).temporal[d] = wl.dimSize(d);
    return m;
}

} // namespace sunstone
