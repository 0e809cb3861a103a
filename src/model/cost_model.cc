#include "model/cost_model.hh"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "arch/energy_model.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"

namespace sunstone {

void
EvalScratch::prepare(const BoundArch &ba)
{
    // Keyed on the binding's process-unique uid, not on the buffer
    // dimensions: bypass/residency variants of one architecture share
    // (nl, nt, nd) but must never share the per-binding invariants.
    if (ba.uid() == baUid) {
        ++reuses;
        return;
    }
    baUid = ba.uid();
    const Workload &wl = ba.workload();
    const int want_nl = ba.numLevels();
    const int want_nt = ba.numTensors();
    const int want_nd = wl.numDims();
    if (want_nl != nl || want_nt != nt || want_nd != nd) {
        // Size-keyed buffers; when only the binding changed (same
        // dimensions) they are kept — every one of them is rebuilt or
        // overwritten per evaluation, so no per-binding state survives
        // in them. Only the invariants below carry binding state, and
        // those are recomputed on every uid change.
        nl = want_nl;
        nt = want_nt;
        nd = want_nd;
        access.assign(static_cast<std::size_t>(nl) * nt, AccessCounts{});
        shapes.resize(nl);
        for (auto &row : shapes)
            row.assign(nd, 1);
        levelSpatial.assign(nl, 1);
        loopBegin.assign(nl + 1, 0);
        spatialUp.assign(nd, 1);
        // fillLoops() and fillFirstIdx() write these through raw
        // pointers up to the nl * nd maximum; loopBegin[nl] carries the
        // live count, so the tails are never read.
        loopDim.assign(static_cast<std::size_t>(nl) * nd, 0);
        loopFactor.assign(static_cast<std::size_t>(nl) * nd, 1);
        loopSuffix.assign(static_cast<std::size_t>(nl) * nd + 1, 1);
        firstIdx.assign(static_cast<std::size_t>(nl) * nd + 1, -1);
        spatialSuffix.assign(nl + 1, 1);
        tileFp.assign(static_cast<std::size_t>(nl) * nt, 0);
    }
    tileFpReady = false;

    // countAccess() re-zeroes only the cells on some storage chain (the
    // only ones it ever writes); cells off every chain must read zero,
    // so they are cleared here whenever the binding — and with it the
    // chain structure — changes.
    std::fill(access.begin(), access.end(), AccessCounts{});

    // Per-binding invariants, hoisted out of the per-evaluation path.
    totalOps = wl.totalOps();
    problemFp.resize(nt);
    idxDims.resize(nt);
    chainFlat.clear();
    chainBegin.assign(nt + 1, 0);
    rankBegin.assign(nt + 1, 0);
    termBegin.assign(1, 0);
    termDim.clear();
    termCoeff.clear();
    for (TensorId t = 0; t < nt; ++t) {
        problemFp[t] = wl.tensor(t).footprint(wl.shape());
        idxDims[t] = wl.reuse(t).indexing;
        chainBegin[t] = static_cast<int>(chainFlat.size());
        for (int l = 0; l < nl; ++l)
            if (ba.stores(l, t))
                chainFlat.push_back(l);

        // Flatten the tensor's index structure with per-dim merged
        // coefficients (a dim may appear in several terms; their
        // coefficients add, distributing over the shared (shape - 1)).
        rankBegin[t] = static_cast<int>(termBegin.size()) - 1;
        for (const IndexExpr &rank : wl.tensor(t).ranks) {
            const std::size_t base = termDim.size();
            for (const IndexTerm &term : rank.terms) {
                std::size_t i = base;
                while (i < termDim.size() && termDim[i] != term.dim)
                    ++i;
                if (i == termDim.size()) {
                    termDim.push_back(term.dim);
                    termCoeff.push_back(term.coeff);
                } else {
                    termCoeff[i] += term.coeff;
                }
            }
            termBegin.push_back(static_cast<int>(termDim.size()));
        }
    }
    chainBegin[nt] = static_cast<int>(chainFlat.size());
    rankBegin[nt] = static_cast<int>(termBegin.size()) - 1;
    rankExt.assign(static_cast<std::size_t>(nl) * rankBegin[nt], 0);

    chainFan.assign(chainFlat.size(), 1);
    chainHops.assign(chainFlat.size(), 1.0);
    for (TensorId t = 0; t < nt; ++t)
        for (int i = chainBegin[t] + 1; i < chainBegin[t + 1]; ++i) {
            std::int64_t fan = 1;
            for (int l = chainFlat[i - 1] + 1; l <= chainFlat[i]; ++l)
                fan = satMul(fan, ba.arch().levels[l].fanout);
            chainFan[i] = fan;
            chainHops[i] = std::sqrt((double)fan);
        }

    nonMcPrefix.assign(nl + 1, 0);
    for (int l = 0; l < nl; ++l) {
        const auto &lv = ba.arch().levels[l];
        nonMcPrefix[l + 1] =
            nonMcPrefix[l] + (lv.fanout > 1 && !lv.multicast ? 1 : 0);
    }
}

EvalScratch &
threadEvalScratch()
{
    thread_local EvalScratch scratch;
    return scratch;
}

namespace {

/**
 * Rebuilds s.firstIdx for a tensor: firstIdx[i] is the position of the
 * first linearized loop at >= i over one of the tensor's indexing dims
 * (-1 when none). With it, the tile-change events of paper Eqs. 1-3 —
 * "skip the trailing run of non-indexing loops, then count everything
 * above" — become a single loopSuffix lookup.
 */
inline void
fillFirstIdx(EvalScratch &s, DimSet idx)
{
    const int nloops = s.loopBegin[s.nl];
    s.firstIdx[nloops] = -1;
    for (int i = nloops - 1; i >= 0; --i)
        s.firstIdx[i] = idx.contains(s.loopDim[i]) ? i : s.firstIdx[i + 1];
}

/** Continues the spatial-factor product over levels [from, hi]. */
std::int64_t
spatialRangeFrom(const EvalScratch &s, int from, int hi, std::int64_t p)
{
    for (int l = from; l <= hi; ++l)
        p = satMul(p, s.levelSpatial[l]);
    return p;
}

/** Product of all spatial factors at levels in (lo, hi]. */
std::int64_t
spatialRange(const EvalScratch &s, int lo, int hi)
{
    return spatialRangeFrom(s, lo + 1, hi, 1);
}

/**
 * Per-dim spatial factors of the levels in (c, l], the fan-out of one
 * consumer tile to its multicast group. An adjacent pair (the whole
 * chain when nothing is bypassed) reads level l's own row, since a
 * one-level satMul fold is the factor itself; a multi-hop pair folds
 * the range into s.spatialUp.
 */
inline const std::int64_t *
spatialUpRange(const Mapping &m, EvalScratch &s, int c, int l)
{
    if (l == c + 1)
        return m.level(l).spatial.data();
    auto &up = s.spatialUp;
    std::fill(up.begin(), up.end(), std::int64_t{1});
    for (int j = c + 1; j <= l; ++j)
        for (DimId d = 0; d < s.nd; ++d)
            up[d] = satMul(up[d], m.level(j).spatial[d]);
    return up.data();
}

/**
 * Clamped accumulation-read count: `arriving` partials minus the
 * `distinct` words that absorb a first write for free. Exotic output
 * chains (e.g. strided output ranks whose dense footprint exceeds the
 * operation count) can make the difference negative; clamping keeps an
 * underflow from ever *reducing* the energy sum.
 */
std::int64_t
accumReadsFor(std::int64_t arriving, std::int64_t distinct)
{
    // Negative inputs would mean an upstream counter already
    // underflowed; catch that loudly in debug builds.
    assert(arriving >= 0 && distinct >= 0);
    return std::max<std::int64_t>(0, arriving - distinct);
}

/**
 * Extent of scratch rank `r` (merged (dim, coeff) pairs, see
 * EvalScratch::termDim) over a cumulative shape row: bit-identical to
 * IndexExpr::extent() because coefficient merging distributes over the
 * shared (shape[d] - 1) factor.
 */
inline std::int64_t
rankExtent(const EvalScratch &s, int r, const std::int64_t *shape)
{
    std::int64_t e = 1;
    for (int i = s.termBegin[r]; i < s.termBegin[r + 1]; ++i)
        e += s.termCoeff[i] * (shape[s.termDim[i]] - 1);
    return e;
}

/**
 * TensorSpec::footprint() over the scratch's flattened index structure:
 * the same satMul fold over the same rank extents, without rescanning
 * the TensorSpec term lists per evaluation.
 */
inline std::int64_t
scratchFootprint(const EvalScratch &s, TensorId t,
                 const std::int64_t *shape)
{
    std::int64_t fp = 1;
    for (int r = s.rankBegin[t]; r < s.rankBegin[t + 1]; ++r)
        fp = satMul(fp, rankExtent(s, r, shape));
    return fp;
}

/**
 * Distinct words of tensor `t` delivered per tile-change event to the
 * whole multicast group: the union, over every spatial instance in
 * (c, l], of the dense per-rank tile boxes (Eq. 5 with exact halo
 * sharing).
 *
 * Per rank the child boxes are intervals of length extent(shape_c)
 * whose starts form the lattice {sum_d coeff_d * i_d * shape_c[d]}
 * with i_d < spatial_up[d]. When adjacent starts are no further apart
 * than the interval length the union is contiguous and this reproduces
 * the paper's enlarged-tile footprint exactly; when a stride opens gaps
 * (e.g. strided convolution with no halo in the consumer tile) the
 * enlarged-tile formula overcounts and the interval merge below is the
 * correct count. Ranks are combined as a product, mirroring the dense
 * per-rank box storage convention used by footprint(). The rank/term
 * structure comes from the scratch's per-binding flattened index tables
 * (coefficients already merged per dim), so no TensorSpec scan happens
 * here; the interval-union result is order-independent, so walking
 * pairs in first-appearance instead of ascending-dim order changes
 * nothing.
 */
std::int64_t
multicastDistinctWords(EvalScratch &s, TensorId t,
                       const std::int64_t *shape_c,
                       const std::int64_t *spatial_up, int ext_row)
{
    // ext_row >= 0 selects a row of per-rank extents the fits pass
    // already computed for shape_c (bit-identical values); -1 recomputes
    // (DRAM consumer, or validity was skipped).
    const std::int64_t *cached =
        ext_row >= 0 ? s.rankExt.data() +
                           static_cast<std::size_t>(ext_row) *
                               s.rankBegin[s.nt]
                     : nullptr;
    std::int64_t words = 1;
    for (int r = s.rankBegin[t]; r < s.rankBegin[t + 1]; ++r) {
        const std::int64_t ext =
            cached ? cached[r] : rankExtent(s, r, shape_c);

        // Per-dim start stride within this rank.
        auto &split = s.split;
        split.clear();
        for (int i = s.termBegin[r]; i < s.termBegin[r + 1]; ++i) {
            const DimId d = s.termDim[i];
            if (spatial_up[d] <= 1)
                continue;
            split.emplace_back(satMul(s.termCoeff[i], shape_c[d]),
                               spatial_up[d]);
        }

        std::int64_t rank_words;
        if (split.empty()) {
            // Every instance holds the same interval along this rank.
            rank_words = ext;
        } else if (split.size() == 1) {
            // Arithmetic progression of starts: closed-form merge.
            const auto [stride, count] = split[0];
            rank_words = stride <= ext
                             ? satMul(stride, count - 1) + ext
                             : satMul(ext, count);
        } else {
            // Several spatially split dims feed one rank: enumerate the
            // start lattice and merge intervals. The lattice size is
            // bounded by the spatial product of the range, which is at
            // most the machine's total fanout.
            auto &starts = s.starts;
            starts.assign(1, 0);
            for (const auto &[stride, count] : split) {
                auto &next = s.startsNext;
                next.clear();
                next.reserve(starts.size() *
                             static_cast<std::size_t>(count));
                for (std::int64_t st : starts)
                    for (std::int64_t i = 0; i < count; ++i)
                        next.push_back(st + satMul(i, stride));
                starts.swap(next);
            }
            std::sort(starts.begin(), starts.end());
            rank_words = 0;
            std::int64_t covered_to =
                std::numeric_limits<std::int64_t>::min();
            for (std::int64_t st : starts) {
                const std::int64_t b = std::max(st, covered_to);
                const std::int64_t e = st + ext;
                if (e > b) {
                    rank_words += e - b;
                    covered_to = e;
                }
            }
        }
        words = satMul(words, rank_words);
    }
    return words;
}

/**
 * Shape half of fillTables(): cumulative tile shapes and
 * per-level spatial products. Reads only the factor arrays (never
 * lm.order), so it is safe to run before order validation; the column
 * folds are the exact satMul chains the per-dim factor-product check
 * accumulates, and the spatial fold matches LevelMapping::
 * spatialProduct(), so both checks can read the tables instead of
 * recomputing.
 */
void
fillShapes(const Mapping &m, EvalScratch &s)
{
    s.tileFpReady = false;
    const std::int64_t *prev = nullptr;
    for (int l = 0; l < s.nl; ++l) {
        const auto &lm = m.level(l);
        const std::int64_t *tf = lm.temporal.data();
        const std::int64_t *sf = lm.spatial.data();
        std::int64_t *row = s.shapes[l].data();
        std::int64_t sp = 1;
        for (DimId d = 0; d < s.nd; ++d) {
            const std::int64_t own = satMul(tf[d], sf[d]);
            row[d] = prev ? satMul(prev[d], own) : own;
            sp = satMul(sp, sf[d]);
        }
        prev = row;
        s.levelSpatial[l] = sp;
    }
}

/**
 * Loop half of fillTables(): the linearized temporal nest and
 * the suffix products. Walks lm.order with the DimIds as indices, so
 * orders must be validated (or trusted via assumeValid) first.
 */
/**
 * Appends level l's temporal loops (innermost first: lm.order is
 * outermost-first, so it is walked in reverse) to the linearized nest.
 * The loop tables are pre-sized to the nl * nd maximum by prepare();
 * writing through raw pointers with a running count keeps this off the
 * allocator and out of push_back's capacity checks (this is the hottest
 * fixed cost of every evaluation). Split per level so checkValid() can
 * collect loops inside the level walk it already does for validation.
 *
 * @return the running loop count after this level.
 */
inline int
fillLoopsLevel(const LevelMapping &lm, EvalScratch &s, int l, int n)
{
    DimId *ld = s.loopDim.data();
    std::int64_t *lf = s.loopFactor.data();
    const std::int64_t *tf = lm.temporal.data();
    const DimId *ord = lm.order.data();
    s.loopBegin[l] = n;
    for (std::size_t i = lm.order.size(); i-- > 0;) {
        const DimId d = ord[i];
        if (tf[d] > 1) {
            ld[n] = d;
            lf[n] = tf[d];
            ++n;
        }
    }
    return n;
}

/**
 * Suffix products over the collected nest. These make every
 * tile-change-event and spatial-range query O(1) per chain pair: the
 * per-pair walks the paper's Eqs. 1-3 describe always run to the
 * outermost loop, so they are suffixes of one shared product (fold-order
 * independence of satMul over operands >= 1 keeps this bit-exact,
 * saturation included).
 */
inline void
finishLoopTables(EvalScratch &s, int nloops)
{
    s.loopBegin[s.nl] = nloops;
    s.loopSuffix[nloops] = 1;
    for (int i = nloops - 1; i >= 0; --i)
        s.loopSuffix[i] = satMul(s.loopFactor[i], s.loopSuffix[i + 1]);
    s.spatialSuffix[s.nl] = 1;
    for (int l = s.nl - 1; l >= 0; --l)
        s.spatialSuffix[l] = satMul(s.levelSpatial[l],
                                    s.spatialSuffix[l + 1]);
}

void
fillLoops(const Mapping &m, EvalScratch &s)
{
    int n = 0;
    for (int l = 0; l < s.nl; ++l)
        n = fillLoopsLevel(m.level(l), s, l, n);
    finishLoopTables(s, n);
}

void
appendPart(std::string &s, std::string_view part)
{
    s.append(part);
}

void
appendPart(std::string &s, std::int64_t v)
{
    char buf[24];
    s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/**
 * Writes a failure reason into *why in place, and only when the caller
 * asked for one. Random search rejects most of its samples, so the
 * reason must not cost a temporary string per part: the parts append
 * into the caller's (reused) buffer, integers formatted on the stack
 * exactly as std::to_string() would.
 * @return false, for `return fail(...)`.
 */
template <typename... Parts>
bool
fail(std::string *why, const Parts &...parts)
{
    if (why) {
        why->clear();
        (appendPart(*why, parts), ...);
    }
    return false;
}

/** Resets `res` to a freshly constructed state, reusing capacity. */
void
resetCostResult(CostResult &res, int nl, int nt)
{
    res.valid = false;
    res.invalidReason.clear();
    res.access.resize(nl);
    for (auto &row : res.access)
        row.assign(nt, AccessCounts{});
    res.levelEnergyPj.assign(nl, 0.0);
    res.macEnergyPj = 0;
    res.nocEnergyPj = 0;
    res.totalEnergyPj = 0;
    res.cycles = 0;
    res.delaySeconds = 0;
    res.edp = 0;
    res.utilization = 0;
    res.bottleneck.clear();
}

/**
 * Fills the per-mapping tables: cumulative tile shapes, per-level spatial
 * products, and the linearized temporal loop nest (innermost first;
 * within a level the mapping order is outermost-first, so it is walked
 * in reverse, exactly like the historical loopsAbove()). The two halves
 * (fillShapes / fillLoops) are split so checkValid() can build the shape
 * tables before order validation and the loop tables after.
 */
void
fillTables(const Mapping &m, EvalScratch &s)
{
    fillShapes(m, s);
    fillLoops(m, s);
}

} // anonymous namespace

namespace detail {

/**
 * Mirror of Mapping::valid() for the evaluation fast path: identical
 * checks, order, and failure strings (pinned by
 * EvalEquivalence.CheckValidMatchesMappingValid — any edit here must be
 * mirrored in mapping.cc and vice versa).
 * The difference is purely mechanical: the shape tables are built once
 * up front (fillShapes reads only the factor arrays, which are safe
 * before order validation) and every product the standalone check folds
 * per dim or per level is read back out of them — the outermost
 * cumulative shape row IS the per-dim factor product, levelSpatial IS
 * the per-level spatial product, both by the identical satMul chains —
 * and the fits pass records the per-(level, tensor) footprints in
 * s.tileFp, so a subsequent countAccess() never recomputes a tile
 * footprint the fits checks already priced.
 */
bool
checkValid(const BoundArch &ba, const Mapping &m, EvalScratch &s,
           std::string *why)
{
    const Workload &wl = ba.workload();
    if (m.numLevels() != ba.numLevels())
        return fail(why, "level count mismatch");
    if (m.numDims() != wl.numDims())
        return fail(why, "dimension count mismatch");

    fillShapes(m, s);

    // Factor products must reconstruct the problem exactly: the
    // outermost cumulative shape is the same satMul fold (same pairing,
    // same inner-to-outer order, saturation included) the standalone
    // check accumulates per dim.
    const std::int64_t *outer =
        s.nl > 0 ? s.shapes[s.nl - 1].data() : nullptr;
    for (DimId d = 0; d < wl.numDims(); ++d) {
        const std::int64_t prod = outer ? outer[d] : 1;
        if (prod != wl.dimSize(d))
            return fail(why, "factors of dim '", wl.dimName(d),
                        "' multiply to ", prod, ", expected ",
                        wl.dimSize(d));
    }

    // Orders must be permutations; spatial products must fit fanouts.
    // The same walk collects the level's temporal loops (safe once the
    // permutation check has vetted the order entries), so the nest build
    // needs no second pass over the levels.
    auto &seen = s.validity.seen;
    if ((int)seen.size() != wl.numDims())
        seen.resize(wl.numDims());
    int nloops = 0;
    for (int l = 0; l < m.numLevels(); ++l) {
        const auto &lm = m.level(l);
        if ((int)lm.order.size() != wl.numDims())
            return fail(why, "bad order length at level ", l);
        char *seen_p = seen.data();
        for (DimId d = 0; d < wl.numDims(); ++d)
            seen_p[d] = 0;
        for (DimId d : lm.order) {
            if (d < 0 || d >= wl.numDims() || seen_p[d])
                return fail(why, "order at level ", l,
                            " is not a permutation");
            seen_p[d] = 1;
        }
        nloops = fillLoopsLevel(lm, s, l, nloops);
        const auto &lv = ba.arch().levels[l];
        if (s.levelSpatial[l] > lv.fanout)
            return fail(why, "spatial product exceeds fanout at level '",
                        lv.name, "'");
        if (lv.meshX > 0) {
            // The spatial factors must pack onto the physical X x Y
            // mesh: some subset's product <= meshX with the complement's
            // product <= meshY. Dimension counts are tiny, so subsets
            // are enumerated directly.
            auto &factors = s.validity.meshFactors;
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
                return fail(why, "spatial factors do not pack onto the ",
                            lv.meshX, "x", lv.meshY, " mesh at level '",
                            lv.name, "'");
        }
    }

    // Every stored tile must fit its level. The loop collection above
    // covered every level, so only the suffix products remain.
    finishLoopTables(s, nloops);
    auto &fp_row = s.validity.footprints;
    fp_row.resize(wl.numTensors());
    const int nranks = s.rankBegin[s.nt];
    for (int l = 0; l < m.numLevels(); ++l) {
        if (ba.arch().levels[l].isDram)
            continue;
        const std::int64_t *shape = s.shapes[l].data();
        std::int64_t *ext_row =
            s.rankExt.data() + static_cast<std::size_t>(l) * nranks;
        for (TensorId t = 0; t < wl.numTensors(); ++t) {
            // scratchFootprint()'s fold, recording each rank extent for
            // the multicast union to reuse (same values, same order).
            std::int64_t fp = 1;
            for (int r = s.rankBegin[t]; r < s.rankBegin[t + 1]; ++r) {
                const std::int64_t e = rankExtent(s, r, shape);
                ext_row[r] = e;
                fp = satMul(fp, e);
            }
            fp_row[t] = fp;
            s.tileFp[static_cast<std::size_t>(l) * s.nt + t] = fp;
        }
        if (!ba.fits(l, fp_row))
            return fail(why, "tile does not fit level '",
                        ba.arch().levels[l].name, "'");
    }
    s.tileFpReady = true;
    return true;
}

} // namespace detail

namespace {

/**
 * The integer half of the one true evaluation: computes every
 * per-(level, tensor) access contribution into the scratch arena. When
 * `prefix` is non-null, chain pairs lying entirely below
 * prefix->prefixLevels reuse the cached contribution terms and only the
 * undecided suffix is walked.
 *
 * Bit-identity contract: both paths execute the same satMul chains on
 * the same operands (satMul is a fold over factors >= 1, so a cached
 * prefix product continued over the suffix — or a precomputed suffix
 * product — reproduces the full fold exactly), and the NoC energy is
 * accumulated in chain-pair order, exactly as the historical monolithic
 * evaluateMapping() did.
 */
double
countAccess(const BoundArch &ba, const Mapping &m,
            const CostModelOptions &opts, const PrefixTerms *prefix,
            EvalScratch &s)
{
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    const int nt = s.nt;
    double noc_energy_pj = 0;
    // Hoisted out of the per-pair loops: these are cross-TU constant
    // fetches, and the pair loops below otherwise re-call them for
    // every (tensor, chain-pair) of every evaluation.
    const double noc_hop_pj_per_bit = energy::nocHopPjPerBit();
    const double tag_check_pj_per_word = energy::tagCheckPjPerWord();

    // Zero only the chain-member cells: countAccess() writes nothing
    // else, and prepare() cleared the off-chain cells when the binding
    // was installed (they stay zero across evaluations).
    for (TensorId t = 0; t < nt; ++t)
        for (int i = s.chainBegin[t]; i < s.chainBegin[t + 1]; ++i)
            s.access[static_cast<std::size_t>(s.chainFlat[i]) * nt + t] =
                AccessCounts{};
    SUNSTONE_ASSERT(prefix == nullptr ||
                        static_cast<int>(prefix->tensors.size()) == nt,
                    "prefix terms built for a different workload");

    const std::int64_t ops = s.totalOps;
    const int prefix_levels = prefix ? prefix->prefixLevels : 0;

    for (TensorId t = 0; t < nt; ++t) {
        const TensorSpec &ts = wl.tensor(t);
        const std::int64_t problem_fp = s.problemFp[t];
        const DimSet idx = s.idxDims[t];

        // Storage chain, innermost first (cached per binding).
        const int *chain = s.chainFlat.data() + s.chainBegin[t];
        const std::size_t chain_len =
            static_cast<std::size_t>(s.chainBegin[t + 1] - s.chainBegin[t]);
        SUNSTONE_ASSERT(chain_len > 0, "tensor stored nowhere");

        // MAC-level consumption at the innermost storing level: one word
        // per operand per operation; outputs are read-modify-written.
        auto &inner = s.access[static_cast<std::size_t>(chain[0]) * nt + t];
        if (!ts.isOutput) {
            inner.reads += ops;
        } else {
            inner.updates += ops;
            inner.accumReads += accumReadsFor(ops, problem_fp);
        }

        if (chain_len > 1)
            fillFirstIdx(s, idx);

        // Transfers between consecutive storing levels.
        for (std::size_t i = 1; i < chain_len; ++i) {
            const int c = chain[i - 1];
            const int l = chain[i];

            // Fused-subgraph residency (DESIGN.md §13): an Ephemeral
            // tensor whose level-c tile spans the whole tensor is handed
            // off on chip — the producer's drain to DRAM and the
            // consumer's fill from DRAM never happen, so the entire
            // (c, DRAM) pair contributes nothing. Without full coverage
            // the tensor would be re-streamed and the DRAM leg is
            // charged exactly like a boundary tensor's.
            if (arch.levels[l].isDram &&
                ba.residency(t) == Residency::Ephemeral) {
                bool covered = true;
                for (DimId d : idx)
                    covered &= s.shapes[c][d] == wl.dimSize(d);
                if (covered)
                    continue;
            }

            const PrefixTerms::Pair *pp = nullptr;
            if (prefix && l < prefix_levels) {
                pp = &prefix->tensors[t].pairs[i - 1];
                SUNSTONE_ASSERT(pp->cached, "prefix pair not cached");
            }

            std::int64_t ev, n_above, fill_unit;
            std::int64_t spatial_all = 1;
            bool tile_cached = false;
            if (pp) {
                // Continue the cached prefix products over the suffix
                // tables: when the skip rule already started counting
                // inside the prefix, every remaining loop counts;
                // otherwise the first indexing loop at or above the
                // boundary restarts the product.
                if (pp->evStarted) {
                    ev = satMul(pp->evPrefix,
                                s.loopSuffix[s.loopBegin[prefix_levels]]);
                } else {
                    const int f = s.firstIdx[s.loopBegin[prefix_levels]];
                    ev = f < 0 ? pp->evPrefix
                               : satMul(pp->evPrefix, s.loopSuffix[f]);
                }
                n_above = satMul(pp->nAbovePrefix,
                                 s.spatialSuffix[prefix_levels]);
                fill_unit = pp->fillUnit;
            } else {
                const int f = s.firstIdx[s.loopBegin[c + 1]];
                ev = f < 0 ? 1 : s.loopSuffix[f];
                n_above = s.spatialSuffix[l + 1];
                spatial_all = spatialRange(s, c, l);
                // The consumer tile footprint was already computed by
                // the fits checks (same shapes, same satMul folds);
                // recompute only when validity was skipped or the
                // consumer is an exotic mid-stack DRAM level.
                tile_cached = s.tileFpReady && !arch.levels[c].isDram;
                const std::int64_t tile_c =
                    tile_cached
                        ? s.tileFp[static_cast<std::size_t>(c) * nt + t]
                        : scratchFootprint(s, t, s.shapes[c].data());
                fill_unit = satMul(spatial_all, tile_c);
            }
            // The pair's NoC terms are binding invariants (prepare()).
            const int pair = s.chainBegin[t] + static_cast<int>(i);
            const bool noc = opts.modelNoc && s.chainFan[pair] > 1;

            auto &at_l = s.access[static_cast<std::size_t>(l) * nt + t];
            auto &at_c = s.access[static_cast<std::size_t>(c) * nt + t];

            if (!ts.isOutput) {
                std::int64_t distinct;
                if (pp) {
                    distinct = pp->distinct;
                } else if (spatial_all == 1) {
                    // A single spatial instance in (c, l]: the union is
                    // that instance's own tile box, whose per-rank
                    // extent product is exactly fill_unit (= satMul(1,
                    // tile_c) = tile_c, the same fold the interval
                    // merge degenerates to) — with or without multicast
                    // support.
                    distinct = fill_unit;
                } else if (s.nonMcPrefix[l + 1] == s.nonMcPrefix[c + 1]) {
                    // Every network in (c, l] multicasts (O(1) prefix
                    // test): union of the consumer tiles across the
                    // spatial instances in the range — halo overlap is
                    // shared, and strided gaps are not charged (Eq. 5,
                    // exact).
                    distinct = multicastDistinctWords(
                        s, t, s.shapes[c].data(),
                        spatialUpRange(m, s, c, l), tile_cached ? c : -1);
                } else {
                    distinct = fill_unit;
                }
                const std::int64_t reads_l =
                    satMul(satMul(ev, distinct), n_above);
                const std::int64_t fills_c =
                    satMul(satMul(ev, fill_unit), n_above);
                at_l.reads += reads_l;
                at_c.fills += fills_c;

                if (noc) {
                    // chainHops caches sqrt((double)fan) — sqrt is
                    // correctly rounded, so the cached value is the one
                    // the historical inline computation produced.
                    noc_energy_pj += (double)reads_l * ts.wordBits *
                                     noc_hop_pj_per_bit * s.chainHops[pair];
                    noc_energy_pj +=
                        (double)fills_c * tag_check_pj_per_word;
                }
            } else {
                // Partial-sum drain: every consumer instance sends its
                // tile per event; the provider read-modify-writes.
                const std::int64_t upd_l =
                    satMul(satMul(ev, fill_unit), n_above);
                at_l.updates += upd_l;
                at_c.drains += upd_l;
                at_l.accumReads += accumReadsFor(upd_l, problem_fp);

                if (noc) {
                    noc_energy_pj += (double)upd_l * ts.wordBits *
                                     noc_hop_pj_per_bit * s.chainHops[pair];
                }
            }
        }
    }
    return noc_energy_pj;
}

/**
 * Total energy from the scratch counters, the one energy sum of the
 * model. Accumulation order is the historical one: levels outer, each
 * level's tensors into a per-level sum from 0.0 that is then added to
 * the total, then MAC, then NoC. `res`, when given, receives the
 * per-level and MAC terms.
 */
double
sumEnergy(const BoundArch &ba, const CostModelOptions &opts,
          const EvalScratch &s, double noc_energy_pj,
          CostResult *res = nullptr)
{
    const int nt = s.nt;
    double total = 0;
    for (int l = 0; l < s.nl; ++l) {
        double level = 0;
        for (TensorId t = 0; t < nt; ++t) {
            const auto &a = s.access[static_cast<std::size_t>(l) * nt + t];
            level += (double)a.totalReads() * ba.readEnergyPj(l, t) +
                     (double)a.totalWrites() * ba.writeEnergyPj(l, t);
        }
        if (res)
            res->levelEnergyPj[l] = level;
        total += level;
    }
    const double mac = (double)s.totalOps * ba.macEnergyPj() *
                       ba.workload().multipliesPerOp();
    if (res)
        res->macEnergyPj = mac;
    total += mac;
    if (opts.modelNoc)
        total += noc_energy_pj;
    return total;
}

/**
 * The floating-point half: the public access counts, energy, latency,
 * utilization, and EDP from the scratch counters.
 */
void
finalizeResult(const BoundArch &ba, const CostModelOptions &opts,
               const EvalScratch &s, double noc_energy_pj, CostResult &res)
{
    const ArchSpec &arch = ba.arch();
    const int nl = s.nl;
    const int nt = s.nt;
    const std::int64_t ops = s.totalOps;

    for (int l = 0; l < nl; ++l)
        std::copy_n(s.access.begin() + static_cast<std::ptrdiff_t>(l) * nt,
                    nt, res.access[l].begin());
    res.nocEnergyPj = noc_energy_pj;
    res.totalEnergyPj = sumEnergy(ba, opts, s, noc_energy_pj, &res);

    // Latency: double buffering overlaps compute with every level's
    // transfers, so delay is the max of all of them.
    const std::int64_t lanes =
        std::max<std::int64_t>(1, s.spatialSuffix[0]);
    double cycles = (double)ops / (double)lanes;
    res.bottleneck = "compute";
    for (int l = 0; l < nl; ++l) {
        const auto &lv = arch.levels[l];
        const double inst = (double)s.spatialSuffix[l + 1];
        double reads = 0, writes = 0;
        for (TensorId t = 0; t < nt; ++t) {
            reads += (double)res.access[l][t].totalReads();
            writes += (double)res.access[l][t].totalWrites();
        }
        // A non-positive bandwidth with pending traffic is an infinite
        // bottleneck, not a division hazard: 0/0 would yield NaN, and a
        // NaN never compares greater, silently hiding the stall.
        auto dir_cycles = [inst](double words, double bw) {
            if (words <= 0)
                return 0.0;
            if (bw <= 0)
                return std::numeric_limits<double>::infinity();
            return words / (bw * inst);
        };
        const double level_cycles =
            std::max(dir_cycles(reads, lv.readBwWordsPerCycle),
                     dir_cycles(writes, lv.writeBwWordsPerCycle));
        if (level_cycles > cycles) {
            cycles = level_cycles;
            res.bottleneck = std::isinf(level_cycles)
                                 ? lv.name + " (zero bandwidth)"
                                 : lv.name;
        }
    }
    res.cycles = cycles;
    res.delaySeconds = cycles / (arch.clockGhz * 1e9);
    res.utilization =
        (double)lanes / (double)std::max<std::int64_t>(1,
                                                       arch.totalFanout());
    res.edp = res.totalEnergyPj * 1e-12 * res.delaySeconds;
}

/**
 * The stages both entry points share, on a prepared scratch: validity
 * (or only the tables under assumeValid), then the integer access
 * count. @return the NoC energy, or nullopt when the mapping is invalid
 * (with the reason in *why when asked).
 */
std::optional<double>
validateAndCount(const BoundArch &ba, const Mapping &m,
                 const CostModelOptions &opts, EvalScratch &s,
                 const PrefixTerms *prefix, std::string *why)
{
    if (!opts.assumeValid) {
        if (!detail::checkValid(ba, m, s, why))
            return std::nullopt;
    } else {
        fillTables(m, s); // checkValid would have built them
    }
    return countAccess(ba, m, opts, prefix, s);
}

} // anonymous namespace

CostResult
evaluateMapping(const BoundArch &ba, const Mapping &m,
                const CostModelOptions &opts)
{
    CostResult res;
    evaluateMappingInto(ba, m, opts, threadEvalScratch(), res);
    return res;
}

/**
 * The one true evaluation, staged: prepare and reset, validity (through
 * the scratch's allocation-free buffers), integer access counting, then
 * floating-point finalization.
 */
void
evaluateMappingInto(const BoundArch &ba, const Mapping &m,
                    const CostModelOptions &opts, EvalScratch &s,
                    CostResult &res, const PrefixTerms *prefix)
{
    s.prepare(ba);
    resetCostResult(res, s.nl, s.nt);
    const auto noc =
        validateAndCount(ba, m, opts, s, prefix, &res.invalidReason);
    if (!noc) {
        res.valid = false;
        res.edp = std::numeric_limits<double>::infinity();
        res.totalEnergyPj = std::numeric_limits<double>::infinity();
        return;
    }
    res.valid = true;
    finalizeResult(ba, opts, s, *noc, res);
}

std::optional<double>
scoreEnergyInto(const BoundArch &ba, const Mapping &m,
                const CostModelOptions &opts, EvalScratch &s,
                const PrefixTerms *prefix)
{
    s.prepare(ba);
    const auto noc = validateAndCount(ba, m, opts, s, prefix, nullptr);
    if (!noc)
        return std::nullopt;
    return sumEnergy(ba, opts, s, *noc);
}

void
buildPrefixTerms(const BoundArch &ba, const Mapping &base, int prefix_levels,
                 EvalScratch &s, PrefixTerms &out)
{
    const Workload &wl = ba.workload();
    s.prepare(ba);
    fillTables(base, s);

    const int nt = s.nt;
    SUNSTONE_ASSERT(prefix_levels >= 0 && prefix_levels <= s.nl,
                    "prefix_levels out of range");
    out.prefixLevels = prefix_levels;
    out.tensors.resize(nt);

    for (TensorId t = 0; t < nt; ++t) {
        const DimSet idx = s.idxDims[t];
        // Storage chain, innermost first (cached per binding).
        const int *chain = s.chainFlat.data() + s.chainBegin[t];
        const int chain_len = s.chainBegin[t + 1] - s.chainBegin[t];
        SUNSTONE_ASSERT(chain_len > 0, "tensor stored nowhere");

        auto &pairs = out.tensors[t].pairs;
        pairs.assign(chain_len - 1, PrefixTerms::Pair{});
        for (int i = 1; i < chain_len; ++i) {
            const int c = chain[i - 1];
            const int l = chain[i];
            auto &p = pairs[i - 1];
            p.cached = l < prefix_levels;
            if (!p.cached)
                continue;

            // Tile-change skip-rule state over the decided levels
            // (c, prefix_levels): same walk the full evaluation does,
            // truncated at the prefix boundary.
            std::int64_t events = 1;
            bool counting = false;
            const int begin = s.loopBegin[c + 1];
            const int end = s.loopBegin[prefix_levels];
            for (int j = begin; j < end; ++j) {
                if (!counting && !idx.contains(s.loopDim[j]))
                    continue;
                counting = true;
                events = satMul(events, s.loopFactor[j]);
            }
            p.evPrefix = events;
            p.evStarted = counting;

            p.nAbovePrefix = spatialRangeFrom(s, l + 1, prefix_levels - 1, 1);

            const std::int64_t spatial_all = spatialRange(s, c, l);
            const std::int64_t tile_c =
                scratchFootprint(s, t, s.shapes[c].data());
            p.fillUnit = satMul(spatial_all, tile_c);

            if (wl.tensor(t).isOutput)
                p.distinct = 0;
            else if (s.nonMcPrefix[l + 1] == s.nonMcPrefix[c + 1])
                // Once-per-prefix construction: no cached extent row is
                // guaranteed to match here, so recompute.
                p.distinct = multicastDistinctWords(
                    s, t, s.shapes[c].data(), spatialUpRange(base, s, c, l),
                    -1);
            else
                p.distinct = p.fillUnit;
        }
    }
}

} // namespace sunstone
