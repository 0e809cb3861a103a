#include "core/sunstone.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/thread_pool.hh"
#include "core/ordering_trie.hh"
#include "core/refine.hh"
#include "core/tiling_tree.hh"
#include "core/unrolling.hh"
#include "model/eval_engine.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/search_driver.hh"

namespace sunstone {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A collector passes its counts on after this many scored candidates
 *  (and at the end of its entry's expansion). */
constexpr std::int64_t kFlushEvery = 64;

/** A partially decided mapping plus its search bookkeeping. */
struct Partial
{
    Mapping m;
    std::vector<std::int64_t> remaining;
    /** Reuse suffix chosen for the next level's loops (innermost first). */
    std::vector<DimId> pendingSuffix;
    double score = kInf;
};

/** One ordering candidate of an expansion, with the full loop order
 *  and beam bucket key derived once rather than per candidate. */
struct OrderingEntry
{
    /** Reuse suffix, innermost loop first. */
    std::vector<DimId> suffix;
    /** loopOrderForSuffix(suffix). */
    std::vector<DimId> order;
    /** Hash of the suffix: the first half of the stratified-beam key. */
    std::uint64_t suffixKey = 1;
};

/**
 * A candidate alpha-beta kept during one entry's expansion. The Partial
 * it stands for is its base with the level's tile and unroll applied
 * (see Driver::apply); it is materialized only if it survives the trim.
 * Record i's tile and unroll factors are Collector::arena[i * 2 * nDims,
 * (i + 1) * 2 * nDims), tile first.
 */
struct CandidateRecord
{
    double score;
    /** Index into Collector::bases. */
    std::uint32_t base;
    /** Index into Collector::orderings. */
    std::uint32_t ordering;
    /** floorLog2 of the candidate's total spatial product. */
    int logSpatial;
};

/**
 * Per-beam-entry expansion sink. Each entry expands into its own
 * collector whose alpha-beta incumbent is seeded from the step-start
 * global incumbent, so an entry's pruning decisions depend only on its
 * own emission sequence — never on how expansions interleave across
 * worker threads. The serial in-entry-order merge in expandBeam applies
 * the global incumbent afterwards.
 *
 * The collector also counts its expansion's work in plain integers and
 * hands them to the engine and the driver in batches (Driver::flush),
 * so scoring a candidate writes no state another thread writes.
 */
struct Collector
{
    std::vector<CandidateRecord> records;
    std::vector<std::int64_t> arena;
    /** The partials candidates are decided from: the absorbed entry
     *  (one per s[0] variant) bottom-up, the entry itself top-down. */
    std::vector<Partial> bases;
    std::vector<OrderingEntry> orderings;
    double inc = kInf;

    // Not yet flushed: the completion scores (tally.calls is also the
    // count of scored candidates the driver has not been told of),
    // examined walk nodes, unroll combos and candidates, and alpha-beta
    // prunes.
    EvalEngine::ScoreTally tally;
    std::int64_t examined = 0;
    std::int64_t prunes = 0;
};

template <class Int>
std::string
intArrayJson(const std::vector<Int> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(static_cast<long long>(v[i]));
    }
    return s + "]";
}

/**
 * Beam checkpoint payload: the next step to run, the inter-level
 * direction (validated on resume), the cumulative examined counter, the
 * global incumbent, and every surviving partial. Written only after a
 * fully completed step, so a resumed run replays from a state the
 * uninterrupted run also passed through.
 */
std::string
beamPayload(int next_step, bool bottom_up, std::int64_t examined,
            double incumbent, const std::vector<Partial> &beam)
{
    std::string s = "{\"step\": " + std::to_string(next_step) +
                    ", \"bottomUp\": " +
                    (bottom_up ? std::string("true") : "false") +
                    ", \"examined\": " + std::to_string(examined) +
                    ", \"incumbent\": " + jsonDouble(incumbent) +
                    ", \"beam\": [";
    for (std::size_t i = 0; i < beam.size(); ++i) {
        if (i)
            s += ", ";
        const Partial &p = beam[i];
        s += "{\"m\": " + mappingToJson(p.m) +
             ", \"rem\": " + intArrayJson(p.remaining) +
             ", \"suffix\": " + intArrayJson(p.pendingSuffix) +
             ", \"score\": " + jsonDouble(p.score) + "}";
    }
    return s + "]}";
}

/** A tiling walk's maximal tiles, flat in growTiles' order (tile i at
 *  [i * nDims, (i + 1) * nDims)), and the nodes the walk examined. */
struct Walk
{
    std::vector<std::int64_t> tiles;
    std::int64_t nodesVisited = 0;
};

/**
 * The tiling walks of one bottom-up expansion (DESIGN.md §4, "Walk reuse
 * within an expansion"). Level and base shape are fixed within an
 * expansion, so (grow dims, quotient) identifies a walk; orderings that
 * fully reuse the same tensors share a grow set and ask for the same
 * walks. A walk is kept only while a later ordering of the expansion has
 * its grow set, and the caller drops a grow set's walks after its last
 * ordering. Private to one expansion: no locks, and the walk sequence is
 * the same at any --threads.
 */
class WalkMemo
{
  public:
    WalkMemo(const BoundArch &ba, int level,
             const std::vector<std::int64_t> &base_shape)
        : ba_(ba), level_(level), baseShape_(base_shape)
    {
    }

    WalkMemo(const WalkMemo &) = delete;
    WalkMemo &operator=(const WalkMemo &) = delete;

    /** Publishes the expansion's walk and probe counts, once. */
    ~WalkMemo()
    {
        static obs::Counter &walks =
            obs::metrics().counter("sunstone.tiling.walks");
        static obs::Counter &reused =
            obs::metrics().counter("sunstone.tiling.walks_reused");
        static obs::Counter &probes =
            obs::metrics().counter("sunstone.tiling.probes");
        walks.add(walks_);
        reused.add(reused_);
        probes.add(probes_);
    }

    /**
     * The walk for (grow, rem): an earlier ordering's when it asked for
     * the same one, else a fresh walk, kept for later orderings when
     * `retain`. The reference is valid until the next call.
     */
    const Walk &
    get(DimSet grow, const std::vector<std::int64_t> &rem, bool retain)
    {
        ++walks_;
        Walks *kept = find(grow);
        if (kept) {
            const auto it = kept->find(rem);
            if (it != kept->end()) {
                ++reused_;
                return it->second;
            }
        }
        SUNSTONE_TRACE_SPAN("sunstone.tiling");
        if (retain && !kept)
            kept = &buckets_.emplace_back(grow, Walks{}).second;
        Walk &w = retain ? (*kept)[rem] : scratch_;
        // One flat allocation per kept walk rather than one per tile.
        const TilingTreeResult r =
            growTiles(ba_, level_, baseShape_, rem, grow);
        w.tiles.clear();
        for (const auto &tile : r.maximal)
            w.tiles.insert(w.tiles.end(), tile.begin(), tile.end());
        w.nodesVisited = r.nodesVisited;
        probes_ += r.fitProbes;
        return w;
    }

    /** Forgets grow's walks; called after its last ordering. */
    void
    drop(DimSet grow)
    {
        for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
            if (it->first == grow) {
                buckets_.erase(it);
                return;
            }
        }
    }

  private:
    struct RemHash
    {
        std::size_t
        operator()(const std::vector<std::int64_t> &v) const
        {
            return hashFactors(v);
        }
    };
    using Walks =
        std::unordered_map<std::vector<std::int64_t>, Walk, RemHash>;

    Walks *
    find(DimSet grow)
    {
        for (auto &[g, walks] : buckets_)
            if (g == grow)
                return &walks;
        return nullptr;
    }

    const BoundArch &ba_;
    const int level_;
    const std::vector<std::int64_t> &baseShape_;
    /** Kept walks per grow set (a handful per expansion). */
    std::vector<std::pair<DimSet, Walks>> buckets_;
    /** A walk no later ordering asks for again. */
    Walk scratch_;
    std::int64_t walks_ = 0;
    std::int64_t reused_ = 0;
    /** Capacity checks of the fresh walks. */
    std::int64_t probes_ = 0;
};

/**
 * One base's expansion at one step. Each candidate is built in `work` in
 * place, scored, recorded compactly only when alpha-beta keeps it, and
 * then reset from `base`: nothing is copied per candidate.
 */
struct Expansion
{
    Collector &col;
    /** Index of `base` in col.bases. */
    std::uint32_t baseIndex;
    const Partial &base;
    Partial work = base;
    /** Capacity-check scratch (tile shapes). */
    std::vector<std::int64_t> shape{};

    /** Restores levels [lo, hi] and the quotient from the base. */
    void
    reset(int lo, int hi)
    {
        for (int l = lo; l <= hi; ++l)
            work.m.level(l) = base.m.level(l);
        work.remaining = base.remaining;
    }
};

class Driver
{
  public:
    Driver(SearchContext &sc, const BoundArch &ba,
           const SunstoneOptions &opts)
        : sc(sc), ba(ba), opts(opts), wl(ba.workload()),
          nLevels(ba.numLevels()), nDims(wl.numDims()),
          engine(sc.engine()),
          ctx(engine.context(ba))
    {
    }

    SunstoneResult
    run()
    {
        SUNSTONE_TRACE_SPAN("sunstone.search");
        SunstoneResult result;

        // The driver owns timing, eval accounting, the incumbent, the
        // convergence trajectory, StopPolicy enforcement, and the
        // checkpoint/resume cycle. The beam logic below only feeds it.
        SearchDriver drv(sc, engine, ba, opts.searchLabel,
                         opts.optimizeEdp);
        drv_ = &drv;

        const bool bottom_up =
            opts.levelOrder == SunstoneOptions::LevelOrder::BottomUp;
        int step = bottom_up ? 0 : nLevels - 1;
        std::vector<Partial> beam;
        const std::string payload = drv.consumeResumePayload();
        if (!payload.empty()) {
            restoreBeamState(payload, bottom_up, step, beam);
        } else {
            beam = initialBeam();
            if (!sc.warmStarts().empty()) {
                // Warm starts from structurally similar layers: the
                // driver evaluates them (they may set the incumbent
                // outright), and their completion-score energies seed
                // the alpha-beta bound so the beam prunes against a
                // realistic target from step zero.
                drv.seedWarmStarts();
                CostModelOptions cmo;
                cmo.assumeValid = true;
                cmo.modelNoc = false;
                EvalEngine::ScoreTally tally;
                for (const Mapping &seed : sc.warmStarts()) {
                    if (!seed.valid(ba))
                        continue;
                    const double e =
                        engine.scoreEnergy(ctx, seed, cmo, tally);
                    if (e < incumbent_)
                        incumbent_ = e;
                }
                engine.addScores(tally);
            }
        }

        if (bottom_up) {
            for (int k = step; k < nLevels - 1; ++k) {
                if (drv.shouldStop())
                    break;
                beam = expandBeam(beam, k, /*bottom_up=*/true);
                saveBeamState(drv, k + 1, bottom_up, beam);
            }
            finalize(beam, /*bottom_up=*/true);
        } else {
            for (int k = step; k >= 1; --k) {
                if (drv.shouldStop())
                    break;
                beam = expandBeam(beam, k, /*bottom_up=*/false);
                saveBeamState(drv, k - 1, bottom_up, beam);
            }
            finalize(beam, /*bottom_up=*/false);
        }

        // Full evaluation (with validity check) of the surviving beam.
        // Always runs, even after a stop fired mid-search: the partial
        // beam still yields the best mapping found so far.
        std::vector<std::pair<double, const Partial *>> ranked;
        {
            SUNSTONE_TRACE_SPAN("sunstone.rank");
            // Rank the survivors as one batch across the pool; results
            // come back in beam order, so the recorded trajectory and
            // tie-breaking match the historical serial loop exactly.
            std::vector<Mapping> ms;
            ms.reserve(beam.size());
            for (const auto &p : beam)
                ms.push_back(p.m);
            std::vector<CostResult> results;
            engine.evaluateBatch(ctx, ms, {}, results);
            drv.noteEvaluated(static_cast<std::int64_t>(beam.size()));
            for (std::size_t i = 0; i < beam.size(); ++i) {
                const CostResult &cr = results[i];
                if (!cr.valid)
                    continue;
                drv.offer(beam[i].m, cr);
                ranked.emplace_back(
                    opts.optimizeEdp ? cr.edp : cr.totalEnergyPj,
                    &beam[i]);
            }
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });

        // Polish the few best survivors: the level-by-level search
        // decides each level under an approximation of the levels
        // above, and a short hill climb repairs the leftovers.
        const std::size_t polish_count =
            opts.polish ? std::min<std::size_t>(4, ranked.size())
                        : std::min<std::size_t>(1, ranked.size());
        for (std::size_t i = 0; i < polish_count; ++i) {
            if (drv.shouldStop())
                break;
            Mapping m = ranked[i].second->m;
            if (opts.polish) {
                SUNSTONE_TRACE_SPAN("sunstone.refine");
                RefineStats rs;
                m = polishMapping(engine, ba, m, opts.optimizeEdp, 64, &rs,
                                  &drv);
                examined.fetch_add(rs.evaluated);
            }
            CostResult cr = engine.evaluate(ctx, m);
            drv.noteEvaluated(1);
            if (!cr.valid)
                continue;
            drv.offer(m, cr);
        }

        DriverOutcome o = drv.finish(StopReason::Exhausted);
        drv_ = nullptr;
        result.found = o.found;
        if (o.found) {
            result.mapping = std::move(o.best);
            result.cost = std::move(o.bestCost);
        }
        result.candidatesExamined = examined.load();
        result.seconds = o.seconds;
        result.stopReason = stopReasonName(o.reason);
        return result;
    }

  private:
    /** Checkpoints a fully completed step (no-op without a path). */
    void
    saveBeamState(SearchDriver &drv, int next_step, bool bottom_up,
                  const std::vector<Partial> &beam)
    {
        if (sc.checkpointPath().empty() || drv.shouldStop())
            return;
        drv.checkpointNow(beamPayload(next_step, bottom_up,
                                      examined.load(), incumbent_, beam));
    }

    /**
     * Restores a beam checkpoint. Anything that would index past the
     * workload (a suffix dim outside [0, nDims), a mapping of another
     * shape), a quotient that is not nDims factors >= 1, or a step
     * outside [0, nLevels - 1] is a clean fatal, never undefined
     * behavior.
     */
    void
    restoreBeamState(const std::string &payload, bool bottom_up,
                     int &step, std::vector<Partial> &beam)
    {
        auto malformed = [] {
            SUNSTONE_FATAL("sunstone resume: malformed beam payload");
        };
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            malformed();
        const JsonValue *bu = v.find("bottomUp");
        if (!bu || bu->asBool(!bottom_up) != bottom_up)
            SUNSTONE_FATAL("sunstone resume: checkpoint level order does "
                           "not match the configured LevelOrder");
        const JsonValue *st = v.find("step");
        const JsonValue *bm = v.find("beam");
        if (!st || !bm || !bm->isArray())
            malformed();
        // Bottom-up resumes at the next level to tile (nLevels - 1: only
        // the DRAM fill is left); top-down at the next level to decide
        // (0: only the level-0 fill is left).
        const std::int64_t next = st->asInt(-1);
        if (next < 0 || next > nLevels - 1)
            malformed();
        step = static_cast<int>(next);
        if (const JsonValue *ex = v.find("examined"))
            examined.store(ex->asInt(0));
        if (const JsonValue *inc = v.find("incumbent"))
            incumbent_ = inc->isNull() ? kInf : inc->asDouble(kInf);
        beam.clear();
        for (const JsonValue &e : bm->items) {
            Partial p;
            const JsonValue *m = e.find("m");
            if (!m || !mappingFromJson(*m, p.m) || !decidedShapeOk(p.m))
                SUNSTONE_FATAL("sunstone resume: malformed beam mapping");
            const JsonValue *rem = e.find("rem");
            if (!rem || !rem->isArray() ||
                rem->items.size() != static_cast<std::size_t>(nDims))
                malformed();
            for (const JsonValue &r : rem->items) {
                p.remaining.push_back(r.asInt(0));
                if (p.remaining.back() < 1)
                    malformed();
            }
            if (const JsonValue *suf = e.find("suffix")) {
                for (const JsonValue &d : suf->items) {
                    const std::int64_t dim = d.asInt(-1);
                    if (dim < 0 || dim >= nDims)
                        malformed();
                    p.pendingSuffix.push_back(static_cast<DimId>(dim));
                }
            }
            if (const JsonValue *s = e.find("score"))
                p.score = s->isNull() ? kInf : s->asDouble(kInf);
            beam.push_back(std::move(p));
        }
    }

    /** Whether a restored mapping has this problem's level and dim
     *  counts (mappingFromJson() already vetted factors and orders). */
    bool
    decidedShapeOk(const Mapping &m) const
    {
        return m.numLevels() == nLevels && m.numDims() == nDims;
    }

    std::vector<Partial>
    initialBeam()
    {
        Partial p;
        p.m = Mapping(nLevels, nDims);
        p.remaining = wl.shape();
        return {p};
    }

    DimSet
    activeDims(const std::vector<std::int64_t> &remaining) const
    {
        DimSet s;
        for (DimId d = 0; d < nDims; ++d)
            if (remaining[d] > 1)
                s.add(d);
        return s;
    }

    /**
     * Grow dims per the Tiling Principle for one ordering candidate at
     * one level. Dims that index no tensor stored at the level are
     * excluded: growing them is capacity-free there (the data lives
     * higher up), adds no reuse at this level, and would silently
     * consume quotient that upper spatial levels need.
     */
    DimSet
    growDimsFor(const OrderingCandidate &ord, DimSet active, int level)
        const
    {
        DimSet stored;
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            if (ba.stores(level, t))
                stored = stored.unionWith(wl.reuse(t).indexing);
        DimSet g;
        for (TensorId t : ord.fullyReusedTensors())
            g = g.unionWith(wl.reuse(t).indexing);
        if (g.empty())
            g = DimSet::all(nDims);
        return g.intersect(stored).intersect(active);
    }

    /** Allowed unroll dims per the Spatial Unrolling Principle. */
    DimSet
    allowedUnrollDimsFor(const OrderingCandidate &ord) const
    {
        auto reused = ord.fullyReusedTensors();
        if (reused.empty())
            return DimSet::all(nDims);
        DimSet allowed = DimSet::all(nDims);
        for (TensorId t : reused)
            allowed = allowed.intersect(wl.reuse(t).indexing);
        return allowed;
    }

    /**
     * Greedily absorbs the pending reuse-suffix loops into level k's
     * temporal factors (largest fitting divisors, innermost first) and
     * fixes level k's loop order with the suffix innermost.
     */
    void
    absorb(Partial &p, int k) const
    {
        auto &lm = p.m.level(k);
        std::vector<std::int64_t> shape;
        for (DimId d : p.pendingSuffix) {
            p.m.tileShape(k, shape);
            const std::int64_t extent = shape[d];
            const auto &divs = cachedDivisors(p.remaining[d]);
            for (auto it = divs.rbegin(); it != divs.rend(); ++it) {
                shape[d] = satMul(extent, *it);
                if (ba.fitsShape(k, shape)) {
                    lm.temporal[d] = satMul(lm.temporal[d], *it);
                    p.remaining[d] /= *it;
                    break;
                }
            }
        }
        // Suffix dims innermost, the rest outermost in canonical order.
        loopOrderForSuffix(p.pendingSuffix, nDims, lm.order);
    }

    /**
     * Scores a partial by completing it (all residual loops to the DRAM
     * level, in `fill_order`, for bottom-up; to level 0 for top-down)
     * and evaluating its energy — the paper's approximated-energy
     * alpha-beta surrogate.
     */
    double
    scoreCompletion(Partial &p, const std::vector<DimId> &fill_order,
                    bool bottom_up, EvalEngine::ScoreTally &tally) const
    {
        const int fill = bottom_up ? nLevels - 1 : 0;
        auto &lm = p.m.level(fill);
        // Complete in place and restore afterwards: the fill level's
        // factors (and order, for bottom-up) are stashed in per-thread
        // buffers so scoring performs no Mapping copy.
        thread_local std::vector<std::int64_t> saved_temporal;
        thread_local std::vector<DimId> saved_order;
        saved_temporal.assign(lm.temporal.begin(), lm.temporal.end());
        for (DimId d = 0; d < nDims; ++d)
            lm.temporal[d] = satMul(lm.temporal[d], p.remaining[d]);
        if (bottom_up) {
            saved_order.assign(lm.order.begin(), lm.order.end());
            lm.order.assign(fill_order.begin(), fill_order.end());
        }
        CostModelOptions cmo;
        cmo.assumeValid = true;
        cmo.modelNoc = false;
        // Partials are ranked by approximated energy (access counts), as
        // in the paper; the delay of a residual-at-DRAM completion is
        // too noisy to rank by EDP. Parallelism diversity is preserved
        // by the stratified beam (see expandBeam), and the final pick
        // over the surviving beam uses the real objective. Completions
        // are scored through the allocation-free fast path.
        const double e = engine.scoreEnergy(ctx, p.m, cmo, tally);
        lm.temporal.assign(saved_temporal.begin(), saved_temporal.end());
        if (bottom_up)
            lm.order.assign(saved_order.begin(), saved_order.end());
        return e;
    }

    /**
     * Applies one (order, tile, unroll) decision at step k to a partial
     * holding its base. Bottom-up, the tile multiplies level k's
     * temporal factors and the unroll and loop order go to level k + 1;
     * top-down, all three are level k's. Both emission (in place) and
     * survivor materialization go through here, so a materialized
     * partial is exactly the one that was scored.
     */
    void
    apply(Partial &p, int k, bool bottom_up, const std::int64_t *tile,
          const std::int64_t *unroll, const OrderingEntry &ord) const
    {
        auto &lm = p.m.level(k);
        auto &up = bottom_up ? p.m.level(k + 1) : lm;
        for (DimId d = 0; d < nDims; ++d) {
            lm.temporal[d] =
                bottom_up ? satMul(lm.temporal[d], tile[d]) : tile[d];
            up.spatial[d] = unroll[d];
            p.remaining[d] = p.remaining[d] / tile[d] / unroll[d];
        }
        up.order.assign(ord.order.begin(), ord.order.end());
    }

    /** Scores the candidate built in ex.work and, when alpha-beta keeps
     *  it, appends its record and factors to the entry's collector. */
    void
    emit(Expansion &ex, std::uint32_t ordering, const std::int64_t *tile,
         const std::int64_t *unroll, bool bottom_up)
    {
        Collector &col = ex.col;
        if (drv_->shouldStop(col.tally.calls))
            return;
        const double score =
            scoreCompletion(ex.work, col.orderings[ordering].order,
                            bottom_up, col.tally);
        ++col.examined;
        if (col.tally.calls == kFlushEvery)
            flush(col);
        if (opts.alphaBeta) {
            if (score < col.inc)
                col.inc = score;
            if (score > col.inc * opts.alphaSlack) {
                ++col.prunes;
                return;
            }
        }
        col.records.push_back(
            {score, ex.baseIndex, ordering,
             floorLog2(std::max<std::int64_t>(1, ex.work.m.totalSpatial()))});
        col.arena.insert(col.arena.end(), tile, tile + nDims);
        col.arena.insert(col.arena.end(), unroll, unroll + nDims);
    }

    /**
     * Adds a collector's counts to the engine, `examined` and the
     * driver, and zeroes them: an expansion's only shared writes.
     */
    void
    flush(Collector &col)
    {
        drv_->noteEvaluated(col.tally.calls);
        engine.addScores(col.tally);
        if (col.prunes > 0)
            engine.notePrune(col.prunes);
        examined.fetch_add(col.examined, std::memory_order_relaxed);
        col.examined = 0;
        col.prunes = 0;
    }

    /** Registers an expansion's ordering candidates with the collector;
     *  @return the table index of the first. */
    std::uint32_t
    addOrderings(Collector &col,
                 const std::vector<OrderingCandidate> &orderings) const
    {
        const auto first = static_cast<std::uint32_t>(col.orderings.size());
        for (const auto &ord : orderings) {
            OrderingEntry &e = col.orderings.emplace_back();
            e.suffix = ord.suffix;
            loopOrderForSuffix(e.suffix, nDims, e.order);
            for (DimId d : e.suffix)
                e.suffixKey = e.suffixKey * 131 + std::uint64_t(d + 1);
        }
        return first;
    }

    /**
     * Expands every beam entry at step k, then trims to the beam. Only
     * the survivors are materialized as partials.
     */
    std::vector<Partial>
    expandBeam(const std::vector<Partial> &beam, int k, bool bottom_up)
    {
        // One collector per entry, each seeded with the step-start
        // incumbent: expansion threads never share pruning state, so the
        // candidate set is bit-identical at any --threads. The merge is
        // serial and in entry order, where the global incumbent tightens
        // deterministically.
        std::vector<Collector> cols(beam.size());
        for (auto &c : cols)
            c.inc = incumbent_;
        parallelFor(engine.pool(), beam.size(), [&](std::size_t i) {
            if (bottom_up)
                expandBottomUp(beam[i], k, cols[i]);
            else
                expandTopDown(beam[i], k, cols[i]);
            flush(cols[i]);
        });

        struct Kept
        {
            double score;
            std::uint32_t col;
            std::uint32_t record;
        };
        std::vector<Kept> merged;
        std::int64_t prunes = 0;
        for (std::uint32_t c = 0; c < cols.size(); ++c) {
            const auto &records = cols[c].records;
            for (std::uint32_t r = 0; r < records.size(); ++r) {
                const double score = records[r].score;
                if (opts.alphaBeta) {
                    if (score < incumbent_)
                        incumbent_ = score;
                    if (score > incumbent_ * opts.alphaSlack) {
                        ++prunes;
                        continue;
                    }
                }
                merged.push_back({score, c, r});
            }
        }
        if (prunes > 0)
            engine.notePrune(prunes);
        std::stable_sort(merged.begin(), merged.end(),
                         [](const Kept &a, const Kept &b) {
                             return a.score < b.score;
                         });

        auto materialize = [&](const Kept &kept) {
            const Collector &col = cols[kept.col];
            const CandidateRecord &rec = col.records[kept.record];
            const OrderingEntry &ord = col.orderings[rec.ordering];
            const std::int64_t *tile =
                col.arena.data() + std::size_t(kept.record) * 2 * nDims;
            Partial p = col.bases[rec.base];
            apply(p, k, bottom_up, tile, tile + nDims, ord);
            p.pendingSuffix = ord.suffix;
            p.score = rec.score;
            return p;
        };
        std::vector<Partial> out;
        if ((int)merged.size() <= opts.beamWidth) {
            out.reserve(merged.size());
            for (const Kept &kept : merged)
                out.push_back(materialize(kept));
            return out;
        }

        // Stratified beam: candidates are bucketed by (chosen ordering
        // suffix, log2 of the spatial product) and drained round-robin,
        // best first. An energy-only score would otherwise evict every
        // high-utilization candidate before its latency advantage
        // becomes visible, and would collapse the ordering diversity the
        // next level's decisions depend on.
        std::map<std::pair<std::uint64_t, int>, std::vector<std::uint32_t>>
            buckets;
        for (std::uint32_t i = 0; i < merged.size(); ++i) {
            const Collector &col = cols[merged[i].col];
            const CandidateRecord &rec = col.records[merged[i].record];
            buckets[{col.orderings[rec.ordering].suffixKey, rec.logSpatial}]
                .push_back(i);
        }
        out.reserve(opts.beamWidth);
        for (std::size_t pass = 0; (int)out.size() < opts.beamWidth;
             ++pass) {
            bool any = false;
            for (const auto &[key, ranks] : buckets) {
                if (pass >= ranks.size())
                    continue;
                out.push_back(materialize(merged[ranks[pass]]));
                any = true;
                if ((int)out.size() >= opts.beamWidth)
                    break;
            }
            if (!any)
                break;
        }
        return out;
    }

    /**
     * Bottom-up step k: absorb the pending suffix into t[k], then pick
     * (order above k, t[k] growth, s[k+1]) in the configured intra-level
     * order.
     */
    void
    expandBottomUp(Partial base, int k, Collector &col)
    {
        // The innermost fanout (vector lanes below level 0) has no step
        // of its own: enumerate s[0] variants first.
        if (k == 0 && ba.arch().levels[0].fanout > 1) {
            UnrollResult ur =
                tracedUnrolls(DimSet::all(nDims), base.remaining,
                              ba.arch().levels[0].fanout,
                              opts.utilizationThreshold);
            std::vector<std::int64_t> shape;
            for (const auto &u : ur.candidates) {
                Partial v = base;
                for (DimId d = 0; d < nDims; ++d) {
                    v.m.level(0).spatial[d] = u[d];
                    v.remaining[d] /= u[d];
                }
                if (!tileFits(v.m, 0, shape))
                    continue;
                expandBottomUpInner(std::move(v), k, col);
            }
            return;
        }
        expandBottomUpInner(std::move(base), k, col);
    }

    void
    expandBottomUpInner(Partial base, int k, Collector &col)
    {
        absorb(base, k);
        col.bases.push_back(std::move(base));
        const auto base_index =
            static_cast<std::uint32_t>(col.bases.size() - 1);
        Expansion ex{col, base_index, col.bases.back()};
        const std::vector<std::int64_t> base_shape = ex.base.m.tileShape(k);
        const std::vector<std::int64_t> &base_rem = ex.base.remaining;
        const DimSet active = activeDims(base_rem);
        auto orderings = tracedOrderings(active);
        if (opts.generalistOrdering) {
            // One unconstrained candidate (empty suffix, no assumed
            // reuse): its grow/unroll sets are unrestricted, covering
            // the mixed reduction/output unrollings the principles
            // exclude. Cheap insurance on reduction-heavy workloads
            // such as weight-update convolutions.
            OrderingCandidate generalist;
            generalist.fullReuse.assign(wl.numTensors(), DimSet());
            generalist.partialReuse.assign(wl.numTensors(), DimSet());
            orderings.push_back(std::move(generalist));
        }
        const std::uint32_t first_ordering = addOrderings(col, orderings);
        const std::int64_t fanout_above =
            (k + 1 < nLevels) ? ba.arch().levels[k + 1].fanout : 1;

        // The generalist candidate is throttled: principled-union grow
        // set and near-full-utilization unrolls only. Its sole job is
        // reaching the mixed reduction/output unrollings the principles
        // exclude, not re-opening the whole space.
        DimSet principled_grow;
        for (const auto &ord : orderings)
            if (!ord.suffix.empty() || !ord.fullyReusedTensors().empty())
                principled_grow = principled_grow.unionWith(
                    growDimsFor(ord, active, k));
        auto isGeneralist = [](const OrderingCandidate &ord) {
            return ord.suffix.empty() &&
                   ord.fullyReusedTensors().empty();
        };
        auto growFor = [&](const OrderingCandidate &ord) {
            return isGeneralist(ord) ? principled_grow
                                     : growDimsFor(ord, active, k);
        };
        auto utilFor = [&](const OrderingCandidate &ord) {
            return isGeneralist(ord)
                       ? std::max(0.95, opts.utilizationThreshold)
                       : opts.utilizationThreshold;
        };

        // Each ordering's grow set, and whether a later ordering shares
        // it (its walks are then kept for that ordering).
        WalkMemo walks(ba, k, base_shape);
        std::vector<DimSet> grows;
        std::vector<bool> shared_later(orderings.size(), false);
        for (std::uint32_t o = 0; o < orderings.size(); ++o) {
            grows.push_back(growFor(orderings[o]));
            for (std::uint32_t p = 0; p < o; ++p)
                if (grows[p] == grows[o])
                    shared_later[p] = true;
        }

        using IO = SunstoneOptions::IntraOrder;
        if (opts.intraOrder == IO::UnrollTileOrder) {
            // The paper's default: per ordering, spatial unrolling first
            // (from the full quotient), then the temporal tile from what
            // remains. This keeps tiling from starving parallelism.
            for (std::uint32_t o = 0; o < orderings.size(); ++o) {
                const OrderingCandidate &ord = orderings[o];
                auto unrolls =
                    countedUnrolls(col, allowedUnrollDimsFor(ord), base_rem,
                                   fanout_above, utilFor(ord));
                if (isGeneralist(ord) && unrolls.size() > 24) {
                    auto product = [&](const auto &v) {
                        std::int64_t p = 1;
                        for (auto f : v)
                            p = satMul(p, f);
                        return p;
                    };
                    std::sort(unrolls.begin(), unrolls.end(),
                              [&](const auto &a, const auto &b) {
                                  return product(a) > product(b);
                              });
                    unrolls.resize(24);
                }
                std::vector<std::int64_t> rem(nDims);
                for (const auto &u : unrolls) {
                    for (DimId d = 0; d < nDims; ++d)
                        rem[d] = base_rem[d] / u[d];
                    const Walk &w =
                        walks.get(grows[o], rem, shared_later[o]);
                    col.examined += w.nodesVisited;
                    for (std::size_t t = 0; t < w.tiles.size(); t += nDims)
                        emitCandidate(ex, k, first_ordering + o,
                                      w.tiles.data() + t, u.data());
                }
                if (!shared_later[o])
                    walks.drop(grows[o]);
            }
            return;
        }

        if (opts.intraOrder == IO::TileUnrollOrder) {
            // Per ordering, temporal tile first, then unrolling from the
            // leftover quotient.
            for (std::uint32_t o = 0; o < orderings.size(); ++o) {
                const Walk &w =
                    walks.get(grows[o], base_rem, shared_later[o]);
                col.examined += w.nodesVisited;
                for (std::size_t t = 0; t < w.tiles.size(); t += nDims)
                    emitTileUnrolls(ex, k, first_ordering + o,
                                    w.tiles.data() + t, fanout_above,
                                    allowedUnrollDimsFor(orderings[o]));
                if (!shared_later[o])
                    walks.drop(grows[o]);
            }
            return;
        }

        // OrderTileUnroll: the ordering is bound last, so tile and
        // unroll enumerate over the union of every ordering's
        // principle-allowed dims (a strictly larger space).
        DimSet grow_union, allow_union;
        for (const auto &ord : orderings) {
            grow_union = grow_union.unionWith(growDimsFor(ord, active, k));
            allow_union =
                allow_union.unionWith(allowedUnrollDimsFor(ord));
        }
        const Walk &w = walks.get(grow_union, base_rem, /*retain=*/false);
        col.examined += w.nodesVisited;
        for (std::size_t t = 0; t < w.tiles.size(); t += nDims)
            for (std::uint32_t o = 0; o < orderings.size(); ++o)
                emitTileUnrolls(ex, k, first_ordering + o, w.tiles.data() + t,
                                fanout_above, allow_union);
    }

    // Span-wrapped enumerators: every (order, tile, unroll) decision in
    // either inter-level order routes through these (tiles through
    // WalkMemo::get and firstFitTiles), so each per-level phase shows up
    // as its own named span in the trace.

    std::vector<OrderingCandidate>
    tracedOrderings(DimSet active) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.ordering");
        return orderingCandidates(wl, active);
    }

    UnrollResult
    tracedUnrolls(DimSet allowed, const std::vector<std::int64_t> &rem,
                  std::int64_t fanout, double util) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.unrolling");
        return unrollCandidates(wl, allowed, rem, fanout, util);
    }

    /** Unroll candidates for a fanout (the identity when there is no
     *  fanout to fill), their visited combos counted as examined. */
    std::vector<std::vector<std::int64_t>>
    countedUnrolls(Collector &col, DimSet allowed,
                   const std::vector<std::int64_t> &rem,
                   std::int64_t fanout, double util) const
    {
        if (fanout <= 1)
            return {std::vector<std::int64_t>(nDims, 1)};
        UnrollResult ur = tracedUnrolls(allowed, rem, fanout, util);
        col.examined += ur.combosVisited;
        return std::move(ur.candidates);
    }

    void
    emitTileUnrolls(Expansion &ex, int k, std::uint32_t ordering,
                    const std::int64_t *tile, std::int64_t fanout_above,
                    DimSet allowed)
    {
        std::vector<std::int64_t> rem = ex.base.remaining;
        for (DimId d = 0; d < nDims; ++d)
            rem[d] /= tile[d];
        for (const auto &u : countedUnrolls(ex.col, allowed, rem,
                                            fanout_above,
                                            opts.utilizationThreshold))
            emitCandidate(ex, k, ordering, tile, u.data());
    }

    /** Capacity check of m's level-l tile (`shape` is scratch). */
    bool
    tileFits(const Mapping &m, int l, std::vector<std::int64_t> &shape) const
    {
        if (ba.arch().levels[l].isDram)
            return true;
        m.tileShape(l, shape);
        return ba.fitsShape(l, shape);
    }

    /** Builds and emits the bottom-up candidate for a (order, tile,
     *  unroll) triple in ex.work, then resets the levels it touched. */
    void
    emitCandidate(Expansion &ex, int k, std::uint32_t ordering,
                  const std::int64_t *tile, const std::int64_t *unroll)
    {
        apply(ex.work, k, /*bottom_up=*/true, tile, unroll,
              ex.col.orderings[ordering]);
        // The spatially enlarged tile must fit the level above even
        // before its own temporal loops are chosen.
        if (tileFits(ex.work.m, k + 1, ex.shape))
            emit(ex, ordering, tile, unroll, /*bottom_up=*/true);
        ex.reset(k, k + 1);
    }

    /**
     * Top-down step k: choose t[k] via the first-fit frontier (minimal
     * factor vectors whose residual fits the level below), then the
     * ordering of level k's loops, then s[k].
     */
    void
    expandTopDown(const Partial &base, int k, Collector &col)
    {
        const auto tiles = firstFitTiles(base.remaining, k, col);
        col.bases.push_back(base);
        Expansion ex{col, static_cast<std::uint32_t>(col.bases.size() - 1),
                     col.bases.back()};
        for (const auto &tile : tiles) {
            std::vector<std::int64_t> rem = base.remaining;
            DimSet tiled;
            for (DimId d = 0; d < nDims; ++d) {
                rem[d] /= tile[d];
                if (tile[d] > 1)
                    tiled.add(d);
            }
            const auto orderings = tracedOrderings(tiled);
            const std::uint32_t first_ordering = addOrderings(col, orderings);
            for (std::uint32_t o = 0; o < orderings.size(); ++o) {
                for (const auto &u : countedUnrolls(
                         col, allowedUnrollDimsFor(orderings[o]), rem,
                         ba.arch().levels[k].fanout,
                         opts.utilizationThreshold)) {
                    apply(ex.work, k, /*bottom_up=*/false, tile.data(),
                          u.data(), col.orderings[first_ordering + o]);
                    emit(ex, first_ordering + o, tile.data(), u.data(),
                         /*bottom_up=*/false);
                    ex.reset(k, k);
                }
            }
        }
    }

    /**
     * Minimal t[k] factor vectors such that the residual problem fits
     * the storage level below (top-down tiling frontier). Growth is
     * unguided (all dims) — the Tiling Principle has nothing to bind to
     * yet, which is a key reason top-down explores more (Section V-C).
     */
    std::vector<std::vector<std::int64_t>>
    firstFitTiles(const std::vector<std::int64_t> &remaining, int k,
                  Collector &col) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.tiling");
        std::vector<std::vector<std::int64_t>> result;
        std::vector<std::int64_t> unit(nDims, 1);
        std::vector<std::int64_t> shape(nDims);
        auto residualFits = [&](const std::vector<std::int64_t> &t) {
            for (DimId d = 0; d < nDims; ++d)
                shape[d] = remaining[d] / t[d];
            return ba.fitsShape(k - 1, shape);
        };
        // Hash of the factor vector, not the vector itself: the frontier
        // visits millions of nodes on large shapes and the ordered-map
        // key comparisons dominated. A 64-bit FNV collision makes the
        // walk take a distinct, unseen node for an already-visited one:
        // that node is neither examined nor expanded from this parent,
        // so a fitting tile can be lost (never a wrong one: every kept
        // tile passed its own residual check).
        std::unordered_set<std::uint64_t> visited;
        std::vector<std::vector<std::int64_t>> frontier{unit};
        visited.insert(hashFactors(unit));
        constexpr std::int64_t node_cap = 2'000'000;
        std::int64_t visited_nodes = 0;
        while (!frontier.empty()) {
            std::vector<std::vector<std::int64_t>> next;
            for (auto &node : frontier) {
                ++col.examined;
                if (++visited_nodes > node_cap) {
                    SUNSTONE_WARN("top-down tiling frontier capped at ",
                                  node_cap, " nodes");
                    return result;
                }
                if (residualFits(node)) {
                    result.push_back(node);
                    continue;
                }
                for (DimId d = 0; d < nDims; ++d) {
                    std::int64_t nf = nextDivisor(remaining[d], node[d]);
                    if (nf == 0)
                        continue;
                    auto child = node;
                    child[d] = nf;
                    if (visited.insert(hashFactors(child)).second)
                        next.push_back(std::move(child));
                }
            }
            frontier = std::move(next);
        }
        return result;
    }

    /** Moves every leftover quotient to the fill level (DRAM bottom-up,
     *  level 0 top-down); bottom-up also fixes DRAM's loop order. */
    void
    finalize(std::vector<Partial> &beam, bool bottom_up)
    {
        for (auto &p : beam) {
            auto &lm = p.m.level(bottom_up ? nLevels - 1 : 0);
            for (DimId d = 0; d < nDims; ++d) {
                lm.temporal[d] = satMul(lm.temporal[d], p.remaining[d]);
                p.remaining[d] = 1;
            }
            if (bottom_up)
                loopOrderForSuffix(p.pendingSuffix, nDims, lm.order);
        }
    }

    SearchContext &sc;
    const BoundArch &ba;
    SunstoneOptions opts;
    const Workload &wl;
    const int nLevels;
    const int nDims;
    EvalEngine &engine;
    const EvalEngine::Context ctx;
    SearchDriver *drv_ = nullptr;
    std::atomic<std::int64_t> examined{0};
    /** Global alpha-beta incumbent; serial updates only (merge phase). */
    double incumbent_ = kInf;
};

} // anonymous namespace

SunstoneResult
sunstoneOptimize(SearchContext &sc, const BoundArch &ba,
                 const SunstoneOptions &opts)
{
    Driver driver(sc, ba, opts);
    return driver.run();
}

SunstoneResult
sunstoneOptimize(const BoundArch &ba, const SunstoneOptions &opts)
{
    SearchContext sc;
    return sunstoneOptimize(sc, ba, opts);
}

} // namespace sunstone
