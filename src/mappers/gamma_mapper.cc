#include "mappers/gamma_mapper.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "mappers/random_sampler.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/rng.hh"

namespace sunstone {

namespace {

/** Copies dim d's factor assignment from src into dst. */
void
copyDim(Mapping &dst, const Mapping &src, DimId d)
{
    for (int l = 0; l < dst.numLevels(); ++l) {
        dst.level(l).temporal[d] = src.level(l).temporal[d];
        dst.level(l).spatial[d] = src.level(l).spatial[d];
    }
}

/**
 * The GA as a stateful candidate stream: nextBatch() grows the current
 * generation (initial population at gen 0, elite + children after),
 * onResult() scores individuals in generation order, and a complete,
 * fully-scored generation is promoted to the parent pool the next time
 * nextBatch() runs. Selection draws from sc.rngStream(0), so the
 * sequence is deterministic and its cursor is the resume point; the
 * populations themselves are the stream's checkpoint payload.
 */
class GammaStream : public CandidateStream
{
  public:
    GammaStream(SearchContext &sc, const BoundArch &ba,
                const GammaOptions &opts)
        : sc_(sc), ba_(ba), opts_(opts), sampler_(ba),
          nd_(ba.workload().numDims())
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        std::size_t n = 0;
        while (n < max && !done_) {
            if (born_ == static_cast<std::size_t>(opts_.populationSize)) {
                if (scored_ < born_)
                    break; // scores arrive later in this very batch
                promote();
                continue;
            }
            if (n == out.size())
                out.emplace_back();
            makeIndividual(out[n]);
            if (born_ == pending_.size())
                pending_.emplace_back();
            pending_[born_].m = out[n];
            pending_[born_].fit = std::numeric_limits<double>::infinity();
            ++born_;
            ++n;
        }
        out.resize(n);
        return !done_;
    }

    /**
     * The GA scores whole generations: every generated individual's
     * fitness comes back in generation order before the population can
     * promote.
     */
    void
    onResult(std::size_t, const Mapping &, const CostResult &cr) override
    {
        double fit = std::numeric_limits<double>::infinity();
        if (cr.valid)
            fit = opts_.optimizeEdp ? cr.edp : cr.totalEnergyPj;
        pending_[scored_].fit = fit;
        ++scored_;
    }

    std::string
    saveState() const override
    {
        auto pool = [](const std::vector<Individual> &v, std::size_t n) {
            std::string s = "[";
            for (std::size_t i = 0; i < n; ++i) {
                if (i)
                    s += ", ";
                s += "{\"fit\": " + jsonDouble(v[i].fit) +
                     ", \"m\": " + mappingToJson(v[i].m) + "}";
            }
            return s + "]";
        };
        return "{\"gen\": " + std::to_string(gen_) +
               ", \"done\": " + (done_ ? std::string("true") : "false") +
               ", \"prev\": " + pool(prev_, prev_.size()) +
               ", \"pending\": " + pool(pending_, born_) + "}";
    }

    bool
    restoreState(const std::string &payload) override
    {
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            return false;
        auto pool = [this](const JsonValue *arr,
                           std::vector<Individual> &out) {
            out.clear();
            if (!arr || !arr->isArray())
                return false;
            for (const JsonValue &e : arr->items) {
                Individual ind{Mapping(ba_.numLevels(), nd_),
                               std::numeric_limits<double>::infinity()};
                const JsonValue *m = e.find("m");
                if (!m || !mappingFromJson(*m, ind.m))
                    return false;
                if (const JsonValue *f = e.find("fit"))
                    ind.fit = f->isNull()
                                  ? std::numeric_limits<double>::infinity()
                                  : f->asDouble();
                out.push_back(std::move(ind));
            }
            return true;
        };
        if (!pool(v.find("prev"), prev_) || !pool(v.find("pending"), pending_))
            return false;
        const JsonValue *g = v.find("gen");
        if (!g)
            return false;
        gen_ = static_cast<int>(g->asInt(0));
        if (const JsonValue *d = v.find("done"))
            done_ = d->asBool(false);
        born_ = pending_.size();
        scored_ = born_; // snapshots only cover scored pools
        return true;
    }

  private:
    struct Individual
    {
        Mapping m;
        double fit = std::numeric_limits<double>::infinity();
    };

    /** Builds the next individual of the generation in `child`. */
    void
    makeIndividual(Mapping &child)
    {
        RngStream &rng = sc_.rngStream(0);
        if (gen_ == 0) {
            sampler_.fill(child, rng);
            return;
        }
        if (born_ == 0) {
            // Elitism: re-submit the parent pool's best unchanged.
            child = bestOf(prev_).m;
            return;
        }
        const Individual &pa = tournamentPick(rng);
        const Individual &pb = tournamentPick(rng);
        // Uniform per-dim crossover plus per-level order choice.
        child = pa.m;
        for (DimId d = 0; d < nd_; ++d)
            if (rng.next() & 1)
                copyDim(child, pb.m, d);
        for (int l = 0; l < child.numLevels(); ++l)
            if (rng.next() & 1)
                child.level(l).order = pb.m.level(l).order;

        // Mutation: rerandomize a dim or shuffle an order.
        if (rng.unit() < opts_.mutationRate) {
            const DimId d = static_cast<DimId>(rng.below(nd_));
            sampler_.randomizeDim(child, d, rng);
        }
        if (rng.unit() < opts_.mutationRate) {
            const int l = static_cast<int>(rng.below(child.numLevels()));
            rng.shuffle(child.level(l).order);
        }
    }

    const Individual &
    tournamentPick(RngStream &rng)
    {
        const Individual *best = &prev_[rng.below(prev_.size())];
        for (int i = 1; i < opts_.tournament; ++i) {
            const Individual *c = &prev_[rng.below(prev_.size())];
            if (c->fit < best->fit)
                best = c;
        }
        return *best;
    }

    static const Individual &
    bestOf(const std::vector<Individual> &pool)
    {
        return *std::min_element(pool.begin(), pool.end(),
                                 [](const auto &a, const auto &b) {
                                     return a.fit < b.fit;
                                 });
    }

    /**
     * The scored generation becomes the parent pool; the old parents'
     * Mappings stay behind as storage the next generation copy-assigns
     * into, so steady-state generations allocate nothing.
     */
    void
    promote()
    {
        pending_.resize(born_);
        std::swap(prev_, pending_);
        born_ = 0;
        scored_ = 0;
        ++gen_;
        if (gen_ > opts_.generations)
            done_ = true;
    }

    SearchContext &sc_;
    const BoundArch &ba_;
    const GammaOptions &opts_;
    const RandomSampler sampler_;
    const int nd_;

    int gen_ = 0;
    bool done_ = false;
    std::vector<Individual> prev_;
    /** The current generation is pending_[0, born_); the rest is storage. */
    std::vector<Individual> pending_;
    std::size_t born_ = 0;
    std::size_t scored_ = 0;
};

} // anonymous namespace

GammaMapper::GammaMapper(GammaOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
GammaMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);

    EvalEngine &eng = sc.engine();
    sc.ensureSeed(opts.seed);

    StopPolicy defaults;
    defaults.deadlineSeconds = opts.maxSeconds;
    sc.setPolicy(sc.policy().withDefaults(defaults));

    SearchDriver drv(sc, eng, ba, displayName, opts.optimizeEdp);
    GammaStream stream(sc, ba, opts);
    DriverOutcome o = drv.run(stream);
    return toMapperResult(o, o.found ? "" : "no valid individual evolved");
}

double
GammaMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::timeloopSpace(ba);
}

} // namespace sunstone
