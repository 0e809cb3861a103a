#include "mappers/timeloop_mapper.hh"

#include "common/json.hh"
#include "mappers/random_sampler.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "search/rng.hh"

namespace sunstone {

namespace {

/**
 * The random-sampling stream. Samples are drawn round-robin from a
 * fixed number of logical RNG shards — a constant, never derived from
 * the thread count — so the candidate sequence (and therefore the whole
 * search) is identical at any --threads value. Resume needs only the
 * shard cursors (restored by the driver) plus the round-robin position.
 */
class TimeloopStream : public CandidateStream
{
  public:
    static constexpr std::size_t kShards = 16;

    TimeloopStream(SearchContext &sc, const BoundArch &ba)
        : sc_(sc), sampler_(ba)
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        out.resize(max);
        for (Mapping &m : out) {
            sampler_.fill(m, sc_.rngStream(cursor_ % kShards));
            ++cursor_;
        }
        return true; // never exhausts; a StopPolicy bound ends it
    }

    EvalEngine::CachePolicy
    cachePolicy() const override
    {
        // Uniform random samples almost never repeat, so caching them
        // would only churn the shared cache.
        return EvalEngine::CachePolicy::Bypass;
    }

    ResumeMode resumeMode() const override { return ResumeMode::State; }

    std::string
    saveState() const override
    {
        return "{\"cursor\": " + std::to_string(cursor_) + "}";
    }

    bool
    restoreState(const std::string &payload) override
    {
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            return false;
        const JsonValue *c = v.find("cursor");
        if (!c)
            return false;
        cursor_ = c->asInt(0);
        return cursor_ >= 0;
    }

  private:
    SearchContext &sc_;
    const RandomSampler sampler_;
    std::int64_t cursor_ = 0;
};

} // anonymous namespace

TimeloopMapper::TimeloopMapper(TimeloopOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
TimeloopMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);

    EvalEngine &eng = sc.engine();
    sc.ensureSeed(opts.seed);

    StopPolicy defaults;
    defaults.deadlineSeconds = opts.maxSeconds;
    defaults.plateau = opts.victoryCondition;
    defaults.maxConsecutiveInvalid = opts.maxConsecutiveInvalid;
    sc.setPolicy(sc.policy().withDefaults(defaults));

    SearchDriver drv(sc, eng, ba, displayName, opts.optimizeEdp);
    TimeloopStream stream(sc, ba);
    DriverOutcome o = drv.run(stream);
    return toMapperResult(o, o.found ? "" : "no valid mapping sampled");
}

double
TimeloopMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::timeloopSpace(ba);
}

} // namespace sunstone
