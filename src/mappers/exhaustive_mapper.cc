#include "mappers/exhaustive_mapper.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"

namespace sunstone {

namespace {

/**
 * Enumerates factor assignments over the (level, temporal|spatial)
 * slots for every dim, then every loop permutation per level, pushing
 * each complete mapping into a GeneratorStream sink. The driver owns
 * batching, best tracking, and accounting; emission order matches the
 * old serial scan exactly.
 */
class ExhaustiveProducer
{
  public:
    explicit ExhaustiveProducer(const BoundArch &ba)
        : ba(ba), wl(ba.workload()), nl(ba.numLevels()), nd(wl.numDims())
    {
        for (int l = 0; l < nl; ++l) {
            slots.push_back({l, false});
            if (ba.arch().levels[l].fanout > 1)
                slots.push_back({l, true});
        }
    }

    void
    run(const GeneratorStream::Sink &sink)
    {
        sink_ = &sink;
        stopped = false;
        m = Mapping(nl, nd);
        assignDim(0);
    }

  private:
    struct Slot
    {
        int level;
        bool spatial;
    };

    void
    assignDim(int d)
    {
        if (stopped)
            return;
        if (d == nd) {
            permuteLevel(1);
            return;
        }
        splitRec(d, 0, wl.dimSize(d));
    }

    void
    splitRec(int d, std::size_t slot, std::int64_t rem)
    {
        if (stopped)
            return;
        if (slot == slots.size() - 1) {
            apply(slots[slot], d, rem);
            assignDim(d + 1);
            apply(slots[slot], d, 1);
            return;
        }
        for (std::int64_t f : cachedDivisors(rem)) {
            apply(slots[slot], d, f);
            splitRec(d, slot + 1, rem / f);
            apply(slots[slot], d, 1);
            if (stopped)
                return;
        }
    }

    void
    apply(const Slot &s, int d, std::int64_t f)
    {
        if (s.spatial)
            m.level(s.level).spatial[d] = f;
        else
            m.level(s.level).temporal[d] = f;
    }

    /** Loop orders: level 0's order never affects cost; permute 1..nl-1. */
    void
    permuteLevel(int l)
    {
        if (stopped)
            return;
        if (l == nl) {
            if (!(*sink_)(Mapping(m)))
                stopped = true;
            return;
        }
        std::vector<DimId> perm(nd);
        for (int d = 0; d < nd; ++d)
            perm[d] = d;
        std::sort(perm.begin(), perm.end());
        do {
            m.level(l).order = perm;
            permuteLevel(l + 1);
            if (stopped)
                return;
        } while (std::next_permutation(perm.begin(), perm.end()));
    }

    const BoundArch &ba;
    const Workload &wl;
    const int nl;
    const int nd;
    std::vector<Slot> slots;
    const GeneratorStream::Sink *sink_ = nullptr;
    bool stopped = false;
    Mapping m;
};

} // anonymous namespace

ExhaustiveMapper::ExhaustiveMapper(ExhaustiveOptions o) : opts(o) {}

MapperResult
ExhaustiveMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper.exhaustive");
    const double est = spaceSizeEstimate(ba);
    if (est > opts.maxSpace)
        SUNSTONE_FATAL("exhaustive search space too large (", est,
                       " mappings, cap ", opts.maxSpace, ")");

    EvalEngine &eng = sc.engine();

    SearchDriver drv(sc, eng, ba, "exhaustive", opts.optimizeEdp);
    ExhaustiveProducer producer(ba);
    GeneratorStream stream([&producer](const GeneratorStream::Sink &sink) {
        producer.run(sink);
    });
    DriverOutcome o = drv.run(stream);
    return toMapperResult(o, o.found ? "" : "no valid mapping exists");
}

double
ExhaustiveMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::timeloopSpace(ba);
}

} // namespace sunstone
