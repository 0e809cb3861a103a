#include "model/eval_engine.hh"

#include <chrono>
#include <cstring>
#include <limits>

namespace sunstone {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t
fnvStep(std::uint64_t h, std::uint64_t x)
{
    // Mix all eight bytes of x into the running FNV-1a state.
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnvDouble(std::uint64_t h, double d)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return fnvStep(h, bits);
}

inline std::uint64_t
fnvString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return fnvStep(h, s.size());
}

} // anonymous namespace

std::uint64_t
hashFactors(const std::vector<std::int64_t> &v, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::int64_t x : v)
        h = fnvStep(h, static_cast<std::uint64_t>(x));
    return h;
}

SearchStats
SearchStats::deltaSince(const SearchStats &earlier) const
{
    SearchStats d = *this;
    d.evaluations -= earlier.evaluations;
    d.invalidMappings -= earlier.invalidMappings;
    d.prunes -= earlier.prunes;
    d.scratchReuses -= earlier.scratchReuses;
    d.batches -= earlier.batches;
    return d;
}

std::string
SearchStats::toJson() const
{
    std::string out = "{";
    auto field = [&](const char *name, std::int64_t v, bool comma = true) {
        out += "\"";
        out += name;
        out += "\": ";
        out += std::to_string(v);
        if (comma)
            out += ", ";
    };
    field("evaluations", evaluations);
    field("invalid_mappings", invalidMappings);
    field("prunes", prunes);
    field("scratch_reuses", scratchReuses);
    field("batches", batches);
    // Piece by piece: GCC 12 raises a false -Wrestrict on
    // `literal + std::string` temporaries here.
    out += "\"eval_latency_us\": ";
    out += evalLatencyUs.toJson();
    out += ", \"batch_size\": ";
    out += batchSize.toJson();
    out += "}";
    return out;
}

EvalEngine::EvalEngine(unsigned threads) : threads_(threads) {}

EvalEngine::~EvalEngine() = default;

EvalEngine::Context
EvalEngine::context(const BoundArch &ba) const
{
    // Structural fingerprint of everything the cost model and validity
    // check read: architecture levels, compute specs, per-tensor shape
    // structure, storage membership, and access energies. Display names
    // are deliberately excluded so identical layers fingerprint alike.
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    h = fnvStep(h, static_cast<std::uint64_t>(ba.numLevels()));
    h = fnvStep(h, static_cast<std::uint64_t>(wl.numDims()));
    h = fnvStep(h, static_cast<std::uint64_t>(ba.numTensors()));
    h = fnvStep(h, static_cast<std::uint64_t>(arch.macBits));
    h = fnvDouble(h, arch.clockGhz);
    h = fnvDouble(h, ba.macEnergyPj());
    for (DimId d = 0; d < wl.numDims(); ++d)
        h = fnvStep(h, static_cast<std::uint64_t>(wl.dimSize(d)));
    for (const auto &lv : arch.levels) {
        h = fnvStep(h, static_cast<std::uint64_t>(lv.capacityBits));
        h = fnvStep(h, static_cast<std::uint64_t>(lv.fanout));
        h = fnvDouble(h, lv.readBwWordsPerCycle);
        h = fnvDouble(h, lv.writeBwWordsPerCycle);
        h = fnvStep(h, (lv.multicast ? 1u : 0u) |
                           (lv.doubleBuffered ? 2u : 0u) |
                           (lv.isDram ? 4u : 0u));
        h = fnvStep(h, static_cast<std::uint64_t>(lv.meshX) << 32 |
                           static_cast<std::uint64_t>(lv.meshY));
        for (const auto &p : lv.partitions) {
            h = fnvString(h, p.name);
            h = fnvStep(h, static_cast<std::uint64_t>(p.capacityBits));
        }
    }
    for (TensorId t = 0; t < ba.numTensors(); ++t) {
        const TensorSpec &ts = wl.tensor(t);
        h = fnvStep(h, (ts.isOutput ? 1u : 0u));
        h = fnvStep(h, static_cast<std::uint64_t>(ts.wordBits));
        h = fnvString(h, ba.partitionOf(t));
        for (const auto &r : ts.ranks) {
            h = fnvStep(h, static_cast<std::uint64_t>(r.terms.size()));
            for (const auto &term : r.terms) {
                h = fnvStep(h, static_cast<std::uint64_t>(term.dim));
                h = fnvStep(h, static_cast<std::uint64_t>(term.coeff));
            }
        }
        for (int l = 0; l < ba.numLevels(); ++l) {
            h = fnvStep(h, ba.stores(l, t) ? 1u : 0u);
            if (ba.stores(l, t)) {
                h = fnvDouble(h, ba.readEnergyPj(l, t));
                h = fnvDouble(h, ba.writeEnergyPj(l, t));
            }
        }
        // Residency classes change evaluation semantics, so a fused
        // (ephemeral) variant of an op must never share a dedup group
        // with its per-layer twin. Folded only when an
        // ephemeral tensor exists so every pre-fusion fingerprint (and
        // any checkpoint carrying one) is preserved verbatim.
        if (ba.anyEphemeral())
            h = fnvStep(h, 0x45504845u ^
                               static_cast<std::uint64_t>(
                                   static_cast<int>(ba.residency(t))));
    }
    return Context(&ba, h);
}

CostResult
EvalEngine::evaluate(const Context &ctx, const Mapping &m,
                     const CostModelOptions &opts)
{
    CostResult r;
    evaluateSpan(ctx, std::span<const Mapping>(&m, 1), opts,
                 std::span<CostResult>(&r, 1));
    return r;
}

double
EvalEngine::scoreEnergy(const Context &ctx, const Mapping &m,
                        const CostModelOptions &opts, ScoreTally &tally)
{
    const bool timed = tally.calls++ % kScoreSampleEvery == 0;
    std::chrono::steady_clock::time_point t0;
    if (timed)
        t0 = std::chrono::steady_clock::now();
    EvalScratch &scratch = threadEvalScratch();
    const std::int64_t reuse0 = scratch.reuseCount();
    const std::optional<double> energy =
        scoreEnergyInto(ctx.boundArch(), m, opts, scratch);
    tally.scratchReuses += scratch.reuseCount() - reuse0;
    if (timed) {
        ++tally.timedCalls;
        tally.timedUs += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    }
    if (!energy) {
        ++tally.invalid;
        return std::numeric_limits<double>::infinity();
    }
    return *energy;
}

void
EvalEngine::addScores(ScoreTally &tally)
{
    if (tally.calls > 0) {
        evaluations_.add(tally.calls);
        invalid_.add(tally.invalid);
        scratchReuses_.add(tally.scratchReuses);
        // Every call counts; the timed ones stand in for the rest.
        const double mean =
            tally.timedCalls > 0
                ? tally.timedUs / static_cast<double>(tally.timedCalls)
                : 0.0;
        evalLatencyUs_.record(mean, tally.calls);
    }
    tally = {};
}

void
EvalEngine::evaluateBatch(const Context &ctx, std::span<const Mapping> ms,
                          const CostModelOptions &opts,
                          std::vector<CostResult> &out)
{
    out.resize(ms.size());
    if (ms.empty())
        return;
    batches_.add(1);
    batchSize_.record(static_cast<double>(ms.size()));
    evaluateSpan(ctx, ms, opts, out);
}

void
EvalEngine::evaluateSpan(const Context &ctx, std::span<const Mapping> ms,
                         const CostModelOptions &opts,
                         std::span<CostResult> out)
{
    const auto n = static_cast<std::int64_t>(ms.size());
    evaluations_.add(n);
    const auto t0 = std::chrono::steady_clock::now();
    EvalScratch &scratch = threadEvalScratch();
    const std::int64_t reuse0 = scratch.reuseCount();
    std::int64_t invalid = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
        evaluateMappingInto(ctx.boundArch(), ms[i], opts, scratch, out[i]);
        invalid += out[i].valid ? 0 : 1;
    }
    scratchReuses_.add(scratch.reuseCount() - reuse0);
    // The span's per-eval mean, weighted by its evaluations: one
    // observation per model invocation without a clock read per mapping.
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    evalLatencyUs_.record(us / static_cast<double>(n), n);
    invalid_.add(invalid);
}

ThreadPool &
EvalEngine::pool()
{
    std::lock_guard<std::mutex> lk(poolMtx_);
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(threads_);
    return *pool_;
}

SearchStats
EvalEngine::stats() const
{
    SearchStats s;
    s.evaluations = evaluations_.value();
    s.invalidMappings = invalid_.value();
    s.prunes = prunes_.value();
    s.scratchReuses = scratchReuses_.value();
    s.batches = batches_.value();
    s.evalLatencyUs = evalLatencyUs_.snapshot();
    s.batchSize = batchSize_.snapshot();
    return s;
}

} // namespace sunstone
