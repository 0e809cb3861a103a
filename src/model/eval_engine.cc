#include "model/eval_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "obs/flight_recorder.hh"

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
    d.cacheHits -= earlier.cacheHits;
    d.cacheMisses -= earlier.cacheMisses;
    d.invalidMappings -= earlier.invalidMappings;
    d.prunes -= earlier.prunes;
    d.evictions -= earlier.evictions;
    d.prefixHits -= earlier.prefixHits;
    d.prefixMisses -= earlier.prefixMisses;
    d.scratchReuses -= earlier.scratchReuses;
    d.batches -= earlier.batches;
    return d;
}

double
SearchStats::hitRate() const
{
    const std::int64_t lookups = cacheHits + cacheMisses;
    if (lookups <= 0)
        return 1.0;
    return static_cast<double>(cacheHits) / static_cast<double>(lookups);
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
    field("cache_hits", cacheHits);
    field("cache_misses", cacheMisses);
    field("invalid_mappings", invalidMappings);
    field("prunes", prunes);
    field("evictions", evictions);
    field("prefix_hits", prefixHits);
    field("prefix_misses", prefixMisses);
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

EvalEngine::EvalEngine(unsigned threads)
    : threads_(threads), shards_(kShards)
{
}

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
        // (ephemeral) variant of an op must never share cache entries
        // or dedup groups with its per-layer twin. Folded only when an
        // ephemeral tensor exists so every pre-fusion fingerprint (and
        // any checkpoint carrying one) is preserved verbatim.
        if (ba.anyEphemeral())
            h = fnvStep(h, 0x45504845u ^
                               static_cast<std::uint64_t>(
                                   static_cast<int>(ba.residency(t))));
    }
    return Context(&ba, h);
}

void
EvalEngine::canonicalKey(const Mapping &m, const CostModelOptions &opts,
                         std::vector<std::int64_t> &out) const
{
    const int nl = m.numLevels();
    const int nd = m.numDims();
    out.clear();
    out.reserve(static_cast<std::size_t>(nl) * (3 * nd + 1) + 1);
    out.push_back((opts.assumeValid ? 1 : 0) | (opts.modelNoc ? 2 : 0));
    for (int l = 0; l < nl; ++l) {
        const auto &lm = m.level(l);
        for (DimId d = 0; d < nd; ++d)
            out.push_back(lm.temporal[d]);
        for (DimId d = 0; d < nd; ++d)
            out.push_back(lm.spatial[d]);
        // Orders: level 0's is never consumed by the cost model, and
        // factor-1 loops are skipped wherever orders are walked, so only
        // the relative order of active loops above level 0 is keyed.
        if (l == 0)
            continue;
        out.push_back(-1); // separator keeps the key unambiguous
        for (DimId d : lm.order)
            if (lm.temporal[d] > 1)
                out.push_back(d);
    }
}

void
EvalEngine::canonicalPrefixKey(const Mapping &m, int prefix_levels,
                               std::vector<std::int64_t> &out) const
{
    // Same canonicalization rules as canonicalKey(), restricted to the
    // decided levels and without the options bit (prefix terms are a
    // pure function of factors and reduced orders — see PrefixTerms).
    const int nd = m.numDims();
    out.clear();
    out.reserve(static_cast<std::size_t>(prefix_levels) * (3 * nd + 1) + 1);
    out.push_back(prefix_levels);
    for (int l = 0; l < prefix_levels; ++l) {
        const auto &lm = m.level(l);
        for (DimId d = 0; d < nd; ++d)
            out.push_back(lm.temporal[d]);
        for (DimId d = 0; d < nd; ++d)
            out.push_back(lm.spatial[d]);
        if (l == 0)
            continue;
        out.push_back(-1);
        for (DimId d : lm.order)
            if (lm.temporal[d] > 1)
                out.push_back(d);
    }
}

CostResult
EvalEngine::evaluate(const Context &ctx, const Mapping &m,
                     const CostModelOptions &opts, CachePolicy policy,
                     const PrefixHandle &ph)
{
    CostResult r;
    evaluateChunk(ctx, std::span<const Mapping>(&m, 1), opts, policy,
                  ph.terms_.get(), std::span<CostResult>(&r, 1));
    return r;
}

EvalEngine::PrefixHandle
EvalEngine::prefix(const Context &ctx, const Mapping &base,
                   int prefix_levels)
{
    PrefixHandle handle;
    if (prefix_levels <= 0)
        return handle; // empty handle: nothing decided, plain path

    thread_local std::vector<std::int64_t> key;
    canonicalPrefixKey(base, prefix_levels, key);
    const std::uint64_t h = hashFactors(key, ctx.fingerprint());

    // Call with prefixMtx_ held: serves a stored snapshot as a hit.
    auto serveStored = [&] {
        auto it = prefixCache_.find(h);
        if (it == prefixCache_.end() || it->second.key != key)
            return false;
        prefixHits_.add(1);
        handle.terms_ = it->second.terms;
        return true;
    };
    {
        std::lock_guard<std::mutex> lk(prefixMtx_);
        if (serveStored())
            return handle;
    }

    auto terms = std::make_shared<PrefixTerms>();
    buildPrefixTerms(ctx.boundArch(), base, prefix_levels,
                     threadEvalScratch(), *terms);

    // A concurrent build of the same prefix may have inserted first; its
    // snapshot is returned and this call counts a hit, so the counts do
    // not depend on thread timing.
    std::lock_guard<std::mutex> lk(prefixMtx_);
    if (serveStored())
        return handle;
    prefixMisses_.add(1);
    if (prefixCache_.size() >= kMaxPrefixEntries)
        prefixCache_.clear();
    PrefixEntry &e = prefixCache_[h];
    e.key = key;
    e.terms = terms;
    handle.terms_ = std::move(terms);
    return handle;
}

double
EvalEngine::scoreEnergy(const Context &ctx, const PrefixHandle &ph,
                        const Mapping &m, const CostModelOptions &opts,
                        ScoreTally &tally)
{
    const bool timed = tally.calls++ % kScoreSampleEvery == 0;
    std::chrono::steady_clock::time_point t0;
    if (timed)
        t0 = std::chrono::steady_clock::now();
    EvalScratch &scratch = threadEvalScratch();
    const std::int64_t reuse0 = scratch.reuseCount();
    const std::optional<double> energy = scoreEnergyInto(
        ctx.boundArch(), m, opts, scratch, ph.terms_.get());
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
                          const CostModelOptions &opts, CachePolicy policy,
                          std::vector<CostResult> &out)
{
    out.resize(ms.size());
    if (ms.empty())
        return;
    batches_.add(1);
    batchSize_.record(static_cast<double>(ms.size()));

    // Fixed-size chunks independent of the pool geometry: chunk c always
    // covers the same index range, so out[] and the cache contents are
    // reproducible for any thread count.
    constexpr std::size_t kChunk = 64;
    const std::size_t nChunks = (ms.size() + kChunk - 1) / kChunk;
    auto runChunk = [&](std::size_t c) {
        const std::size_t lo = c * kChunk;
        const std::size_t n = std::min(ms.size() - lo, kChunk);
        evaluateChunk(ctx, ms.subspan(lo, n), opts, policy, nullptr,
                      std::span<CostResult>(out).subspan(lo, n));
    };
    if (nChunks == 1 || threads_ == 1) {
        for (std::size_t c = 0; c < nChunks; ++c)
            runChunk(c);
        return;
    }
    parallelFor(pool(), nChunks, runChunk);
}

void
EvalEngine::evaluateChunk(const Context &ctx, std::span<const Mapping> ms,
                          const CostModelOptions &opts, CachePolicy policy,
                          const PrefixTerms *prefix,
                          std::span<CostResult> out)
{
    const auto n = static_cast<std::int64_t>(ms.size());
    evaluations_.add(n);
    const bool useCache = policy == CachePolicy::UseCache;

    // Gather the evaluations the cache cannot serve. Per-thread buffers:
    // steady-state batches allocate nothing beyond string churn.
    thread_local std::vector<std::size_t> miss;
    thread_local std::vector<std::uint64_t> missHash;
    thread_local std::vector<std::size_t> missKeyOff;
    thread_local std::vector<std::int64_t> keysFlat;
    miss.clear();
    missHash.clear();
    missKeyOff.clear();
    keysFlat.clear();

    if (!useCache) {
        for (std::size_t i = 0; i < ms.size(); ++i)
            miss.push_back(i);
    } else {
        thread_local std::vector<std::int64_t> key;
        for (std::size_t i = 0; i < ms.size(); ++i) {
            canonicalKey(ms[i], opts, key);
            const std::uint64_t h = hashFactors(key, ctx.fingerprint());
            Shard &shard = shards_[h % kShards];
            bool hit = false;
            {
                std::lock_guard<std::mutex> lk(shard.mtx);
                auto it = shard.map.find(h);
                if (it != shard.map.end() && it->second.key == key) {
                    out[i] = it->second.result;
                    hit = true;
                }
            }
            if (hit)
                continue;
            miss.push_back(i);
            missHash.push_back(h);
            missKeyOff.push_back(keysFlat.size());
            keysFlat.insert(keysFlat.end(), key.begin(), key.end());
        }
        missKeyOff.push_back(keysFlat.size()); // end sentinel
    }

    if (!miss.empty()) {
        const auto t0 = std::chrono::steady_clock::now();
        EvalScratch &scratch = threadEvalScratch();
        const std::int64_t reuse0 = scratch.reuseCount();
        for (std::size_t i : miss)
            evaluateMappingInto(ctx.boundArch(), ms[i], opts, scratch,
                                out[i], prefix);
        scratchReuses_.add(scratch.reuseCount() - reuse0);
        // The chunk's per-eval mean, weighted by the evaluations it
        // timed: one observation per model invocation (cache hits
        // excluded) without a clock read per mapping.
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const auto timed = static_cast<std::int64_t>(miss.size());
        evalLatencyUs_.record(us / static_cast<double>(timed), timed);
    }

    std::int64_t invalid = 0;
    for (const CostResult &r : out)
        invalid += r.valid ? 0 : 1;
    invalid_.add(invalid);
    if (!useCache)
        return;

    // A miss counts only when its insert creates the entry. One whose
    // key another thread (or an earlier mapping of this chunk) stored
    // meanwhile counts a hit, so the counts do not depend on timing.
    std::int64_t created = 0;
    for (std::size_t j = 0; j < miss.size(); ++j) {
        const auto kb = keysFlat.begin() + missKeyOff[j];
        const auto ke = keysFlat.begin() + missKeyOff[j + 1];
        Shard &shard = shards_[missHash[j] % kShards];
        std::lock_guard<std::mutex> lk(shard.mtx);
        auto it = shard.map.find(missHash[j]);
        if (it != shard.map.end() &&
            std::equal(kb, ke, it->second.key.begin(), it->second.key.end()))
            continue;
        if (shard.map.size() >= kMaxEntriesPerShard) {
            evictions_.add(static_cast<std::int64_t>(shard.map.size()));
            obs::flightRecorder().record(
                "cache.epoch_reset",
                "entries=" + std::to_string(shard.map.size()));
            shard.map.clear();
        }
        Entry &e = shard.map[missHash[j]];
        e.key.assign(kb, ke);
        e.result = out[miss[j]];
        ++created;
    }
    // Each counter once per chunk, not once per mapping.
    hits_.add(n - created);
    misses_.add(created);
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
    s.cacheHits = hits_.value();
    s.cacheMisses = misses_.value();
    s.invalidMappings = invalid_.value();
    s.prunes = prunes_.value();
    s.evictions = evictions_.value();
    s.prefixHits = prefixHits_.value();
    s.prefixMisses = prefixMisses_.value();
    s.scratchReuses = scratchReuses_.value();
    s.batches = batches_.value();
    s.evalLatencyUs = evalLatencyUs_.snapshot();
    s.batchSize = batchSize_.snapshot();
    return s;
}

std::size_t
EvalEngine::cacheSize() const
{
    std::size_t n = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lk(s.mtx);
        n += s.map.size();
    }
    return n;
}

} // namespace sunstone
