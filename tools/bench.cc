/**
 * @file
 * Implementation of `sunstone bench`: a seeded micro/macro benchmark of
 * the evaluation engine and the Sunstone search.
 *
 * Five benchmarks run, each `--warmup` throwaway + `--repeat` timed
 * iterations (best-of wins, mean reported alongside):
 *
 *  - eval_random     SoA batch-evaluator throughput over a fixed set of
 *                    seeded diffcheck triples (single thread, no engine,
 *                    no memo cache): per triple, a pre-built
 *                    BatchEvaluator evaluates a seeded batch of random
 *                    mappings into persistent result buffers — the
 *                    steady-state fast path of the model.
 *  - eval_scalar     the historical spec: one evaluateMapping() call
 *                    (fresh CostResult, thread scratch) per evaluation.
 *                    Kept so the trajectory of the scalar path stays
 *                    comparable across optimization PRs.
 *  - batch_conv      EvalEngine::evaluateBatch() over random valid
 *                    mappings of one conv layer (cache bypassed) — the
 *                    batched fast path across the shared pool.
 *  - search_conventional / search_simba
 *                    end-to-end sunstoneOptimize() on a ResNet-style
 *                    conv layer; evals/sec is the engine's evaluation
 *                    counter delta over the search wall-clock.
 *
 * Timing noise: alongside best/mean every benchmark reports the median
 * iteration and the coefficient of variation (stddev/mean) of the timed
 * repeats, so consumers (sunstone report) can flag unstable hosts.
 *
 * Every eval/batch benchmark reports a `checksum` extra: a deterministic
 * reduction (fixed index order, computed once from the final results,
 * outside the timed region), so it is a pure function of the seed —
 * independent of --repeat/--warmup and bitwise comparable across runs
 * and hosts. (It used to accumulate across every warmup and timed
 * iteration inside the loop, which changed with the iteration counts.)
 *
 * Results land in --out (default BENCH_eval.json) under the stable
 * "sunstone-bench-v1" schema so CI can archive and diff them.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "common/parse.hh"
#include "common/timer.hh"
#include "core/sunstone.hh"
#include "model/batch_eval.hh"
#include "model/diffcheck.hh"
#include "model/eval_engine.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "workload/workload.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace bench {

namespace {

struct BenchConfig
{
    std::uint64_t seed = 1;
    int repeat = 5;
    int warmup = 1;
    unsigned threads = 4;
    std::string out = "BENCH_eval.json";
    std::string only; // substring filter on benchmark names

    /**
     * StopPolicy for the search benchmarks (--deadline-ms/--max-evals/
     * --plateau), so a bench run can be bounded the same way a map run
     * is. Unset fields leave the search unbounded, as before.
     */
    StopPolicy policy;
};

struct BenchResult
{
    std::string name;
    std::string kind; // "eval" | "batch" | "search"
    std::int64_t evalsPerIter = 0;
    double bestSeconds = 0;
    double meanSeconds = 0;
    double medianSeconds = 0;
    double cv = 0;          // stddev/mean of the timed repeats
    double evalsPerSec = 0; // from the best iteration
    std::map<std::string, double> extra;
};

/** Runs fn() warmup+repeat times, returns per-repeat seconds. */
template <typename Fn>
std::vector<double>
timeIters(const BenchConfig &cfg, Fn &&fn)
{
    std::vector<double> secs;
    for (int i = 0; i < cfg.warmup + cfg.repeat; ++i) {
        Timer t;
        fn();
        const double s = t.seconds();
        if (i >= cfg.warmup)
            secs.push_back(s);
    }
    return secs;
}

void
finalize(BenchResult &r, const std::vector<double> &secs)
{
    r.bestSeconds = *std::min_element(secs.begin(), secs.end());
    r.meanSeconds = std::accumulate(secs.begin(), secs.end(), 0.0) /
                    static_cast<double>(secs.size());
    std::vector<double> sorted = secs;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    r.medianSeconds = (n % 2) ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    double var = 0;
    for (double s : secs)
        var += (s - r.meanSeconds) * (s - r.meanSeconds);
    var /= static_cast<double>(n);
    r.cv = r.meanSeconds > 0 ? std::sqrt(var) / r.meanSeconds : 0;
    r.evalsPerSec =
        static_cast<double>(r.evalsPerIter) / std::max(r.bestSeconds, 1e-12);
}

/** A pre-built diffcheck triple ready to evaluate. */
struct Triple
{
    Workload wl;
    ArchSpec arch;
    BoundArch ba;
    Mapping m;
};

std::vector<Triple>
makeTriples(std::uint64_t seed, int n)
{
    std::vector<Triple> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(seed + i);
        Workload wl = randomDiffcheckWorkload(rng);
        ArchSpec arch = randomDiffcheckArch(wl, rng);
        BoundArch ba(arch, wl);
        Mapping m = randomDiffcheckMapping(ba, rng);
        out.push_back({std::move(wl), std::move(arch), std::move(ba),
                       std::move(m)});
    }
    return out;
}

/**
 * Raw batch-evaluator throughput, no engine, single thread: per triple a
 * pre-built BatchEvaluator runs a seeded batch of random mappings into
 * persistent results — nothing allocates inside the timed region.
 */
BenchResult
benchEvalRandom(const BenchConfig &cfg)
{
    constexpr int kTriples = 256;
    constexpr int kMappings = 20;
    auto triples = makeTriples(cfg.seed, kTriples);

    std::vector<std::vector<Mapping>> batches(kTriples);
    std::vector<std::vector<CostResult>> out(kTriples);
    std::vector<BatchEvaluator> evals;
    evals.reserve(kTriples);
    for (int i = 0; i < kTriples; ++i) {
        // A fresh stream, offset past the triple seeds so mapping draws
        // never replay a triple's construction stream.
        std::mt19937_64 rng = diffcheckTrialRng(cfg.seed + kTriples + i);
        batches[i].reserve(kMappings);
        for (int j = 0; j < kMappings; ++j)
            batches[i].push_back(
                randomDiffcheckMapping(triples[i].ba, rng));
        out[i].resize(kMappings);
        evals.emplace_back(triples[i].ba, CostModelOptions{});
    }

    BenchResult r;
    r.name = "eval_random";
    r.kind = "eval";
    r.evalsPerIter = static_cast<std::int64_t>(kTriples) * kMappings;
    auto secs = timeIters(cfg, [&] {
        for (int i = 0; i < kTriples; ++i)
            evals[i].evaluate(batches[i], out[i].data());
    });
    finalize(r, secs);

    // Deterministic reduction in fixed index order from the final
    // results: a pure function of the seed.
    double checksum = 0;
    for (int i = 0; i < kTriples; ++i)
        for (int j = 0; j < kMappings; ++j)
            checksum += out[i][j].valid ? out[i][j].totalEnergyPj : 0.0;
    r.extra["checksum"] = checksum;
    r.extra["simd_active"] = BatchEvaluator::simdActive() ? 1 : 0;
    return r;
}

/** The historical per-call scalar spec (fresh CostResult per eval). */
BenchResult
benchEvalScalar(const BenchConfig &cfg)
{
    constexpr int kTriples = 256;
    constexpr int kPasses = 20;
    auto triples = makeTriples(cfg.seed, kTriples);
    BenchResult r;
    r.name = "eval_scalar";
    r.kind = "eval";
    r.evalsPerIter = static_cast<std::int64_t>(kTriples) * kPasses;
    auto secs = timeIters(cfg, [&] {
        for (int p = 0; p < kPasses; ++p)
            for (const auto &t : triples) {
                CostResult cr = evaluateMapping(t.ba, t.m);
                // The result feeds the post-run checksum only; keep the
                // call from being optimized out.
                if (cr.cycles < 0)
                    std::abort();
            }
    });
    finalize(r, secs);

    double checksum = 0;
    for (const auto &t : triples) {
        const CostResult cr = evaluateMapping(t.ba, t.m);
        checksum += cr.valid ? cr.totalEnergyPj : 0.0;
    }
    r.extra["checksum"] = checksum;
    return r;
}

/** Batched engine throughput on one conv layer, cache bypassed. */
BenchResult
benchBatchConv(const BenchConfig &cfg)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    ArchSpec arch = makeConventional();
    BoundArch ba(arch, wl);

    constexpr int kBatch = 512;
    constexpr int kPasses = 4;
    std::mt19937_64 rng = diffcheckTrialRng(cfg.seed);
    std::vector<Mapping> ms;
    ms.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i)
        ms.push_back(randomDiffcheckMapping(ba, rng));

    EvalEngine engine(EvalEngineOptions{.threads = cfg.threads});
    const EvalEngine::Context ctx = engine.context(ba);
    std::vector<CostResult> res;

    BenchResult r;
    r.name = "batch_conv";
    r.kind = "batch";
    r.evalsPerIter = static_cast<std::int64_t>(kBatch) * kPasses;
    auto secs = timeIters(cfg, [&] {
        for (int p = 0; p < kPasses; ++p)
            engine.evaluateBatch(ctx, ms, {},
                                 EvalEngine::CachePolicy::Bypass, res);
    });
    finalize(r, secs);
    r.extra["batch_size"] = kBatch;

    // Deterministic reduction over the final batch results, in index
    // order, outside the timed region: a pure function of the seed.
    double checksum = 0;
    for (const CostResult &cr : res)
        checksum += cr.valid ? cr.totalEnergyPj : 0.0;
    r.extra["checksum"] = checksum;
    return r;
}

/** End-to-end Sunstone search; evals/sec from engine counter deltas. */
BenchResult
benchSearch(const BenchConfig &cfg, const std::string &archName)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    ArchSpec arch =
        archName == "simba" ? makeSimbaLike() : makeConventional();
    BoundArch ba(arch, wl);

    BenchResult r;
    r.name = "search_" + archName;
    r.kind = "search";
    std::int64_t evals = 0;
    double edp = 0;
    auto secs = timeIters(cfg, [&] {
        // A fresh engine per iteration: every repeat pays the same cold
        // memo/prefix caches, so iterations are comparable.
        EvalEngine engine(EvalEngineOptions{.threads = cfg.threads});
        SunstoneOptions opts;
        opts.threads = cfg.threads;
        SearchContext sc(&engine, cfg.policy);
        SunstoneResult sr = sunstoneOptimize(sc, ba, opts);
        evals = engine.stats().evaluations;
        edp = sr.found ? sr.cost.edp : -1;
    });
    r.evalsPerIter = evals; // count of the last iteration (deterministic
                            // up to alpha-beta thread interleaving)
    finalize(r, secs);
    r.extra["edp"] = edp;
    r.extra["search_seconds_best"] = r.bestSeconds;
    return r;
}

std::string
toJson(const BenchConfig &cfg, const std::vector<BenchResult> &results)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"schema\": \"sunstone-bench-v1\""
       << ", \"seed\": " << cfg.seed << ", \"repeat\": " << cfg.repeat
       << ", \"warmup\": " << cfg.warmup
       << ", \"threads\": " << cfg.threads << ", \"simd_backend\": \""
       << BatchEvaluator::backendName() << "\", \"simd_active\": "
       << (BatchEvaluator::simdActive() ? "true" : "false")
       << ", \"benchmarks\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        if (i)
            os << ", ";
        os << "{\"name\": \"" << r.name << "\", \"kind\": \"" << r.kind
           << "\", \"evals_per_iter\": " << r.evalsPerIter
           << ", \"best_seconds\": " << r.bestSeconds
           << ", \"mean_seconds\": " << r.meanSeconds
           << ", \"median_seconds\": " << r.medianSeconds
           << ", \"cv\": " << r.cv
           << ", \"evals_per_sec\": " << r.evalsPerSec;
        for (const auto &[k, v] : r.extra)
            os << ", \"" << k << "\": " << v;
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // anonymous namespace

int
run(const std::map<std::string, std::string> &kv)
{
    BenchConfig cfg;
    const auto get = [&](const std::string &k) -> const std::string * {
        auto it = kv.find(k);
        return it == kv.end() ? nullptr : &it->second;
    };
    // Validated numeric parsing: every malformed or out-of-range value
    // is a clean usage error, never an exception or silent truncation.
    bool parseOk = true;
    const auto intArg = [&](const char *k, std::int64_t lo,
                            std::int64_t hi, std::int64_t dflt) {
        const auto *v = get(k);
        if (!v)
            return dflt;
        std::int64_t n = 0;
        if (!tryParseInt64(*v, n) || n < lo || n > hi) {
            std::fprintf(stderr,
                         "bench: --%s expects an integer in [%lld, %lld], "
                         "got '%s'\n",
                         k, (long long)lo, (long long)hi, v->c_str());
            parseOk = false;
            return dflt;
        }
        return n;
    };
    const auto doubleArg = [&](const char *k, double dflt) {
        const auto *v = get(k);
        if (!v)
            return dflt;
        double d = 0;
        if (!tryParseDouble(*v, d)) {
            std::fprintf(stderr,
                         "bench: --%s expects a finite number, got '%s'\n",
                         k, v->c_str());
            parseOk = false;
            return dflt;
        }
        return d;
    };
    if (const auto *v = get("seed")) {
        std::int64_t n = 0;
        if (!tryParseInt64(*v, n) || n < 0) {
            std::fprintf(stderr,
                         "bench: --seed expects a non-negative integer, "
                         "got '%s'\n",
                         v->c_str());
            parseOk = false;
        } else {
            cfg.seed = static_cast<std::uint64_t>(n);
        }
    }
    cfg.repeat = static_cast<int>(intArg("repeat", 1, 1 << 20, cfg.repeat));
    cfg.warmup = static_cast<int>(intArg("warmup", 0, 1 << 20, cfg.warmup));
    cfg.threads = static_cast<unsigned>(
        intArg("threads", 1, 4096, cfg.threads));
    if (const auto *v = get("out"))
        cfg.out = *v;
    if (const auto *v = get("only"))
        cfg.only = *v;
    if (get("deadline-ms"))
        cfg.policy.deadlineSeconds = doubleArg("deadline-ms", 0) / 1000.0;
    if (get("max-evals"))
        cfg.policy.maxEvals =
            intArg("max-evals", 1, std::numeric_limits<std::int64_t>::max(),
                   0);
    if (get("plateau"))
        cfg.policy.plateau =
            intArg("plateau", 1, std::numeric_limits<std::int64_t>::max(),
                   0);
    if (!parseOk)
        return 1;

    const auto wanted = [&](const std::string &name) {
        return cfg.only.empty() || name.find(cfg.only) != std::string::npos;
    };

    // Live telemetry (DESIGN.md §14), mainly so its overhead can be
    // measured against a telemetry-off run of the same benchmarks.
    std::unique_ptr<obs::SnapshotWriter> snapshot;
    if (const auto *v = get("snapshot-json")) {
        const int interval = static_cast<int>(
            intArg("snapshot-interval-ms", 1, 1 << 30, 1000));
        if (!parseOk)
            return 1;
        snapshot = std::make_unique<obs::SnapshotWriter>(*v, interval);
        if (!snapshot->start()) {
            std::fprintf(stderr, "cannot write '%s'\n", v->c_str());
            return 1;
        }
    }
    std::unique_ptr<obs::ProgressReporter> progress;
    if (kv.count("progress")) {
        progress = std::make_unique<obs::ProgressReporter>();
        progress->start();
    }

    std::vector<BenchResult> results;
    if (wanted("eval_random"))
        results.push_back(benchEvalRandom(cfg));
    if (wanted("eval_scalar"))
        results.push_back(benchEvalScalar(cfg));
    if (wanted("batch_conv"))
        results.push_back(benchBatchConv(cfg));
    if (wanted("search_conventional"))
        results.push_back(benchSearch(cfg, "conventional"));
    if (wanted("search_simba"))
        results.push_back(benchSearch(cfg, "simba"));

    if (progress)
        progress->stop();
    if (snapshot)
        snapshot->stop();

    std::printf("%-20s %-7s %12s %12s %14s\n", "benchmark", "kind",
                "best s", "mean s", "evals/sec");
    for (const auto &r : results)
        std::printf("%-20s %-7s %12.6f %12.6f %14.0f\n", r.name.c_str(),
                    r.kind.c_str(), r.bestSeconds, r.meanSeconds,
                    r.evalsPerSec);

    std::ofstream os(cfg.out);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", cfg.out.c_str());
        return 1;
    }
    os << toJson(cfg, results) << "\n";
    std::printf("wrote %s\n", cfg.out.c_str());
    return 0;
}

} // namespace bench
} // namespace sunstone
