/**
 * @file
 * Regenerates Fig. 7: weight update (batch 16) of Inception-v3 layers on
 * the conventional accelerator. (a) EDP of Sunstone vs Timeloop-like
 * (fast/slow), dMazeRunner-like (fast/slow), and Interstellar-like
 * mappers, with invalid mappings flagged; (b) time-to-solution.
 *
 * Expected shapes (paper): Sunstone's EDP is best or tied everywhere and
 * the search is orders of magnitude faster than TL; dMaze returns
 * invalid mappings on light layers (utilization thresholds) and on the
 * asymmetric 1x7/3x1 kernels; INTER's preset CK unrolling loses on some
 * layers.
 */

#include <cstdio>
#include <string>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "mappers/dmaze_mapper.hh"
#include "mappers/interstellar_mapper.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/eval_engine.hh"
#include "workload/nets.hh"

using namespace sunstone;

namespace {

std::string
cell(const MapperResult &r)
{
    if (!r.found)
        return "invalid";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", r.cost.edp);
    return buf;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Silent);
    bench::ObsArgs oargs(argc, argv);
    ArchSpec arch = makeConventional();
    const double budget = bench::baselineBudgetSeconds();

    std::printf("=== Fig. 7: Inception-v3 weight update (batch 16), "
                "conventional accelerator ===\n");
    std::printf("(baseline budget %.1f s per layer)\n\n", budget);
    std::printf("%-14s | %9s | %9s %9s | %9s %9s | %9s || %7s %7s %7s\n",
                "layer", "Sunstone", "TL-fast", "TL-slow", "dMz-fast",
                "dMz-slow", "INTER", "sun(s)", "TLs(s)", "dMzs(s)");
    bench::rule(118);

    std::vector<double> tl_gain, speedup;
    int dmaze_invalid = 0, inter_invalid = 0, layers_run = 0;
    int tl_never_matches = 0;

    // One engine per tool family: Sunstone's telemetry stays separable
    // from the baselines', while each family shares its cache and pool
    // across all layers.
    EvalEngine sunEngine;
    EvalEngine baselineEngine;
    // Each search gets a fresh context (its own seed and RNG streams) on
    // the family's engine and the shared convergence recorder.
    const auto baseline = [&](Mapper &&mapper, const BoundArch &ba) {
        SearchContext sc(&baselineEngine, {}, oargs.convergence());
        return mapper.optimize(sc, ba);
    };

    for (const auto &layer : inceptionV3WeightUpdateLayers(16)) {
        BoundArch ba(arch, layer.workload);
        SunstoneOptions so;
        so.searchLabel = "sunstone:" + layer.workload.name();
        SearchContext sunCtx(&sunEngine, {}, oargs.convergence());
        SunstoneResult sun = sunstoneOptimize(sunCtx, ba, so);

        TimeloopOptions tf = TimeloopOptions::fast();
        tf.maxSeconds = budget;
        auto tlf = baseline(TimeloopMapper(tf, "TL-fast"), ba);
        TimeloopOptions ts = TimeloopOptions::slow();
        ts.maxSeconds = budget;
        auto tls = baseline(TimeloopMapper(ts, "TL-slow"), ba);

        DMazeOptions df = DMazeOptions::fast();
        df.maxEvaluations = 60000;
        auto dmf = baseline(DMazeMapper(df, "dMaze-fast"), ba);
        DMazeOptions ds = DMazeOptions::slow();
        ds.maxEvaluations = 60000;
        auto dms = baseline(DMazeMapper(ds, "dMaze-slow"), ba);

        auto inter = baseline(InterstellarMapper(), ba);

        std::printf(
            "%-14s | %9.3g | %9s %9s | %9s %9s | %9s || %7.2f %7.2f "
            "%7.2f\n",
            layer.workload.name().c_str(), sun.cost.edp,
            cell(tlf).c_str(), cell(tls).c_str(), cell(dmf).c_str(),
            cell(dms).c_str(), cell(inter).c_str(), sun.seconds,
            tls.seconds, dms.seconds);

        ++layers_run;
        if (!dmf.found && !dms.found)
            ++dmaze_invalid;
        if (!inter.found)
            ++inter_invalid;
        const double best_tl = std::min(tlf.found ? tlf.cost.edp : 1e99,
                                        tls.found ? tls.cost.edp : 1e99);
        if (best_tl < 1e98) {
            tl_gain.push_back(best_tl / sun.cost.edp);
            speedup.push_back(tls.seconds / sun.seconds);
            if (best_tl > sun.cost.edp * 1.0001)
                ++tl_never_matches;
        }
    }
    bench::rule(118);
    std::printf("geomean EDP improvement over best TL: %.2fx\n",
                bench::geomean(tl_gain));
    std::printf("geomean speedup vs TL-slow: %.1fx\n",
                bench::geomean(speedup));
    std::printf("TL fails to reach Sunstone's EDP within its budget on "
                "%d/%d layers\n",
                tl_never_matches, layers_run);
    std::printf("dMaze invalid on %d/%d layers; INTER invalid on %d/%d\n",
                dmaze_invalid, layers_run, inter_invalid, layers_run);

    const SearchStats ss = sunEngine.stats();
    const SearchStats bs = baselineEngine.stats();
    std::printf("\nengine telemetry (all layers):\n");
    std::printf("  Sunstone : %lld evaluations, %lld cache hits "
                "(%.1f%% of cached lookups), %lld prunes\n",
                static_cast<long long>(ss.evaluations),
                static_cast<long long>(ss.cacheHits),
                ss.cacheHits + ss.cacheMisses
                    ? 100.0 * (double)ss.cacheHits /
                          (double)(ss.cacheHits + ss.cacheMisses)
                    : 0.0,
                static_cast<long long>(ss.prunes));
    std::printf("  baselines: %lld evaluations, %lld cache hits, "
                "%lld invalid mappings\n",
                static_cast<long long>(bs.evaluations),
                static_cast<long long>(bs.cacheHits),
                static_cast<long long>(bs.invalidMappings));
    oargs.write({{"sunstone", ss.toJson()}, {"baselines", bs.toJson()}});
    return 0;
}
