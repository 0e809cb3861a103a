/**
 * @file
 * Regenerates Fig. 8: ResNet-18 inference (batch 16) on the Simba-like
 * hierarchical accelerator. Only Timeloop-like and CoSA-like baselines
 * support this architecture (dMaze/INTER report unsupported, as in the
 * paper). (a) per-layer EDP with CoSA invalids flagged; (b) time to
 * solution.
 *
 * Expected shapes (paper): CoSA is fastest but returns invalid mappings
 * on most layers and loses EDP where valid; TL needs orders of magnitude
 * longer than Sunstone and lands ~1.5x worse EDP overall.
 */

#include <cstdio>
#include <string>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/net_scheduler.hh"
#include "core/sunstone.hh"
#include "mappers/cosa_mapper.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/eval_engine.hh"
#include "workload/nets.hh"

using namespace sunstone;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Silent);
    bench::ObsArgs oargs(argc, argv);
    ArchSpec arch = makeSimbaLike();
    const double budget = bench::baselineBudgetSeconds();

    std::printf("=== Fig. 8: ResNet-18 inference (batch 16) on the "
                "Simba-like accelerator ===\n");
    std::printf("(baseline budget %.1f s per layer)\n\n", budget);
    std::printf("%-10s | %10s %8s | %10s %8s | %10s %8s | %8s\n", "layer",
                "sun EDP", "sun s", "TL EDP", "TL s", "CoSA EDP",
                "CoSA s", "TL/sun");
    bench::rule(100);

    std::vector<double> tl_gain, tl_speedup;
    int cosa_invalid = 0, cosa_total = 0;
    double sun_total_edp = 0, tl_total_edp = 0;

    // The whole network goes through the network scheduler on one shared
    // engine: repeated structures are searched once and every search
    // shares the memoization cache. Baselines get their own engine so
    // the telemetry stays per tool family.
    std::vector<Layer> layers = resnet18Layers(16);
    for (auto &layer : layers)
        applySimbaPrecisions(layer.workload);

    EvalEngine sunEngine;
    SearchContext sc(&sunEngine, {}, oargs.convergence());
    NetScheduleResult net =
        scheduleNet(sc, arch, NetGraph::fromLayers(layers));

    EvalEngine baselineEngine;
    // Each baseline search gets a fresh context (its own seed and RNG
    // streams) on the baseline engine and the shared recorder.
    const auto baseline = [&](Mapper &&mapper, const BoundArch &ba) {
        SearchContext bsc(&baselineEngine, {}, oargs.convergence());
        return mapper.optimize(bsc, ba);
    };
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const Workload &wl = layers[li].workload;
        BoundArch ba(arch, wl);

        const LayerSchedule &lsched = net.layers[li];
        SunstoneResult sun;
        sun.found = lsched.found;
        sun.mapping = lsched.mapping;
        sun.cost = lsched.cost;
        sun.seconds = lsched.seconds;

        TimeloopOptions to = TimeloopOptions::slow();
        to.maxSeconds = budget;
        auto tl = baseline(TimeloopMapper(to, "TL"), ba);
        auto cosa = baseline(CosaMapper(), ba);
        ++cosa_total;
        if (!cosa.found)
            ++cosa_invalid;

        std::string cosa_edp = cosa.found ? "" : "invalid";
        char buf[32];
        if (cosa.found) {
            std::snprintf(buf, sizeof(buf), "%.3g", cosa.cost.edp);
            cosa_edp = buf;
        }

        std::printf("%-10s | %10.3g %8.3f | %10.3g %8.2f | %10s %8.4f | "
                    "%8s\n",
                    wl.name().c_str(), sun.cost.edp, sun.seconds,
                    tl.found ? tl.cost.edp : 0.0, tl.seconds,
                    cosa_edp.c_str(), cosa.seconds,
                    tl.found
                        ? bench::ratio(tl.cost.edp, sun.cost.edp).c_str()
                        : "n/a");

        if (tl.found && sun.found) {
            tl_gain.push_back(tl.cost.edp / sun.cost.edp);
            if (!lsched.deduplicated && sun.seconds > 0)
                tl_speedup.push_back(tl.seconds / sun.seconds);
            sun_total_edp += layers[li].count * sun.cost.edp;
            tl_total_edp += layers[li].count * tl.cost.edp;
        }
    }
    bench::rule(100);
    std::printf("geomean per-layer TL/Sunstone EDP: %.2fx "
                "(network-weighted %.2fx)\n",
                bench::geomean(tl_gain), tl_total_edp / sun_total_edp);
    std::printf("geomean TL/Sunstone time: %.1fx\n",
                bench::geomean(tl_speedup));
    std::printf("CoSA invalid mappings: %d/%d layers\n", cosa_invalid,
                cosa_total);

    const SearchStats ss = sunEngine.stats();
    const SearchStats bs = baselineEngine.stats();
    std::printf("\nnetwork schedule: %d layer instances, %d unique "
                "searched (%.2f s total)\n",
                net.layersTotal, net.layersUnique, net.seconds);
    std::printf("whole-net aggregate: energy %.4g pJ, delay %.4g s, "
                "EDP %.4g\n",
                net.totalEnergyPj, net.totalDelaySeconds, net.totalEdp);
    std::printf("Sunstone engine: %lld evaluations, %lld cost-model runs "
                "avoided by the cache, %lld prunes\n",
                static_cast<long long>(ss.evaluations),
                static_cast<long long>(ss.cacheHits),
                static_cast<long long>(ss.prunes));
    std::printf("baseline engine: %lld evaluations, %lld cache hits\n",
                static_cast<long long>(bs.evaluations),
                static_cast<long long>(bs.cacheHits));
    oargs.write({{"sunstone", ss.toJson()}, {"baselines", bs.toJson()}});
    return 0;
}
