/**
 * @file
 * Ablation bench for the two pruning claims of Section III and the
 * alpha-beta/beam machinery:
 *
 *  1. Tiling Principle: fraction of the L1 tile space pruned for
 *     ResNet-18 conv layers (paper: up to 80%).
 *  2. Spatial Unrolling Principle: fraction of unrolling candidates
 *     pruned for a 14x12 Eyeriss-style grid (paper: >90%).
 *  3. Search ablation: EDP and examined candidates with alpha-beta
 *     and/or the utilization filter disabled.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "core/tiling_tree.hh"
#include "core/unrolling.hh"
#include "workload/nets.hh"

using namespace sunstone;

int
main()
{
    setLogLevel(LogLevel::Silent);
    auto layers = resnet18Layers(1);

    std::printf("=== Ablation 1: Tiling Principle pruning of the L1 "
                "tile space (ResNet-18, conventional) ===\n");
    std::printf("%-10s %12s %12s %10s\n", "layer", "unpruned", "maximal",
                "pruned");
    bench::rule(50);
    ArchSpec conv_arch = makeConventional();
    for (const auto &layer : layers) {
        const Workload &wl = layer.workload;
        if (wl.numDims() < 7)
            continue;
        BoundArch ba(conv_arch, wl);
        DimSet grow = wl.reuse(wl.tensorByName("ofmap")).indexing;
        auto res = growTiles(ba, 0,
                             std::vector<std::int64_t>(wl.numDims(), 1),
                             wl.shape(), grow);
        const double pruned =
            1.0 - static_cast<double>(res.maximal.size()) /
                      static_cast<double>(res.unprunedSpace);
        std::printf("%-10s %12lld %12zu %9.1f%%\n", wl.name().c_str(),
                    static_cast<long long>(res.unprunedSpace),
                    res.maximal.size(), 100.0 * pruned);
    }

    std::printf("\n=== Ablation 2: Spatial Unrolling Principle on a "
                "14x12 grid (ResNet-18) ===\n");
    std::printf("%-10s %12s %12s %10s\n", "layer", "all dims",
                "principle", "pruned");
    bench::rule(50);
    const std::int64_t grid = 14 * 12;
    for (const auto &layer : layers) {
        const Workload &wl = layer.workload;
        if (wl.numDims() < 7)
            continue;
        auto all =
            unrollCandidates(wl, DimSet::all(wl.numDims()), wl.shape(),
                             grid, 0.0);
        DimSet allowed = wl.reuse(wl.tensorByName("ofmap")).indexing;
        auto pruned = unrollCandidates(wl, allowed, wl.shape(), grid, 0.0);
        std::printf("%-10s %12lld %12lld %9.1f%%\n", wl.name().c_str(),
                    static_cast<long long>(all.combosVisited),
                    static_cast<long long>(pruned.combosVisited),
                    100.0 * (1.0 - static_cast<double>(
                                       pruned.combosVisited) /
                                       static_cast<double>(
                                           all.combosVisited)));
    }

    std::printf("\n=== Ablation 3: search knobs (conv3_x layer, "
                "conventional) ===\n");
    std::printf("%-34s %12s %12s %10s\n", "configuration", "EDP",
                "examined", "time(s)");
    bench::rule(72);
    const Workload &wl = layers[4].workload; // conv3_x
    BoundArch ba(conv_arch, wl);
    struct Knob
    {
        const char *name;
        SunstoneOptions opts;
    };
    std::vector<Knob> knobs;
    {
        Knob k;
        k.name = "default (alpha-beta + util 0.75)";
        knobs.push_back(k);
        k.name = "no alpha-beta";
        k.opts = SunstoneOptions();
        k.opts.alphaBeta = false;
        knobs.push_back(k);
        k.name = "no utilization filter";
        k.opts = SunstoneOptions();
        k.opts.utilizationThreshold = 0.0;
        knobs.push_back(k);
        k.name = "beam 8";
        k.opts = SunstoneOptions();
        k.opts.beamWidth = 8;
        knobs.push_back(k);
        k.name = "beam 128";
        k.opts = SunstoneOptions();
        k.opts.beamWidth = 128;
        knobs.push_back(k);
    }
    for (const auto &k : knobs) {
        SunstoneResult r = sunstoneOptimize(ba, k.opts);
        std::printf("%-34s %12.4g %12lld %10.2f\n", k.name,
                    r.found ? r.cost.edp : 0.0,
                    static_cast<long long>(r.candidatesExamined),
                    r.seconds);
    }
    return 0;
}
