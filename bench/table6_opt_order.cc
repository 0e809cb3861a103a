/**
 * @file
 * Regenerates Table VI: the effect of the inter-level order (bottom-up
 * vs top-down) and the intra-level decision order (unroll/tile/order
 * permutations) on the examined-space size and the resulting EDP, for
 * ResNet-18 convolution layers on the Eyeriss-like accelerator.
 *
 * Expected shapes (paper): the three bottom-up variants examine spaces
 * of the same magnitude and reach essentially the same EDP; top-down
 * examines an order of magnitude (or more) larger space for similar
 * quality, because the tiling principle has nothing to bind to at the
 * top and alpha-beta estimates are poor early.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "workload/nets.hh"

using namespace sunstone;

namespace {

struct Config
{
    const char *interLevel;
    const char *intraLevel;
    SunstoneOptions opts;
};

} // anonymous namespace

int
main()
{
    setLogLevel(LogLevel::Silent);
    using LO = SunstoneOptions::LevelOrder;
    using IO = SunstoneOptions::IntraOrder;

    std::vector<Config> configs;
    {
        Config c;
        c.interLevel = "bottom-up";
        c.intraLevel = "unroll->tile->order";
        c.opts.levelOrder = LO::BottomUp;
        c.opts.intraOrder = IO::UnrollTileOrder;
        configs.push_back(c);
        c.intraLevel = "tile->unroll->order";
        c.opts.intraOrder = IO::TileUnrollOrder;
        configs.push_back(c);
        c.intraLevel = "order->tile->unroll";
        c.opts.intraOrder = IO::OrderTileUnroll;
        configs.push_back(c);
        c.interLevel = "top-down";
        c.intraLevel = "unroll->tile->order";
        c.opts.levelOrder = LO::TopDown;
        c.opts.intraOrder = IO::UnrollTileOrder;
        configs.push_back(c);
    }

    std::printf("=== Table VI: effect of optimization order "
                "(ResNet-18 conv layers, Eyeriss-like) ===\n\n");
    std::printf("%-10s %-22s %14s %14s %10s\n", "inter", "intra",
                "space size", "sum EDP", "time(s)");
    bench::rule(76);

    ArchSpec arch = makeEyerissLike();
    auto layers = resnet18Layers(16);

    for (const auto &cfg : configs) {
        std::int64_t space = 0;
        double edp = 0;
        double secs = 0;
        bool all_found = true;
        for (const auto &layer : layers) {
            if (layer.workload.numDims() < 4)
                continue; // conv layers only, as in the paper
            BoundArch ba(arch, layer.workload);
            SunstoneResult r = sunstoneOptimize(ba, cfg.opts);
            space += r.candidatesExamined;
            secs += r.seconds;
            if (!r.found) {
                all_found = false;
                continue;
            }
            edp += layer.count * r.cost.edp;
        }
        std::printf("%-10s %-22s %14lld %14.4g %10.2f%s\n",
                    cfg.interLevel, cfg.intraLevel,
                    static_cast<long long>(space), edp, secs,
                    all_found ? "" : "  (some layers unmapped)");
    }
    bench::rule(76);
    std::printf("(sum EDP is the layer-count-weighted sum over the "
                "network, J*s)\n");
    return 0;
}
