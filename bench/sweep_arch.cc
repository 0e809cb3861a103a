/**
 * @file
 * Architecture sensitivity sweeps — the motivation behind Section I's
 * "more memory and parallel processing levels result in more efficient
 * hardware" (MAGNet's vector-width observation, Simba's weight
 * registers):
 *
 *  1. Vector width of the Simba-like PE (1..16): per-layer EDP when the
 *     scheduler retunes the dataflow for each width.
 *  2. Register vs no-register: the Simba-like machine with the per-lane
 *     weight registers removed.
 *  3. Conventional L1 size sweep (128 B .. 8 KB).
 *
 * Because Sunstone re-optimizes the dataflow per configuration, these
 * sweeps show the *architected* benefit, not a fixed-mapping artifact.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "workload/nets.hh"

using namespace sunstone;

namespace {

/** Simba-like machine with a configurable vector width. */
ArchSpec
simbaWithVectorWidth(int width, bool with_registers)
{
    ArchSpec a = makeSimbaLike();
    a.name = "simba-vw" + std::to_string(width);
    a.levels[0].fanout = width;
    // High-bandwidth DRAM so the sweep isolates datapath effects
    // instead of saturating the memory interface at every width.
    a.levels.back().readBwWordsPerCycle = 256;
    a.levels.back().writeBwWordsPerCycle = 256;
    if (!with_registers) {
        // Remove the weight-register level: lanes hang off the PE
        // buffers directly.
        a.levels[1].fanout *= a.levels[0].fanout;
        a.levels.erase(a.levels.begin());
        a.name += "-noreg";
    }
    return a;
}

struct SweepPoint
{
    double edp = 0;
    double energyPj = 0;
};

SweepPoint
costOf(const ArchSpec &arch, Workload wl)
{
    applySimbaPrecisions(wl);
    BoundArch ba(arch, wl);
    SunstoneOptions opts;
    opts.beamWidth = 16;
    SunstoneResult r = sunstoneOptimize(ba, opts);
    SweepPoint p;
    if (r.found) {
        p.edp = r.cost.edp;
        p.energyPj = r.cost.totalEnergyPj;
    }
    return p;
}

} // anonymous namespace

int
main()
{
    setLogLevel(LogLevel::Silent);
    auto layers = resnet18Layers(4);
    const Workload &layer = layers[7].workload; // conv4_x

    std::printf("=== Sweep 1: Simba-like vector width (layer %s) ===\n",
                layer.name().c_str());
    std::printf("%-10s %12s %12s %12s\n", "width", "EDP",
                "energy(pJ)", "vs width=1");
    bench::rule(52);
    double base = 0;
    for (int w : {1, 2, 4, 8, 16}) {
        const SweepPoint p = costOf(simbaWithVectorWidth(w, true), layer);
        if (w == 1)
            base = p.edp;
        std::printf("%-10d %12.4g %12.4g %12s\n", w, p.edp, p.energyPj,
                    bench::ratio(base, p.edp).c_str());
    }

    std::printf("\n=== Sweep 2: per-lane weight registers (Simba's "
                "observation) ===\n");
    std::printf("%-14s %12s\n", "config", "EDP");
    bench::rule(30);
    const SweepPoint with_reg =
        costOf(simbaWithVectorWidth(8, true), layer);
    const SweepPoint without =
        costOf(simbaWithVectorWidth(8, false), layer);
    std::printf("%-14s %12.4g\n", "with regs", with_reg.edp);
    std::printf("%-14s %12.4g\n", "no regs", without.edp);
    std::printf("register benefit: %s\n",
                bench::ratio(without.edp, with_reg.edp).c_str());

    std::printf("\n=== Sweep 3: conventional L1 size (layer %s) ===\n",
                layer.name().c_str());
    std::printf("%-10s %12s %12s\n", "L1 bytes", "EDP", "energy(pJ)");
    bench::rule(40);
    for (std::int64_t bytes : {128, 256, 512, 1024, 2048, 4096, 8192}) {
        ArchSpec arch = makeConventional();
        arch.levels[0].capacityBits = bytes * 8;
        BoundArch ba(arch, layer);
        SunstoneOptions opts;
        opts.beamWidth = 16;
        SunstoneResult r = sunstoneOptimize(ba, opts);
        std::printf("%-10lld %12.4g %12.4g\n",
                    static_cast<long long>(bytes),
                    r.found ? r.cost.edp : 0.0,
                    r.found ? r.cost.totalEnergyPj : 0.0);
    }
    return 0;
}
