/**
 * @file
 * Regenerates Fig. 9: the tiling/unrolling overhead study on the
 * DianNao-like accelerator. For each unique ResNet-18 layer the mapping
 * found by Sunstone is compiled to the 256-bit control ISA and executed
 * on the instruction-level simulator; the naive all-from-DRAM schedule
 * is the reference.
 *
 * (a) normalized energy of naive vs dataflow-optimized execution, and
 * (b) the per-component energy breakdown (MACs, DRAM, NBin, SB, NBout,
 * instruction fetch, one-time data reordering).
 *
 * Expected shapes (paper): the optimized execution is ~2.9x more energy
 * efficient overall; instructions cost ~5% and reordering ~0.2% of the
 * optimized total at network scale.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "diannao/simulator.hh"
#include "workload/nets.hh"

using namespace sunstone;

int
main()
{
    setLogLevel(LogLevel::Silent);
    ArchSpec arch = makeDianNaoLike();

    std::printf("=== Fig. 9: tiling & unrolling overheads on the "
                "DianNao-like accelerator (ResNet-18, batch 16) ===\n\n");
    std::printf("%-10s %12s %12s %8s | %7s %7s %7s %7s %7s %7s %7s\n",
                "layer", "naive(pJ)", "tiled(pJ)", "gain", "MAC%",
                "DRAM%", "NBin%", "SB%", "NBout%", "instr%", "reord%");
    bench::rule(118);

    diannao::SimResult total_naive, total_tiled;
    std::int64_t total_instructions = 0;

    for (const auto &layer : resnet18Layers(16)) {
        Workload wl = layer.workload;
        BoundArch ba(arch, wl);
        SunstoneResult r = sunstoneOptimize(ba);
        if (!r.found) {
            std::printf("%-10s  -- no valid mapping --\n",
                        wl.name().c_str());
            continue;
        }
        auto prog = diannao::compileMapping(ba, r.mapping);
        auto tiled = diannao::simulate(ba, prog);
        auto naive = diannao::simulateNaiveStreaming(ba);

        auto pct = [&](double x) { return 100.0 * x / tiled.totalPj; };
        std::printf("%-10s %12.4g %12.4g %7.2fx | %6.1f%% %6.1f%% "
                    "%6.1f%% %6.1f%% %6.1f%% %6.2f%% %6.2f%%\n",
                    wl.name().c_str(), naive.totalPj, tiled.totalPj,
                    naive.totalPj / tiled.totalPj, pct(tiled.macPj),
                    pct(tiled.dramPj), pct(tiled.nbinPj), pct(tiled.sbPj),
                    pct(tiled.nboutPj), pct(tiled.instrPj),
                    pct(tiled.reorderPj));

        const int n = layer.count;
        total_instructions += n * tiled.instructions;
        total_naive.totalPj += n * naive.totalPj;
        total_tiled.totalPj += n * tiled.totalPj;
        total_tiled.macPj += n * tiled.macPj;
        total_tiled.dramPj += n * tiled.dramPj;
        total_tiled.nbinPj += n * tiled.nbinPj;
        total_tiled.sbPj += n * tiled.sbPj;
        total_tiled.nboutPj += n * tiled.nboutPj;
        total_tiled.instrPj += n * tiled.instrPj;
        total_tiled.reorderPj += n * tiled.reorderPj;
    }
    bench::rule(118);
    auto pct = [&](double x) { return 100.0 * x / total_tiled.totalPj; };
    std::printf("network total: naive %.4g pJ, tiled %.4g pJ -> %.2fx "
                "more energy efficient\n",
                total_naive.totalPj, total_tiled.totalPj,
                total_naive.totalPj / total_tiled.totalPj);
    std::printf("network breakdown: MAC %.1f%%, DRAM %.1f%%, NBin "
                "%.1f%%, SB %.1f%%, NBout %.1f%%, instr %.2f%%, reorder "
                "%.2f%%\n",
                pct(total_tiled.macPj), pct(total_tiled.dramPj),
                pct(total_tiled.nbinPj), pct(total_tiled.sbPj),
                pct(total_tiled.nboutPj), pct(total_tiled.instrPj),
                pct(total_tiled.reorderPj));
    std::printf("instructions executed for the whole network: %.3g "
                "(256-bit each)\n",
                static_cast<double>(total_instructions));
    return 0;
}
