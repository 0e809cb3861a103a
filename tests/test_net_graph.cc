/**
 * @file
 * NetGraph IR and fusion-aware scheduling (DESIGN.md §13): structural
 * validation, the lossless layer-list adapter, residency classification
 * of fused subgraphs, the residency rule in the cost model, fuse-off
 * equivalence with the per-layer scheduler, and the greedy fusion
 * guarantee that fused totals never regress.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/presets.hh"
#include "core/net_scheduler.hh"
#include "model/cost_model.hh"
#include "model/eval_engine.hh"
#include "obs/metrics.hh"
#include "search/checkpoint.hh"
#include "workload/net_graph.hh"
#include "workload/nets.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

TEST(NetGraph, AttentionGraphValidates)
{
    const NetGraph g = attentionGraph(64, 2);
    std::string err;
    EXPECT_TRUE(g.validate(&err)) << err;
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_EQ(g.topoOrder(), (std::vector<int>{0, 1, 2}));
}

TEST(NetGraph, Resnet18GraphValidates)
{
    const NetGraph g = resnet18Graph(4);
    std::string err;
    EXPECT_TRUE(g.validate(&err)) << err;
    // 17 chain convs + 3 downsample convs + 1 fc, one within-block
    // edge per basic block.
    EXPECT_EQ(g.numNodes(), 21);
    EXPECT_EQ(g.numEdges(), 8);
}

TEST(NetGraph, ValidationRejectsMalformedGraphs)
{
    const Workload gemm = makeGemm(16, 16, 16);
    std::string err;

    {
        NetGraph g; // edge endpoint out of range
        g.addNode(gemm);
        g.addEdge(0, "out", 3, "A");
        EXPECT_FALSE(g.validate(&err));
    }
    {
        NetGraph g; // producer tensor is an input, not an output
        g.addNode(gemm);
        g.addNode(gemm);
        g.addEdge(0, "a", 1, "b");
        EXPECT_FALSE(g.validate(&err));
        EXPECT_NE(err.find("not an output"), std::string::npos) << err;
    }
    {
        NetGraph g; // extent shrinks along the edge
        g.addNode(makeGemm(16, 16, 16));
        g.addNode(makeGemm(8, 8, 8));
        g.addEdge(0, "out", 1, "a");
        EXPECT_FALSE(g.validate(&err));
        EXPECT_NE(err.find("shrinks"), std::string::npos) << err;
    }
    {
        NetGraph g; // two producers for one consumer input
        g.addNode(gemm);
        g.addNode(gemm);
        g.addNode(gemm);
        g.addEdge(0, "out", 2, "a");
        g.addEdge(1, "out", 2, "a");
        EXPECT_FALSE(g.validate(&err));
        EXPECT_NE(err.find("two producers"), std::string::npos) << err;
    }
    {
        NetGraph g; // cycle
        g.addNode(gemm);
        g.addNode(gemm);
        g.addEdge(0, "out", 1, "a");
        g.addEdge(1, "out", 0, "a");
        EXPECT_FALSE(g.validate(&err));
        EXPECT_NE(err.find("cycle"), std::string::npos) << err;
    }
    {
        NetGraph g; // endpoint multiplicities disagree
        g.addNode(gemm, 2);
        g.addNode(gemm, 3);
        g.addEdge(0, "out", 1, "a");
        EXPECT_FALSE(g.validate(&err));
    }
}

TEST(NetGraph, LayerListAdapterRoundTrips)
{
    const std::vector<Layer> layers = tclSuite();
    const NetGraph g = NetGraph::fromLayers(layers);
    std::string err;
    EXPECT_TRUE(g.validate(&err)) << err;
    EXPECT_EQ(g.numEdges(), 0);
    const std::vector<Layer> back = g.toLayers();
    ASSERT_EQ(back.size(), layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(back[i].count, layers[i].count);
        EXPECT_EQ(back[i].workload.toString(),
                  layers[i].workload.toString());
        EXPECT_EQ(back[i].workload.shape(), layers[i].workload.shape());
    }
}

TEST(NetGraph, ResidencyClassificationMarksInternalTensorsOnly)
{
    const NetGraph g = attentionGraph(64, 1);
    // The whole chain: S and P are internal on both sides.
    auto eph = g.ephemeralTensors({0, 1, 2});
    EXPECT_EQ(eph[0], (std::vector<std::string>{"S"}));
    EXPECT_EQ(eph[1], (std::vector<std::string>{"S", "P"}));
    EXPECT_EQ(eph[2], (std::vector<std::string>{"P"}));
    // A prefix subgraph: P crosses the boundary and stays resident.
    eph = g.ephemeralTensors({0, 1});
    EXPECT_EQ(eph[0], (std::vector<std::string>{"S"}));
    EXPECT_EQ(eph[1], (std::vector<std::string>{"S"}));
}

TEST(NetGraph, MultiConsumerTensorStaysBoundaryOnProducerSide)
{
    const Workload gemm = makeGemm(16, 16, 16);
    NetGraph g;
    g.addNode(gemm);
    g.addNode(gemm);
    g.addNode(gemm);
    g.addEdge(0, "out", 1, "a");
    g.addEdge(0, "out", 2, "a");
    std::string err;
    ASSERT_TRUE(g.validate(&err)) << err;
    // Node 2 reads the tensor from outside the group, so the producer
    // must still drain it to DRAM; only the in-group consumer side may
    // skip its fill.
    const auto eph = g.ephemeralTensors({0, 1});
    EXPECT_TRUE(eph[0].empty());
    EXPECT_EQ(eph[1], (std::vector<std::string>{"a"}));
}

/** Moves every loop of `ba`'s workload to on-chip level `lvl`. */
Mapping
allAtLevel(const BoundArch &ba, int lvl)
{
    Mapping m(ba.numLevels(), ba.workload().numDims());
    for (DimId d = 0; d < ba.workload().numDims(); ++d)
        m.level(lvl).temporal[d] = ba.workload().dimSize(d);
    return m;
}

TEST(Residency, EphemeralDropsDramTrafficOnlyWhenCovered)
{
    const Workload wl = makeGemm(16, 16, 16);
    const ArchSpec arch = makeConventional();
    BoundArch boundary(arch, wl);
    BoundArch eph(arch, wl);
    const TensorId a = wl.tensorByName("a");
    eph.setResidency(a, Residency::Ephemeral);
    ASSERT_TRUE(eph.anyEphemeral());
    ASSERT_EQ(eph.residencyLevel(a), 1); // L2 on the conventional preset

    // Full coverage at L2: the ephemeral variant must be strictly
    // cheaper (A's DRAM fills dropped) with identical delay-side tile
    // structure elsewhere.
    const Mapping covered = allAtLevel(boundary, 1);
    std::string why;
    ASSERT_TRUE(covered.valid(boundary, &why)) << why;
    const CostResult cb = evaluateMapping(boundary, covered);
    const CostResult ce = evaluateMapping(eph, covered);
    ASSERT_TRUE(cb.valid && ce.valid);
    EXPECT_LT(ce.totalEnergyPj, cb.totalEnergyPj);

    // The naive mapping keeps loops in DRAM: no coverage, so the
    // ephemeral tensor is charged exactly like a boundary one (the
    // spill rule) — bit-identical cost.
    const Mapping naive = naiveMapping(boundary);
    const CostResult nb = evaluateMapping(boundary, naive);
    const CostResult ne = evaluateMapping(eph, naive);
    EXPECT_EQ(nb.totalEnergyPj, ne.totalEnergyPj);
    EXPECT_EQ(nb.cycles, ne.cycles);
}

TEST(Residency, OutputEphemeralDropsDrainWhenCovered)
{
    const Workload wl = makeGemm(16, 16, 16);
    const ArchSpec arch = makeConventional();
    BoundArch boundary(arch, wl);
    BoundArch eph(arch, wl);
    eph.setResidency(wl.tensorByName("out"), Residency::Ephemeral);
    const Mapping covered = allAtLevel(boundary, 1);
    const CostResult cb = evaluateMapping(boundary, covered);
    const CostResult ce = evaluateMapping(eph, covered);
    ASSERT_TRUE(cb.valid && ce.valid);
    EXPECT_LT(ce.totalEnergyPj, cb.totalEnergyPj);
}

/** Every scheduler run below evaluates on its own two-worker engine. */
constexpr unsigned kTwoWorkers = 2;

TEST(NetScheduler, FuseOffMatchesPerLayerSchedulerBitForBit)
{
    const ArchSpec arch = makeConventional();
    const NetGraph g = attentionGraph(64, 2);

    NetSchedulerOptions opts;
    opts.fusion = FusionMode::Off;
    StopPolicy pol;
    pol.maxEvals = 300;
    pol.plateau = 1'000'000'000;

    EvalEngine ea(kTwoWorkers);
    SearchContext sa(&ea);
    sa.setPolicy(pol);
    sa.setSeed(11);
    const NetScheduleResult ra = scheduleNet(sa, arch, g, opts);

    EvalEngine eb(kTwoWorkers);
    SearchContext sb(&eb);
    sb.setPolicy(pol);
    sb.setSeed(11);
    const NetScheduleResult rb =
        scheduleNet(sb, arch, NetGraph::fromLayers(g.toLayers()), opts);

    EXPECT_EQ(ra.totalEnergyPj, rb.totalEnergyPj);
    EXPECT_EQ(ra.totalDelaySeconds, rb.totalDelaySeconds);
    EXPECT_EQ(ra.totalEdp, rb.totalEdp);
    EXPECT_EQ(ra.allFound, rb.allFound);
    EXPECT_EQ(ra.stopReason, rb.stopReason);
    ASSERT_EQ(ra.layers.size(), rb.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i) {
        EXPECT_EQ(mappingToJson(ra.layers[i].mapping),
                  mappingToJson(rb.layers[i].mapping));
        EXPECT_EQ(ra.layers[i].cost.edp, rb.layers[i].cost.edp);
        EXPECT_EQ(ra.layers[i].candidatesExamined,
                  rb.layers[i].candidatesExamined);
        EXPECT_EQ(ra.layers[i].group, -1);
        EXPECT_FALSE(ra.layers[i].fused);
    }
    // Off mode emits no fusion fields at all.
    EXPECT_TRUE(ra.fusionMode.empty());
    EXPECT_EQ(ra.toJson().find("\"fusion\""), std::string::npos);
}

TEST(NetScheduler, GreedyFusionNeverRegressesAndFusesAttention)
{
    const ArchSpec arch = makeConventional();
    const NetGraph g = attentionGraph(64, 1);

    NetSchedulerOptions opts;
    StopPolicy pol;
    pol.maxEvals = 300;
    pol.plateau = 1'000'000'000;

    opts.fusion = FusionMode::Off;
    EvalEngine eoff(kTwoWorkers);
    SearchContext soff(&eoff);
    soff.setPolicy(pol);
    soff.setSeed(11);
    const NetScheduleResult off = scheduleNet(soff, arch, g, opts);

    opts.fusion = FusionMode::Greedy;
    EvalEngine eon(kTwoWorkers);
    SearchContext son(&eon);
    son.setPolicy(pol);
    son.setSeed(11);
    const NetScheduleResult fused = scheduleNet(son, arch, g, opts);

    ASSERT_TRUE(off.allFound);
    ASSERT_TRUE(fused.allFound);
    // The accept rule demands chain-wise dominance, so the fused net is
    // never worse; on attention the seq x seq intermediates fit on chip
    // and fusing them must win outright.
    EXPECT_LE(fused.totalEnergyPj, off.totalEnergyPj);
    EXPECT_LE(fused.totalDelaySeconds, off.totalDelaySeconds);
    EXPECT_LT(fused.totalEdp, off.totalEdp);
    EXPECT_EQ(fused.fusionMode, "greedy");
    EXPECT_EQ(fused.groupsFusable, 1);
    EXPECT_EQ(fused.groupsFused, 1);
    EXPECT_EQ(fused.opsFused, 3);
    for (const LayerSchedule &l : fused.layers) {
        EXPECT_TRUE(l.fused);
        EXPECT_EQ(l.group, 0);
    }
    ASSERT_EQ(fused.groups.size(), 1u);
    EXPECT_TRUE(fused.groups[0].fused);
    EXPECT_TRUE(fused.groups[0].rejectReason.empty());
    // The stats JSON carries the per-group entries.
    const std::string j = fused.toJson();
    EXPECT_NE(j.find("\"fusion\""), std::string::npos);
    EXPECT_NE(j.find("\"groupsFused\":1"), std::string::npos);
}

TEST(NetScheduler, IdenticalFusedChainsShareOneFusedSearch)
{
    // Two attention heads as differently named but structurally
    // identical chains: the fused subgraph is searched once, and the
    // second chain receives the first chain's fused mappings as dedup
    // broadcasts.
    NetGraph g;
    for (const std::string head : {"head0", "head1"}) {
        const int qk = g.addNode(
            parseEinsum(head + "_qk", "S[i,k] = Q[i,j] * K[k,j]",
                        {{"i", 64}, {"j", 64}, {"k", 64}}),
            1);
        const int sm = g.addNode(
            parseEinsum(head + "_softmax", "P[i,k] = S[i,k] * G[i]",
                        {{"i", 64}, {"k", 64}}),
            1);
        const int pv = g.addNode(
            parseEinsum(head + "_pv", "O[i,l] = P[i,k] * V[k,l]",
                        {{"i", 64}, {"k", 64}, {"l", 64}}),
            1);
        g.addEdge(qk, "S", sm, "S");
        g.addEdge(sm, "P", pv, "P");
    }

    NetSchedulerOptions opts;
    opts.fusion = FusionMode::Greedy;
    EvalEngine engine(kTwoWorkers);
    SearchContext sc(&engine);
    sc.policy().maxEvals = 300;
    sc.policy().plateau = 1'000'000'000;
    sc.setSeed(11);
    obs::Counter &unitSearches =
        obs::metrics().counter("net.fusion.unit_searches");
    const std::int64_t unitsBefore = unitSearches.value();
    const NetScheduleResult r =
        scheduleNet(sc, makeConventional(), g, opts);

    EXPECT_EQ(unitSearches.value() - unitsBefore, 1);
    ASSERT_TRUE(r.allFound);
    EXPECT_EQ(r.layersUnique, 3);
    EXPECT_EQ(r.groupsFusable, 2);
    EXPECT_EQ(r.groupsFused, 2);
    ASSERT_EQ(r.layers.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i) {
        const LayerSchedule &first = r.layers[i];
        const LayerSchedule &second = r.layers[i + 3];
        EXPECT_TRUE(first.fused);
        EXPECT_FALSE(first.deduplicated);
        EXPECT_NE(first.stopReason, "dedup");
        EXPECT_EQ(first.group, 0);
        EXPECT_TRUE(second.fused);
        EXPECT_TRUE(second.deduplicated) << second.name;
        EXPECT_EQ(second.stopReason, "dedup") << second.name;
        EXPECT_EQ(second.group, 1);
        EXPECT_EQ(second.seconds, 0.0);
        EXPECT_EQ(second.candidatesExamined, 0);
        EXPECT_EQ(mappingToJson(second.mapping),
                  mappingToJson(first.mapping));
        EXPECT_EQ(second.cost.totalEnergyPj, first.cost.totalEnergyPj);
        EXPECT_EQ(second.cost.delaySeconds, first.cost.delaySeconds);
        EXPECT_EQ(second.cost.edp, first.cost.edp);
    }
}

TEST(NetScheduler, DedupLayersReportDedupStopReason)
{
    // Two structurally identical layers: the broadcast copy must say
    // "dedup", not an empty stop reason.
    const ArchSpec arch = makeToyArch(64, 4);
    std::vector<Layer> layers{{makeGemm(16, 16, 16), 1},
                              {makeGemm(16, 16, 16), 1}};
    NetSchedulerOptions opts;
    EvalEngine engine(kTwoWorkers);
    SearchContext sc(&engine);
    sc.policy().maxEvals = 200;
    sc.setSeed(3);
    const NetScheduleResult r =
        scheduleNet(sc, arch, NetGraph::fromLayers(layers), opts);
    ASSERT_EQ(r.layers.size(), 2u);
    EXPECT_FALSE(r.layers[0].deduplicated);
    EXPECT_TRUE(r.layers[1].deduplicated);
    EXPECT_EQ(r.layers[1].stopReason, "dedup");
    EXPECT_NE(r.toJson().find("\"stopReason\":\"dedup\""),
              std::string::npos);
}

} // namespace
} // namespace sunstone
