/** @file
 * Equivalence suite for the allocation-free fast paths added around the
 * cost model: the engine's batched entry point and evaluateMappingInto()
 * must produce results bit-identical to the plain evaluateMapping() —
 * every per-(level, tensor) access counter and every floating-point
 * output (energies, cycles, latency, EDP, utilization).
 *
 * Trials draw from the diffcheck generators, so the population includes
 * strided convolutions, multicast on/off, partitioned buffers, and
 * mid-level bypass architectures.
 *
 * The engine's energy-only score must equal the full evaluation's
 * totalEnergyPj bit for bit, and count the same mappings invalid.
 *
 * Also pinned here: detail::checkValid() returns the same verdict and
 * the same failure string as Mapping::valid(), and an EvalScratch
 * re-derives its cached invariants when the bound architecture changes
 * identity (same-shape bypass variants) while staying correct across
 * residency mutations of one binding (which share a uid).
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "model/cost_model.hh"
#include "model/diffcheck.hh"
#include "model/eval_engine.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

/** Exact (bitwise for doubles) equality of two evaluation results. */
void
expectIdentical(const CostResult &a, const CostResult &b,
                const std::string &what)
{
    ASSERT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.invalidReason, b.invalidReason) << what;
    ASSERT_EQ(a.access.size(), b.access.size()) << what;
    for (std::size_t l = 0; l < a.access.size(); ++l) {
        ASSERT_EQ(a.access[l].size(), b.access[l].size()) << what;
        for (std::size_t t = 0; t < a.access[l].size(); ++t) {
            const AccessCounts &x = a.access[l][t];
            const AccessCounts &y = b.access[l][t];
            EXPECT_EQ(x.reads, y.reads) << what << " l=" << l << " t=" << t;
            EXPECT_EQ(x.fills, y.fills) << what << " l=" << l << " t=" << t;
            EXPECT_EQ(x.updates, y.updates)
                << what << " l=" << l << " t=" << t;
            EXPECT_EQ(x.accumReads, y.accumReads)
                << what << " l=" << l << " t=" << t;
            EXPECT_EQ(x.drains, y.drains)
                << what << " l=" << l << " t=" << t;
        }
    }
    ASSERT_EQ(a.levelEnergyPj.size(), b.levelEnergyPj.size()) << what;
    for (std::size_t l = 0; l < a.levelEnergyPj.size(); ++l)
        EXPECT_EQ(a.levelEnergyPj[l], b.levelEnergyPj[l])
            << what << " level " << l;
    EXPECT_EQ(a.macEnergyPj, b.macEnergyPj) << what;
    EXPECT_EQ(a.nocEnergyPj, b.nocEnergyPj) << what;
    EXPECT_EQ(a.totalEnergyPj, b.totalEnergyPj) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.delaySeconds, b.delaySeconds) << what;
    EXPECT_EQ(a.edp, b.edp) << what;
    EXPECT_EQ(a.utilization, b.utilization) << what;
    EXPECT_EQ(a.bottleneck, b.bottleneck) << what;
}

/** Evaluate m against ba through every fast path and compare to the
 *  reference evaluateMapping(). */
void
checkAllPaths(const BoundArch &ba, const Mapping &m, std::uint64_t tag)
{
    const std::string what = "trial " + std::to_string(tag);
    const CostResult ref = evaluateMapping(ba, m);

    // Scratch-arena entry point.
    {
        CostResult out;
        evaluateMappingInto(ba, m, {}, threadEvalScratch(), out);
        expectIdentical(ref, out, what + " [into]");
    }
}

TEST(EvalEquivalence, RandomTriplesAllPathsAgree)
{
    constexpr int kTrials = 200;
    for (int i = 0; i < kTrials; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(4242 + i);
        const Workload wl = randomDiffcheckWorkload(rng);
        const ArchSpec arch = randomDiffcheckArch(wl, rng);
        const BoundArch ba(arch, wl);
        const Mapping m = randomDiffcheckMapping(ba, rng);
        checkAllPaths(ba, m, 4242 + i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Moves every factor of every dim onto level l, as a temporal or as a
 *  spatial factor; the factor products stay exact. */
void
collapseOnto(Mapping &m, const Workload &wl, int l, bool spatial)
{
    for (int j = 0; j < m.numLevels(); ++j)
        for (DimId d = 0; d < m.numDims(); ++d) {
            m.level(j).temporal[d] = 1;
            m.level(j).spatial[d] = 1;
        }
    for (DimId d = 0; d < m.numDims(); ++d)
        (spatial ? m.level(l).spatial : m.level(l).temporal)[d] =
            wl.dimSize(d);
}

TEST(EvalEquivalence, BatchMatchesSerial)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 32;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    const Workload wl = makeConv2D(sh);
    const ArchSpec arch = makeConventional();
    const BoundArch ba(arch, wl);

    // 200 mappings in one batch, on a 1- and a 4-thread engine. Three
    // of every five mappings are broken, each in a different way, so
    // invalid results and their reasons travel the batch path too.
    std::mt19937_64 rng = diffcheckTrialRng(7);
    std::vector<Mapping> ms;
    std::vector<std::string> broken(200);
    for (int i = 0; i < 200; ++i) {
        Mapping m = randomDiffcheckMapping(ba, rng);
        switch (i % 5) {
        case 2: // one dim's factors multiply to twice its size
            m.level(0).temporal[i % m.numDims()] *= 2;
            broken[i] = "factors of dim";
            break;
        case 3: // the whole nest on the 1024-PE grid below L2
            collapseOnto(m, wl, 1, /*spatial=*/true);
            broken[i] = "spatial product exceeds fanout";
            break;
        case 4: // every tensor whole in L1's 512 bytes
            collapseOnto(m, wl, 0, /*spatial=*/false);
            broken[i] = "tile does not fit";
            break;
        default:
            break;
        }
        ms.push_back(std::move(m));
    }

    std::vector<CostResult> ref;
    std::int64_t invalid = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
        ref.push_back(evaluateMapping(ba, ms[i]));
        invalid += !ref[i].valid;
        if (broken[i].empty())
            continue;
        EXPECT_FALSE(ref[i].valid) << "index " << i;
        EXPECT_EQ(ref[i].invalidReason.rfind(broken[i], 0), 0u)
            << "index " << i << ": " << ref[i].invalidReason;
    }
    EXPECT_LT(invalid, static_cast<std::int64_t>(ms.size()));

    for (unsigned threads : {1u, 4u}) {
        const std::string tag = std::to_string(threads) + " threads";
        EvalEngine engine(threads);
        const EvalEngine::Context ctx = engine.context(ba);
        std::vector<CostResult> batch;
        engine.evaluateBatch(ctx, ms, {}, batch);
        ASSERT_EQ(batch.size(), ms.size()) << tag;
        EXPECT_EQ(engine.stats().invalidMappings, invalid) << tag;
        for (std::size_t i = 0; i < ms.size(); ++i)
            expectIdentical(ref[i], batch[i],
                            tag + " batch index " + std::to_string(i));

        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(EvalEquivalence, StridedConvAndBypassCovered)
{
    // Deterministic spot checks of the two historically tricky shapes:
    // a strided sliding window and a bypassed mid-level buffer.
    const Workload strided = parseEinsum(
        "strided", "out[k,p] = w[k,c,r] * in[c,2*p+r]",
        {{"k", 4}, {"c", 4}, {"p", 6}, {"r", 3}});

    ArchSpec arch;
    arch.name = "bypass-arch";
    LevelSpec l1;
    l1.name = "L1";
    l1.fanout = 16;
    l1.multicast = true;
    l1.capacityBits = 1 << 20;
    LevelSpec glb;
    glb.name = "GLB";
    glb.fanout = 8;
    glb.capacityBits = 1 << 26;
    glb.bypass.push_back("in");
    LevelSpec dram;
    dram.name = "DRAM";
    dram.isDram = true;
    arch.levels = {l1, glb, dram};

    const BoundArch ba(arch, strided);
    std::mt19937_64 rng = diffcheckTrialRng(31337);
    for (int i = 0; i < 25; ++i) {
        const Mapping m = randomDiffcheckMapping(ba, rng);
        checkAllPaths(ba, m, 31337 + i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Which class of Mapping::valid() reason `why` is. */
std::string
reasonClass(const std::string &why)
{
    // "mesh" first: the mesh reason also says "spatial factors".
    for (const char *c : {"mesh", "factors of dim", "order", "fanout",
                          "tile"})
        if (why.find(c) != std::string::npos)
            return c;
    return why;
}

/** The evaluation fast path's validity check is a separate
 *  implementation from Mapping::valid(); both the verdict and the
 *  human-readable reason it reports must stay in lockstep. Broken
 *  mappings that should fail a later check keep every dim's factor
 *  product (factors move between levels), so the factor check, which
 *  runs first, does not hide the branch under test. */
TEST(EvalEquivalence, CheckValidMatchesMappingValid)
{
    EvalScratch scratch;
    std::map<std::string, int> reached;
    auto compare = [&](const BoundArch &ba, const Mapping &m,
                       const std::string &label) {
        std::string ref_why, got_why;
        const bool ref_ok = m.valid(ba, &ref_why);
        scratch.prepare(ba);
        const bool got_ok = detail::checkValid(ba, m, scratch, &got_why);
        EXPECT_EQ(ref_ok, got_ok) << label;
        EXPECT_EQ(ref_why, got_why) << label;
        if (!ref_ok)
            ++reached[reasonClass(ref_why)];
    };

    constexpr int kTrials = 120;
    for (int i = 0; i < kTrials; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(54000 + i);
        const Workload wl = randomDiffcheckWorkload(rng);
        const ArchSpec arch = randomDiffcheckArch(wl, rng);
        const BoundArch ba(arch, wl);
        Mapping m = randomDiffcheckMapping(ba, rng);

        // Mutate a share of the trials into each failure class; the
        // rest stay valid-by-construction.
        const int nd = m.numDims();
        const int nl = m.numLevels();
        switch (i % 6) {
        case 1: // factor product too large
            m.level(i % nl).temporal[i % nd] *= 3;
            break;
        case 2: // the whole problem unrolled under the GLB's fanout of 8
            collapseOnto(m, wl, 1, /*spatial=*/true);
            break;
        case 3: // order is not a permutation
            if (nd >= 2)
                m.level(i % nl).order[0] = m.level(i % nl).order[1];
            break;
        case 4: // order has the wrong arity
            m.level(i % nl).order.push_back(0);
            break;
        case 5: // the whole problem as L1's tile; it fits the fuzz
                // machine's 1 Mbit L1, so the overflow is the fixed
                // conventional case below
            collapseOnto(m, wl, 0, /*spatial=*/false);
            break;
        default:
            break;
        }
        compare(ba, m, "trial " + std::to_string(i));
    }

    // Every tensor whole in the conventional machine's 512-byte L1.
    ConvShape sh;
    sh.k = 32;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    const Workload conv = makeConv2D(sh);
    const BoundArch conventional(makeConventional(), conv);
    Mapping whole = naiveMapping(conventional);
    collapseOnto(whole, conv, 0, /*spatial=*/false);
    compare(conventional, whole, "conv tile");

    // Spatial factors 8 x 1 fit a fanout of 16 but no side of its 4x4
    // mesh (see tests/test_mesh.cc).
    const Workload gemm = makeGemm(8, 8, 8);
    ArchSpec meshed = makeToyArch(256, 16);
    meshed.levels[1].meshX = 4;
    meshed.levels[1].meshY = 4;
    const BoundArch toy(meshed, gemm);
    Mapping unpackable = naiveMapping(toy);
    const DimId md = gemm.dimByName("m");
    unpackable.level(2).temporal[md] = 1;
    unpackable.level(1).spatial[md] = 8;
    compare(toy, unpackable, "mesh");

    for (const char *c : {"factors of dim", "order", "fanout", "mesh", "tile"})
        EXPECT_GT(reached[c], 0) << c << " never reached";
}

/** EvalEngine::scoreEnergy() builds no CostResult, yet returns exactly
 *  evaluateMapping(...).totalEnergyPj: on valid and invalid mappings,
 *  boundary and Ephemeral residency, and each combination of modelNoc
 *  and assumeValid. Invalid mappings are counted in the tally once per
 *  score. */
TEST(EvalEquivalence, ScoreEnergyMatchesEvaluate)
{
    EvalEngine engine(1);
    std::int64_t want_invalid = 0, scores = 0;
    EvalEngine::ScoreTally tally;
    auto compare = [&](const BoundArch &ba, const Mapping &m,
                       const std::string &label) {
        const EvalEngine::Context ctx = engine.context(ba);
        for (const bool noc : {true, false})
            for (const bool assume : {false, true}) {
                CostModelOptions opts;
                opts.modelNoc = noc;
                opts.assumeValid = assume;
                const CostResult ref = evaluateMapping(ba, m, opts);
                const double got = engine.scoreEnergy(ctx, m, opts, tally);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                          std::bit_cast<std::uint64_t>(ref.totalEnergyPj))
                    << label << " noc=" << noc << " assumeValid=" << assume;
                want_invalid += !ref.valid;
                ++scores;
            }
    };

    constexpr int kTrials = 120;
    for (int i = 0; i < kTrials; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(57000 + i);
        const Workload wl = randomDiffcheckWorkload(rng);
        const ArchSpec arch = randomDiffcheckArch(wl, rng);
        BoundArch ba(arch, wl);
        Mapping m = randomDiffcheckMapping(ba, rng);
        switch (i % 5) {
        case 1: // factor product too large
            m.level(i % m.numLevels()).temporal[i % m.numDims()] *= 3;
            break;
        case 2: // the whole problem unrolled under the GLB's fanout of 8
            collapseOnto(m, wl, 1, /*spatial=*/true);
            break;
        case 3: // an Ephemeral output over the same random mapping
            ba.setResidency(wl.outputs()[0], Residency::Ephemeral);
            break;
        default:
            break;
        }
        compare(ba, m, "trial " + std::to_string(i));
    }

    ConvShape sh;
    sh.k = 32;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    const Workload conv = makeConv2D(sh);
    const BoundArch conventional(makeConventional(), conv);

    // Every tensor whole in the 512-byte L1: the tile overflows.
    Mapping whole = naiveMapping(conventional);
    collapseOnto(whole, conv, 0, /*spatial=*/false);
    compare(conventional, whole, "conv tile");

    // Every tensor whole in L2: an Ephemeral output is handed off on
    // chip, so its DRAM leg is dropped.
    BoundArch fused = conventional;
    fused.setResidency(conv.outputs()[0], Residency::Ephemeral);
    Mapping resident = naiveMapping(fused);
    collapseOnto(resident, conv, 1, /*spatial=*/false);
    ASSERT_TRUE(evaluateMapping(fused, resident).valid);
    ASSERT_LT(evaluateMapping(fused, resident).totalEnergyPj,
              evaluateMapping(conventional, resident).totalEnergyPj);
    compare(fused, resident, "ephemeral resident");

    EXPECT_EQ(tally.calls, scores);
    EXPECT_EQ(tally.invalid, want_invalid);
    EXPECT_GT(want_invalid, 0);
    EXPECT_LT(want_invalid, scores);
}

/** One EvalScratch alternating between two bindings with the same
 *  (levels, tensors, dims) shape but different bypass structure must
 *  re-derive its invariants on every switch (keyed on BoundArch::uid),
 *  never serving one binding's storage chains to the other. */
TEST(EvalEquivalence, ScratchRekeysAcrossSameShapeArchVariants)
{
    constexpr int kTrials = 40;
    EvalScratch shared;
    for (int i = 0; i < kTrials; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(55000 + i);
        const Workload wl = randomDiffcheckWorkload(rng);
        // Two independent three-level machines over the SAME workload:
        // identical (nl, nt, nd), typically different bypass/multicast.
        const ArchSpec arch_a = randomDiffcheckArch(wl, rng);
        const ArchSpec arch_b = randomDiffcheckArch(wl, rng);
        const BoundArch ba_a(arch_a, wl);
        const BoundArch ba_b(arch_b, wl);
        ASSERT_NE(ba_a.uid(), ba_b.uid());
        const Mapping m_a = randomDiffcheckMapping(ba_a, rng);
        const Mapping m_b = randomDiffcheckMapping(ba_b, rng);

        // Interleave the two bindings through the one shared scratch
        // (A, B, A, B: every evaluation switches bindings); every result
        // must match a fresh-state reference bitwise.
        const CostResult ref_a = evaluateMapping(ba_a, m_a);
        const CostResult ref_b = evaluateMapping(ba_b, m_b);
        for (int round = 0; round < 2; ++round) {
            const std::string what = "trial " + std::to_string(i) +
                                     " round " + std::to_string(round);
            CostResult out_a, out_b;
            evaluateMappingInto(ba_a, m_a, {}, shared, out_a);
            evaluateMappingInto(ba_b, m_b, {}, shared, out_b);
            expectIdentical(ref_a, out_a, what + " arch A");
            expectIdentical(ref_b, out_b, what + " arch B");
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Residency mutations share the binding's uid (copies are semantically
 *  identical for everything the scratch caches), so a scratch warmed on
 *  the boundary variant must still evaluate the ephemeral variant
 *  correctly — the residency-dependent terms are recomputed per call. */
TEST(EvalEquivalence, ScratchSurvivesResidencyMutation)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 7;
    sh.q = 7;
    sh.r = 3;
    sh.s = 3;
    const Workload wl = makeConv2D(sh);
    const ArchSpec arch = makeConventional();
    const BoundArch boundary(arch, wl);
    BoundArch ephemeral = boundary; // shares the uid
    ASSERT_EQ(boundary.uid(), ephemeral.uid());
    ASSERT_FALSE(wl.outputs().empty());
    ephemeral.setResidency(wl.outputs()[0], Residency::Ephemeral);

    std::mt19937_64 rng = diffcheckTrialRng(56001);
    EvalScratch shared;
    for (int i = 0; i < 8; ++i) {
        const Mapping m = randomDiffcheckMapping(boundary, rng);
        CostResult out_b, out_e;
        evaluateMappingInto(boundary, m, {}, shared, out_b);
        evaluateMappingInto(ephemeral, m, {}, shared, out_e);
        expectIdentical(evaluateMapping(boundary, m), out_b,
                        "boundary " + std::to_string(i));
        expectIdentical(evaluateMapping(ephemeral, m), out_e,
                        "ephemeral " + std::to_string(i));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // anonymous namespace
} // namespace sunstone
