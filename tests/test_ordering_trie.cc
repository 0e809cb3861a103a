/** @file Tests for the loop-ordering trie (Section IV-A). */

#include <gtest/gtest.h>

#include "core/ordering_trie.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

const OrderingCandidate *
findReusing(const std::vector<OrderingCandidate> &cands, const Workload &wl,
            const std::string &tensor)
{
    const TensorId t = wl.tensorByName(tensor);
    for (const auto &c : cands)
        if (!c.fullReuse[t].empty())
            return &c;
    return nullptr;
}

TEST(OrderingTrie, OneDConvSurvivors)
{
    // The Fig. 4 example: survivors must cover ofmap reuse via {r, c}
    // (with partial ifmap reuse via r), ifmap reuse via {k}, and weight
    // reuse via {p}.
    Workload wl = makeConv1D(4, 4, 7, 3);
    OrderingTrieStats stats;
    auto cands = orderingCandidates(wl, DimSet::all(4), &stats);
    EXPECT_GE(stats.nodesVisited, stats.leaves);
    EXPECT_EQ(stats.survivors, (std::int64_t)cands.size());

    const DimId k = wl.dimByName("k"), c = wl.dimByName("c"),
                p = wl.dimByName("p"), r = wl.dimByName("r");

    const auto *of = findReusing(cands, wl, "ofmap");
    ASSERT_NE(of, nullptr);
    EXPECT_TRUE(of->fullReuse[wl.tensorByName("ofmap")].contains(c));
    EXPECT_TRUE(of->fullReuse[wl.tensorByName("ofmap")].contains(r));

    const auto *in = findReusing(cands, wl, "ifmap");
    ASSERT_NE(in, nullptr);
    EXPECT_TRUE(in->fullReuse[wl.tensorByName("ifmap")].contains(k));

    const auto *w = findReusing(cands, wl, "weight");
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->fullReuse[wl.tensorByName("weight")].contains(p));
}

TEST(OrderingTrie, DominancePrunesPlainCOrdering)
{
    // Fig. 4's step 5: xxxC (ofmap via c only) is dominated by xxCR
    // (ofmap via {r, c} plus partial ifmap via r) and must not survive.
    Workload wl = makeConv1D(4, 4, 7, 3);
    auto cands = orderingCandidates(wl, DimSet::all(4));
    const TensorId of = wl.tensorByName("ofmap");
    const DimId c = wl.dimByName("c");
    for (const auto &cand : cands) {
        if (cand.fullReuse[of] == DimSet::of(c)) {
            FAIL() << "xxxC survived: " << cand.toString(wl);
        }
    }
}

TEST(OrderingTrie, SuffixLoopsActuallyReuse)
{
    // Invariant: every dim credited with full reuse of tensor T is
    // non-indexing for T, and no dim below it in the suffix indexes T.
    Workload wl = makeConv2D([] {
        ConvShape sh;
        sh.n = 2;
        sh.k = 4;
        sh.c = 4;
        sh.p = 4;
        sh.q = 4;
        sh.r = 3;
        sh.s = 3;
        return sh;
    }());
    auto cands = orderingCandidates(wl, DimSet::all(wl.numDims()));
    for (const auto &cand : cands) {
        for (TensorId t = 0; t < wl.numTensors(); ++t) {
            for (DimId d : cand.fullReuse[t]) {
                EXPECT_TRUE(wl.reuse(t).fullyReusedBy.contains(d));
                // Everything inside d in the suffix must be non-indexing.
                for (DimId inner : cand.suffix) {
                    if (inner == d)
                        break;
                    EXPECT_FALSE(wl.reuse(t).indexing.contains(inner))
                        << cand.toString(wl);
                }
            }
        }
    }
}

TEST(OrderingTrie, FullOrderIsPermutation)
{
    Workload wl = makeMTTKRP(8, 8, 8, 4);
    auto cands = orderingCandidates(wl, DimSet::all(4));
    for (const auto &cand : cands) {
        std::vector<DimId> order;
        loopOrderForSuffix(cand.suffix, 4, order);
        ASSERT_EQ(order.size(), 4u);
        std::vector<bool> seen(4, false);
        for (DimId d : order) {
            EXPECT_FALSE(seen[d]);
            seen[d] = true;
        }
        // Suffix dims must be innermost, in order.
        for (std::size_t i = 0; i < cand.suffix.size(); ++i)
            EXPECT_EQ(order[order.size() - 1 - i], cand.suffix[i]);
    }
}

TEST(OrderingTrie, MttkrpCoversEveryTensor)
{
    // Versatility: for MTTKRP each of the four tensors is reusable by
    // some surviving ordering.
    Workload wl = makeMTTKRP(8, 8, 8, 4);
    auto cands = orderingCandidates(wl, DimSet::all(4));
    for (TensorId t = 0; t < wl.numTensors(); ++t) {
        bool covered = false;
        for (const auto &cand : cands)
            covered |= !cand.fullReuse[t].empty();
        EXPECT_TRUE(covered) << wl.tensor(t).name;
    }
}

TEST(OrderingTrie, InactiveDimsAreExcluded)
{
    Workload wl = makeConv1D(4, 4, 7, 3);
    const DimId c = wl.dimByName("c"), r = wl.dimByName("r");
    DimSet active = DimSet::all(4);
    active.remove(c);
    active.remove(r);
    auto cands = orderingCandidates(wl, active);
    for (const auto &cand : cands)
        for (DimId d : cand.suffix) {
            EXPECT_NE(d, c);
            EXPECT_NE(d, r);
        }
}

TEST(OrderingTrie, DegenerateWorkloadFallsBackToEmptySuffix)
{
    // Elementwise product: every dim indexes every tensor, no reuse.
    Workload wl = parseEinsum("ew", "o[i,j] = a[i,j] * b[i,j]",
                              {{"i", 4}, {"j", 4}});
    auto cands = orderingCandidates(wl, DimSet::all(2));
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_TRUE(cands[0].suffix.empty());
}

TEST(OrderingTrie, CandidateCountIsSmall)
{
    // The whole point: a handful of orderings instead of 7! = 5040.
    ConvShape sh;
    sh.n = 16;
    sh.k = 96;
    sh.c = 96;
    sh.p = 35;
    sh.q = 35;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    auto cands = orderingCandidates(wl, DimSet::all(7));
    EXPECT_LE(cands.size(), 24u);
    EXPECT_GE(cands.size(), 3u);
}

} // namespace
} // namespace sunstone
