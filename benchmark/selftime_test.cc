#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "selftime.hh"

using sunstone::bench::aggregateSelfTime;
using sunstone::bench::baseSpanName;
using sunstone::bench::SpanTotals;
using sunstone::obs::SpanRecord;

namespace {

SpanRecord
span(const char *name, int thread, std::int64_t start, std::int64_t end)
{
    return SpanRecord{name, thread, start, end - start};
}

/**
 * Thread 0: outer [0,100] holds mid [10,40] (which holds leaf [20,30])
 * and a sibling net.search:b [50,60]; thread 1: net.search:a [5,50]
 * holds leaf [10,20] and overlaps thread 0 in time; thread 2: a
 * pool.task nested in a pool.task, as a helping wait records them.
 */
std::vector<SpanRecord>
fixture()
{
    return {
        span("outer", 0, 0, 100),         span("mid", 0, 10, 40),
        span("leaf", 0, 20, 30),          span("net.search:b", 0, 50, 60),
        span("net.search:a", 1, 5, 50),   span("leaf", 1, 10, 20),
        span("pool.task", 2, 0, 80),      span("pool.task", 2, 10, 30),
        span("leaf", 2, 40, 45),
    };
}

} // anonymous namespace

TEST(SelfTime, BaseNameDropsSuffix)
{
    EXPECT_EQ(baseSpanName("net.search:conv1"), "net.search");
    EXPECT_EQ(baseSpanName("net.search.fused:a:b"), "net.search.fused");
    EXPECT_EQ(baseSpanName("pool.task"), "pool.task");
}

TEST(SelfTime, NestedSiblingAndCrossThreadSpans)
{
    std::map<std::string, SpanTotals> t;
    aggregateSelfTime(fixture(), t);

    EXPECT_EQ(t["outer"].selfNs, 100 - 30 - 10);
    EXPECT_EQ(t["mid"].selfNs, 30 - 10);
    // Three leaves (threads 0, 1, 2), no children.
    EXPECT_EQ(t["leaf"].count, 3);
    EXPECT_EQ(t["leaf"].selfNs, 10 + 10 + 5);
    // Both suffixed names aggregate; thread 0's outer span is no parent
    // of thread 1's span even though it covers it in time.
    EXPECT_EQ(t["net.search"].count, 2);
    EXPECT_EQ(t["net.search"].totalNs, 10 + 45);
    EXPECT_EQ(t["net.search"].selfNs, 10 + 45 - 10);
    // Nested same-name spans: self splits the time, outer counts it once.
    EXPECT_EQ(t["pool.task"].totalNs, 80 + 20);
    EXPECT_EQ(t["pool.task"].selfNs, 80 - 20 - 5 + 20);
    EXPECT_EQ(t["pool.task"].outerNs, 80);
}

TEST(SelfTime, InputOrderDoesNotMatter)
{
    std::map<std::string, SpanTotals> ref;
    aggregateSelfTime(fixture(), ref);
    std::vector<SpanRecord> shuffled = fixture();
    std::mt19937 rng(7);
    for (int round = 0; round < 20; ++round) {
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        std::map<std::string, SpanTotals> t;
        aggregateSelfTime(shuffled, t);
        ASSERT_EQ(t.size(), ref.size());
        for (const auto &[name, r] : ref) {
            EXPECT_EQ(t[name].selfNs, r.selfNs) << name;
            EXPECT_EQ(t[name].outerNs, r.outerNs) << name;
        }
    }
}

TEST(SelfTime, SameStartChildAndAccumulation)
{
    // A child starting on its parent's first nanosecond is still a child,
    // and repeated calls accumulate into the same totals.
    const std::vector<SpanRecord> spans = {span("child", 0, 0, 4),
                                           span("parent", 0, 0, 10)};
    std::map<std::string, SpanTotals> t;
    aggregateSelfTime(spans, t);
    aggregateSelfTime(spans, t);
    EXPECT_EQ(t["parent"].selfNs, 2 * 6);
    EXPECT_EQ(t["child"].selfNs, 2 * 4);
    EXPECT_EQ(t["parent"].count, 2);
}
