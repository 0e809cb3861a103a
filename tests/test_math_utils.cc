/** @file Unit tests for common/math_utils. */

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/math_utils.hh"

namespace sunstone {
namespace {

TEST(Divisors, SmallValues)
{
    EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
    EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisors(17), (std::vector<std::int64_t>{1, 17}));
}

TEST(Divisors, SortedAndDividing)
{
    for (std::int64_t n : {36, 56, 100, 224, 1000, 480000}) {
        auto d = divisors(n);
        EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
        for (auto v : d)
            EXPECT_EQ(n % v, 0) << n << " % " << v;
        EXPECT_EQ(d.front(), 1);
        EXPECT_EQ(d.back(), n);
    }
}

TEST(PrimeFactors, Reconstructs)
{
    for (std::int64_t n : {2, 12, 97, 1024, 3 * 5 * 49, 480000}) {
        std::int64_t prod = 1;
        for (auto [p, e] : primeFactors(n))
            for (int i = 0; i < e; ++i)
                prod *= p;
        EXPECT_EQ(prod, n);
    }
}

TEST(PrimeFactors, One)
{
    EXPECT_TRUE(primeFactors(1).empty());
}

TEST(FactorSplits, EnumeratesAllOrderedSplits)
{
    auto splits = factorSplits(12, 2);
    // 12 has 6 divisors, each giving one ordered 2-split.
    EXPECT_EQ(splits.size(), 6u);
    for (const auto &s : splits) {
        ASSERT_EQ(s.size(), 2u);
        EXPECT_EQ(s[0] * s[1], 12);
    }
}

TEST(FactorSplits, SingleSlot)
{
    auto splits = factorSplits(36, 1);
    ASSERT_EQ(splits.size(), 1u);
    EXPECT_EQ(splits[0][0], 36);
}

class SplitCountProperty
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>>
{
};

TEST_P(SplitCountProperty, CountMatchesEnumeration)
{
    auto [n, k] = GetParam();
    EXPECT_EQ(countFactorSplits(n, k),
              static_cast<std::int64_t>(factorSplits(n, k).size()))
        << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitCountProperty,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 7, 12, 36, 56,
                                                       64, 90, 224),
                       ::testing::Values(1, 2, 3, 4)));

TEST(DivisorNavigation, SmallestAtLeast)
{
    EXPECT_EQ(smallestDivisorAtLeast(56, 5), 7);
    EXPECT_EQ(smallestDivisorAtLeast(56, 1), 1);
    EXPECT_EQ(smallestDivisorAtLeast(56, 57), 56);
}

TEST(DivisorNavigation, LargestAtMost)
{
    EXPECT_EQ(largestDivisorAtMost(56, 5), 4);
    EXPECT_EQ(largestDivisorAtMost(56, 56), 56);
    EXPECT_EQ(largestDivisorAtMost(17, 16), 1);
}

TEST(DivisorNavigation, NextDivisor)
{
    EXPECT_EQ(nextDivisor(12, 1), 2);
    EXPECT_EQ(nextDivisor(12, 4), 6);
    EXPECT_EQ(nextDivisor(12, 12), 0);
    EXPECT_EQ(nextDivisor(17, 1), 17);
}

TEST(SatMul, SaturatesInsteadOfOverflowing)
{
    const auto max = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(satMul(max, 2), max);
    EXPECT_EQ(satMul(1ll << 40, 1ll << 40), max);
    EXPECT_EQ(satMul(3, 4), 12);
    EXPECT_EQ(satMul(0, max), 0);
}

TEST(FloorLog2, ExactAtPowerOfTwoBoundaries)
{
    EXPECT_EQ(floorLog2(1), 0);
    for (int k = 1; k <= 62; ++k) {
        const std::int64_t p = std::int64_t(1) << k;
        EXPECT_EQ(floorLog2(p - 1), k - 1) << k;
        EXPECT_EQ(floorLog2(p), k) << k;
    }
    // A saturated spatial product: the old shift loop ran past bit 62.
    EXPECT_EQ(floorLog2(std::numeric_limits<std::int64_t>::max()), 62);
}

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

} // namespace
} // namespace sunstone
