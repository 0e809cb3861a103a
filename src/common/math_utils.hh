/**
 * @file
 * Small integer-math helpers used throughout the scheduler: divisor
 * enumeration, factor splits across hierarchy levels, and safe arithmetic
 * on access counts.
 */

#ifndef SUNSTONE_COMMON_MATH_UTILS_HH
#define SUNSTONE_COMMON_MATH_UTILS_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"

namespace sunstone {

/** Ceiling division for non-negative integers. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** @return floor(log2(n)) for n >= 1 (0 for 1, 62 for 2^62, 62 for
 *  INT64_MAX), defined over the whole positive int64 range. */
constexpr int
floorLog2(std::int64_t n)
{
    return std::bit_width(static_cast<std::uint64_t>(n)) - 1;
}

/** @return all positive divisors of n in ascending order. */
std::vector<std::int64_t> divisors(std::int64_t n);

/**
 * Memoized divisor table: like divisors(), but the result is interned in
 * a process-wide thread-safe cache, so hot enumeration loops (tiling
 * trees, mapper factor sweeps) stop refactorizing the same dimension
 * sizes. The returned reference stays valid for the process lifetime.
 * The table is bounded: past ~64k distinct values new queries fall back
 * to a small per-thread ring of scratch entries (still reference-stable
 * across the nesting depths that occur in practice).
 */
const std::vector<std::int64_t> &cachedDivisors(std::int64_t n);

/**
 * @return the prime factorization of n as (prime, exponent) pairs in
 *         ascending prime order.
 */
std::vector<std::pair<std::int64_t, int>> primeFactors(std::int64_t n);

/** Memoized primeFactors() with the same interning/bounding rules as
 *  cachedDivisors(). */
const std::vector<std::pair<std::int64_t, int>> &
cachedPrimeFactors(std::int64_t n);

/**
 * Enumerates every ordered way of writing n as a product of k positive
 * factors (each factor a divisor of n). The count grows quickly; intended
 * for small k (hierarchy depth) and modest n (problem dimensions).
 *
 * @param n value to split
 * @param k number of factors
 * @return list of k-element factor vectors whose product is n
 */
std::vector<std::vector<std::int64_t>> factorSplits(std::int64_t n, int k);

/** @return the number of ordered k-factor splits of n (no enumeration). */
std::int64_t countFactorSplits(std::int64_t n, int k);

/** @return the smallest divisor of n that is >= lo (n if none smaller). */
std::int64_t smallestDivisorAtLeast(std::int64_t n, std::int64_t lo);

/** @return the largest divisor of n that is <= hi (1 if none). */
std::int64_t largestDivisorAtMost(std::int64_t n, std::int64_t hi);

/**
 * @return the next divisor of n strictly greater than d, or 0 when d is
 *         already the largest divisor (i.e., n itself).
 */
std::int64_t nextDivisor(std::int64_t n, std::int64_t d);

/**
 * Saturating multiply guarding against int64 overflow. Inline and
 * branch-cheap (hardware overflow flag, no division) because the cost
 * model folds access counts through it millions of times per search.
 */
inline std::int64_t
satMul(std::int64_t a, std::int64_t b)
{
    SUNSTONE_ASSERT(a >= 0 && b >= 0, "satMul() expects non-negative args");
#if defined(__GNUC__) || defined(__clang__)
    std::int64_t r;
    if (__builtin_mul_overflow(a, b, &r))
        return std::numeric_limits<std::int64_t>::max();
    return r;
#else
    if (a == 0 || b == 0)
        return 0;
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    if (a > max / b)
        return max;
    return a * b;
#endif
}

} // namespace sunstone

#endif // SUNSTONE_COMMON_MATH_UTILS_HH
