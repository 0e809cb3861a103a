#include "common/math_utils.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/logging.hh"

namespace sunstone {

std::vector<std::int64_t>
divisors(std::int64_t n)
{
    SUNSTONE_ASSERT(n >= 1, "divisors() needs n >= 1, got ", n);
    std::vector<std::int64_t> low, high;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            low.push_back(d);
            if (d != n / d)
                high.push_back(n / d);
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

namespace {

/**
 * Interning table behind cachedDivisors() / cachedPrimeFactors().
 * Entries are unique_ptrs so a returned reference survives rehashing,
 * and nothing is ever evicted, so references stay valid for the process
 * lifetime. A read acquires the shared lock only; the exclusive lock is
 * taken just to insert. Past kMaxEntries distinct keys (adversarial
 * value churn) new results are handed out from a per-thread ring whose
 * depth comfortably exceeds any nesting of factor loops in the codebase
 * (bounded by the dimension count).
 */
template <typename V>
struct InternTable
{
    static constexpr std::size_t kMaxEntries = 1 << 16;

    std::shared_mutex mtx;
    std::unordered_map<std::int64_t, std::unique_ptr<const V>> map;

    template <typename Fn>
    const V &
    get(std::int64_t n, Fn &&compute)
    {
        {
            std::shared_lock<std::shared_mutex> lk(mtx);
            auto it = map.find(n);
            if (it != map.end())
                return *it->second;
        }
        auto computed = std::make_unique<const V>(compute(n));
        {
            std::unique_lock<std::shared_mutex> lk(mtx);
            if (map.size() < kMaxEntries) {
                auto [it, inserted] = map.emplace(n, std::move(computed));
                return *it->second;
            }
        }
        thread_local std::array<V, 64> overflow;
        thread_local std::size_t next = 0;
        auto &slot = overflow[next];
        next = (next + 1) % overflow.size();
        slot = *computed;
        return slot;
    }
};

InternTable<std::vector<std::int64_t>> &
divisorCache()
{
    static InternTable<std::vector<std::int64_t>> cache;
    return cache;
}

InternTable<std::vector<std::pair<std::int64_t, int>>> &
primeFactorCache()
{
    static InternTable<std::vector<std::pair<std::int64_t, int>>> cache;
    return cache;
}

} // anonymous namespace

const std::vector<std::int64_t> &
cachedDivisors(std::int64_t n)
{
    return divisorCache().get(n,
                              [](std::int64_t v) { return divisors(v); });
}

const std::vector<std::pair<std::int64_t, int>> &
cachedPrimeFactors(std::int64_t n)
{
    return primeFactorCache().get(
        n, [](std::int64_t v) { return primeFactors(v); });
}

std::vector<std::pair<std::int64_t, int>>
primeFactors(std::int64_t n)
{
    SUNSTONE_ASSERT(n >= 1, "primeFactors() needs n >= 1, got ", n);
    std::vector<std::pair<std::int64_t, int>> out;
    for (std::int64_t p = 2; p * p <= n; ++p) {
        if (n % p == 0) {
            int e = 0;
            while (n % p == 0) {
                n /= p;
                ++e;
            }
            out.emplace_back(p, e);
        }
    }
    if (n > 1)
        out.emplace_back(n, 1);
    return out;
}

namespace {

void
splitRec(std::int64_t rem, int k, std::vector<std::int64_t> &cur,
         std::vector<std::vector<std::int64_t>> &out)
{
    if (k == 1) {
        cur.push_back(rem);
        out.push_back(cur);
        cur.pop_back();
        return;
    }
    for (std::int64_t d : divisors(rem)) {
        cur.push_back(d);
        splitRec(rem / d, k - 1, cur, out);
        cur.pop_back();
    }
}

} // anonymous namespace

std::vector<std::vector<std::int64_t>>
factorSplits(std::int64_t n, int k)
{
    SUNSTONE_ASSERT(k >= 1, "factorSplits() needs k >= 1, got ", k);
    std::vector<std::vector<std::int64_t>> out;
    std::vector<std::int64_t> cur;
    splitRec(n, k, cur, out);
    return out;
}

std::int64_t
countFactorSplits(std::int64_t n, int k)
{
    // The number of ordered k-splits is multiplicative over prime powers:
    // distributing exponent e over k slots gives C(e + k - 1, k - 1).
    std::int64_t total = 1;
    for (auto [p, e] : primeFactors(n)) {
        (void)p;
        // Compute C(e + k - 1, k - 1) iteratively.
        std::int64_t c = 1;
        for (int i = 1; i <= e; ++i)
            c = c * (k - 1 + i) / i;
        total = satMul(total, c);
    }
    return total;
}

std::int64_t
smallestDivisorAtLeast(std::int64_t n, std::int64_t lo)
{
    for (std::int64_t d : cachedDivisors(n))
        if (d >= lo)
            return d;
    return n;
}

std::int64_t
largestDivisorAtMost(std::int64_t n, std::int64_t hi)
{
    std::int64_t best = 1;
    for (std::int64_t d : cachedDivisors(n)) {
        if (d <= hi)
            best = d;
        else
            break;
    }
    return best;
}

std::int64_t
nextDivisor(std::int64_t n, std::int64_t d)
{
    const auto &divs = cachedDivisors(n);
    auto it = std::upper_bound(divs.begin(), divs.end(), d);
    return it == divs.end() ? 0 : *it;
}

} // namespace sunstone
