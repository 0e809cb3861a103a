#include "speed.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>

namespace sunstone {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

/** 16 KiB of keys: the loop runs from L1 and measures the core, not the
 *  caches the program under test leaves behind. */
constexpr std::size_t kKeys = 4096;

/** About 1 ms on a 2020s x86 server core. */
constexpr int kSorts = 3;

/**
 * Sorts kSorts fresh lists of pseudo-random keys, the same lists every
 * time. Sorting random keys mispredicts many of its branches, as the
 * program's search code does, so the loop slows with whatever the other
 * tenants take from the core (a busy sibling hyperthread, pipeline and
 * predictor state), not just with the clock.
 */
std::uint64_t
referenceLoop(std::array<std::uint32_t, kKeys> &keys)
{
    std::uint64_t z = 1, h = 0;
    for (int s = 0; s < kSorts; ++s) {
        for (std::uint32_t &k : keys) {
            z = z * 6364136223846793005ULL + 1442695040888963407ULL;
            k = static_cast<std::uint32_t>(z >> 33);
        }
        std::sort(keys.begin(), keys.end());
        h = h * 31 + keys[kKeys / 2];
    }
    return h;
}

volatile std::uint64_t sink;

} // anonymous namespace

double
spawnSeconds()
{
    const auto t0 = Clock::now();
    std::thread([] {}).join();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpeedProbe::SpeedProbe() : start_(Clock::now()) {}

void
SpeedProbe::maybeSample()
{
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start_).count();
    while (sampledSeconds_ < kShare * elapsed)
        sample();
}

void
SpeedProbe::sample()
{
    static std::array<std::uint32_t, kKeys> keys;
    const auto t0 = Clock::now();
    sink = referenceLoop(keys);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    sampledSeconds_ += seconds;
    samples_.push_back(seconds);
}

double
SpeedProbe::takeScale()
{
    if (samples_.empty())
        return 1;
    const auto mid = samples_.begin() + samples_.size() / 2;
    std::nth_element(samples_.begin(), mid, samples_.end());
    const double median = *mid;
    samples_.clear();
    return kReferenceSeconds / median;
}

} // namespace bench
} // namespace sunstone
