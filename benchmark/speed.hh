/**
 * @file
 * The host's speed, followed while a run goes on.
 *
 * On a host shared with other tenants the same work takes 20-60% longer
 * in some minutes than in others, in CPU time as well as in wall time. A
 * fixed reference loop, timed between requests, slows down with it. The
 * driver scales each pass's times by the reference loop's nominal time
 * over its median time during that pass, so every time it reports is in
 * "reference seconds": seconds on a host where the loop takes exactly
 * kReferenceSeconds. A change to the repository's code does not change
 * the loop, so it still shows in full.
 *
 * The loop sorts random keys on one thread from L1: it follows the cores'
 * speed and the share of each core other tenants take, not contention for
 * memory. Of the loops tried (a dependent chain of loads, independent
 * multiply chains, a hash map, small allocations, a pointer chase over
 * 8 MiB, sorting), sorting followed the program's own slowdowns best.
 */

#ifndef SUNSTONE_BENCHMARK_SPEED_HH
#define SUNSTONE_BENCHMARK_SPEED_HH

#include <chrono>
#include <vector>

namespace sunstone {
namespace bench {

/** What one reference loop takes at the nominal speed. */
constexpr double kReferenceSeconds = 1e-3;

/**
 * What starting and joining a thread that does nothing takes at the
 * nominal speed. Session set-up is mostly starting the session's threads,
 * whose cost follows the hypervisor's scheduling latency rather than the
 * cores' speed, so set-up times are scaled by this instead of by the
 * reference loop.
 */
constexpr double kSpawnReferenceSeconds = 35e-6;

/** @return the seconds one start and join of an empty thread took */
double spawnSeconds();

class SpeedProbe
{
  public:
    SpeedProbe();

    /** Times the reference loop until the loop's timings add up to
     *  kShare of the time since construction. */
    void maybeSample();

    /** Times the reference loop once. */
    void sample();

    /**
     * @return kReferenceSeconds over the median loop time since the last
     *         call (1 when nothing was timed); starts a new window
     */
    double takeScale();

  private:
    /** The share of a run spent timing the loop: every pass gets tens of
     *  timings, however long its requests are. */
    static constexpr double kShare = 0.03;

    std::vector<double> samples_;
    std::chrono::steady_clock::time_point start_;
    double sampledSeconds_ = 0;
};

} // namespace bench
} // namespace sunstone

#endif // SUNSTONE_BENCHMARK_SPEED_HH
