/**
 * @file
 * Keeps the host from parking the benchmark's idle CPUs.
 *
 * On a virtual machine an idle vCPU halts, and a thread woken on it waits
 * until the hypervisor runs that vCPU again: microseconds on a quiet host,
 * milliseconds on a busy one. Every request crosses threads (the client
 * hands it to the session's worker, searches hand batches to the
 * evaluation pool), so that wait changed search-ttq's and serve-repeat's
 * latencies by up to 2x from one minute to the next while their CPU time
 * stayed within 2%. One spinning thread per CPU, at SCHED_IDLE priority,
 * keeps every vCPU running; a program thread that wakes on that CPU
 * preempts it at once, so the program runs as on a host that never parks
 * its CPUs.
 */

#ifndef SUNSTONE_BENCHMARK_AWAKE_HH
#define SUNSTONE_BENCHMARK_AWAKE_HH

#include <atomic>
#include <thread>
#include <vector>

namespace sunstone {
namespace bench {

class KeepAwake
{
  public:
    /** Starts one spinner per CPU this process may run on. */
    KeepAwake();
    ~KeepAwake();

    KeepAwake(const KeepAwake &) = delete;
    KeepAwake &operator=(const KeepAwake &) = delete;

    /** CPU seconds the spinners have used so far. */
    double cpuSeconds();

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> spinners_;
};

} // namespace bench
} // namespace sunstone

#endif // SUNSTONE_BENCHMARK_AWAKE_HH
