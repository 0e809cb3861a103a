#include "awake.hh"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sunstone {
namespace bench {

namespace {

/** Tells the core this is a spin loop, so it leaves more of its
 *  resources to whatever shares it. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // anonymous namespace

KeepAwake::KeepAwake()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        spinners_.emplace_back([this, cpu] {
            sched_param idle{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            while (!stop_.load(std::memory_order_relaxed))
                cpuRelax();
        });
    }
}

KeepAwake::~KeepAwake()
{
    stop_ = true;
    for (std::thread &t : spinners_)
        t.join();
}

double
KeepAwake::cpuSeconds()
{
    double total = 0;
    for (std::thread &t : spinners_) {
        clockid_t clock;
        timespec ts{};
        if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
            clock_gettime(clock, &ts) == 0)
            total += ts.tv_sec + 1e-9 * ts.tv_nsec;
    }
    return total;
}

} // namespace bench
} // namespace sunstone
