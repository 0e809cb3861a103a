/**
 * @file
 * The benchmark's workloads: seeded request lines in the wire format
 * `sunstone serve` reads, one closed-loop client each.
 *
 * A workload is replayed in passes until the run's time is up. A pass is
 * a fixed list of lines, a pure function of (seed, pass index). Count
 * metrics, the answers digest and the EDP geomean cover the first pass,
 * which every run completes.
 */

#ifndef SUNSTONE_BENCHMARK_WORKLOADS_HH
#define SUNSTONE_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sunstone {
namespace bench {

/** One request line and what its answer must be. */
struct Line
{
    std::string text;
    /** The line is malformed and must be answered ok:false. */
    bool malformed = false;
};

/** How long one SchedulerSession serves. */
enum class SessionScope
{
    /** A fresh session per line: what one CLI process per request pays. */
    Line,
    /** One session per pass, so every pass sees the same cache states. */
    Pass,
    /** One session for the whole run: its caches keep growing. */
    Run,
};

struct WorkloadSpec
{
    std::string name;
    SessionScope scope;
    /** The lines of pass `pass` under `seed`. */
    std::vector<Line> (*makePass)(std::uint64_t seed, int pass);
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> &workloads();

/** @return the workload, or nullptr for an unknown name. */
const WorkloadSpec *findWorkload(const std::string &name);

} // namespace bench
} // namespace sunstone

#endif // SUNSTONE_BENCHMARK_WORKLOADS_HH
