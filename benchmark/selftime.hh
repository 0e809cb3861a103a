/**
 * @file
 * Self-time aggregation over recorded trace spans.
 *
 * Spans on one thread nest (they are RAII scopes), so a span's children
 * are the spans of the same thread that start inside it. A span's self
 * time is its duration minus the time its direct children cover; spans
 * on other threads never count as children, even when they overlap in
 * time. Totals are grouped by base name: the part after the first ':'
 * is dropped, so "net.search:conv1" and "net.search:conv2" both count
 * as "net.search".
 */

#ifndef SUNSTONE_BENCHMARK_SELFTIME_HH
#define SUNSTONE_BENCHMARK_SELFTIME_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace sunstone {
namespace bench {

/** Per-name totals, in nanoseconds. */
struct SpanTotals
{
    std::int64_t count = 0;
    /** Sum of span durations (nested same-name spans counted again). */
    std::int64_t totalNs = 0;
    /** Sum of durations minus the time covered by direct children. */
    std::int64_t selfNs = 0;
    /** Sum of durations of spans with no same-name ancestor: the wall
     *  time the name covers on its threads, counted once. */
    std::int64_t outerNs = 0;
};

/** "net.search:conv1" -> "net.search". */
std::string baseSpanName(const std::string &name);

/** Adds the totals of `spans` (any order, any threads) into `out`. */
void aggregateSelfTime(const std::vector<obs::SpanRecord> &spans,
                       std::map<std::string, SpanTotals> &out);

} // namespace bench
} // namespace sunstone

#endif // SUNSTONE_BENCHMARK_SELFTIME_HH
