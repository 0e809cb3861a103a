/**
 * @file
 * Process-wide metrics: counters, gauges, and fixed-bucket histograms.
 *
 * The primitives are plain atomic types usable standalone (EvalEngine
 * embeds them for its per-engine telemetry) or owned by the process-wide
 * MetricsRegistry, which hands out stable references by name and renders
 * everything as one JSON document for --metrics-json.
 *
 * Naming convention (DESIGN.md §9): lowercase dotted paths grouped by
 * subsystem — "pool.tasks", "net.dedup_broadcasts",
 * "diannao.instructions". Histogram buckets are fixed at construction;
 * recording is an atomic increment per bucket plus an atomic add to the
 * sum, so concurrent bucket counts are exact.
 */

#ifndef SUNSTONE_OBS_METRICS_HH
#define SUNSTONE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sunstone {
namespace obs {

/** Monotonic counter. */
class Counter
{
  public:
    void
    add(std::int64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** Last-write-wins gauge. */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Consistent histogram snapshot. */
struct HistogramSnapshot
{
    /** Upper bounds of the finite buckets; a +inf bucket is implicit. */
    std::vector<double> bounds;
    /** Per-bucket counts; size bounds.size() + 1. */
    std::vector<std::int64_t> counts;
    std::int64_t count = 0;
    double sum = 0;

    /**
     * The p-th percentile (p in [0, 100]) interpolated linearly within
     * the owning bucket, treating each bucket's mass as uniformly
     * spread between its bounds (the first bucket spans [0, bounds[0]]).
     * Ranks landing in the +inf bucket clamp to the last finite bound —
     * the histogram cannot resolve beyond it. NaN when the histogram is
     * empty or has no finite buckets.
     */
    double percentile(double p) const;

    /**
     * Renders {"bounds": [...], "counts": [...], "count": n, "sum": x,
     * "p50": ..., "p90": ..., "p99": ...}; the percentile summaries are
     * null for empty histograms so consumers stop re-deriving them from
     * the buckets.
     */
    std::string toJson() const;
};

/** Default bucket bounds for microsecond latencies (1 µs .. 10 ms). */
std::vector<double> defaultLatencyBucketsUs();

/**
 * Fixed-bucket histogram. A value lands in the first bucket whose upper
 * bound is >= value; values above every bound land in the +inf bucket.
 */
class Histogram
{
  public:
    /** @param bounds ascending finite upper bounds (may be empty). */
    explicit Histogram(std::vector<double> bounds =
                           defaultLatencyBucketsUs());

    /**
     * Records `n` observations of `value`: `n` lands in the value's
     * bucket and `value * n` in the sum (a batch timed as one interval
     * records its per-item mean with the item count as weight).
     */
    void record(double value, std::int64_t n = 1);

    HistogramSnapshot snapshot() const;

    std::int64_t count() const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
    std::atomic<double> sum_{0.0};
};

/**
 * Process-wide registry. Lookups take a mutex; callers on hot paths
 * should cache the returned reference (it is stable for the process
 * lifetime). Requesting an existing name with a mismatched kind panics
 * via std::terminate — names are namespaced per kind to avoid that.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** `bounds` applies only when the histogram does not exist yet. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    /** Renders every registered metric as one JSON object. */
    std::string toJson() const;

    /** Zeroes every metric (for tests); registrations are kept. */
    void reset();

  private:
    struct Metric
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable std::mutex mtx_;
    std::map<std::string, Metric> metrics_;
};

/** @return the process-wide registry. */
MetricsRegistry &metrics();

} // namespace obs
} // namespace sunstone

#endif // SUNSTONE_OBS_METRICS_HH
