#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace sunstone {
namespace obs {

namespace {

void
appendJsonDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // inf/nan are not valid JSON
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // anonymous namespace

double
HistogramSnapshot::percentile(double p) const
{
    if (count <= 0 || bounds.empty())
        return std::numeric_limits<double>::quiet_NaN();
    p = std::min(100.0, std::max(0.0, p));
    // Rank of the requested percentile within the total mass, then the
    // bucket that holds it.
    const double rank = p / 100.0 * static_cast<double>(count);
    std::int64_t below = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double hi = static_cast<double>(below + counts[i]);
        if (rank <= hi || i + 1 == counts.size()) {
            if (i >= bounds.size())
                return bounds.back(); // +inf bucket: clamp
            const double lo_bound = i == 0 ? 0.0 : bounds[i - 1];
            const double hi_bound = bounds[i];
            const double frac =
                std::min(1.0, std::max(0.0, (rank - below) /
                                                static_cast<double>(
                                                    counts[i])));
            return lo_bound + frac * (hi_bound - lo_bound);
        }
        below += counts[i];
    }
    return bounds.back();
}

std::string
HistogramSnapshot::toJson() const
{
    std::string j = "{\"bounds\":[";
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (i)
            j += ",";
        appendJsonDouble(j, bounds[i]);
    }
    j += "],\"counts\":[";
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i)
            j += ",";
        j += std::to_string(counts[i]);
    }
    j += "],\"count\":" + std::to_string(count);
    j += ",\"sum\":";
    appendJsonDouble(j, sum);
    for (const auto &[label, p] :
         {std::pair<const char *, double>{"p50", 50.0},
          {"p90", 90.0},
          {"p99", 99.0}}) {
        j += ",\"";
        j += label;
        j += "\":";
        appendJsonDouble(j, percentile(p)); // NaN renders as null
    }
    j += "}";
    return j;
}

std::vector<double>
defaultLatencyBucketsUs()
{
    return {1,   2,   5,    10,   20,   50,  100,
            200, 500, 1000, 2000, 5000, 10000};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::int64_t>[bounds_.size() + 1])
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::record(double value, std::int64_t n)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t idx =
        static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(value * static_cast<double>(n),
                   std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.bounds = bounds_;
    s.counts.resize(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        s.counts[i] = counts_[i].load(std::memory_order_relaxed);
        s.count += s.counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
}

std::int64_t
Histogram::count() const
{
    std::int64_t n = 0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        n += counts_[i].load(std::memory_order_relaxed);
    return n;
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mtx_);
    Metric &m = metrics_[name];
    if (!m.counter)
        m.counter = std::make_unique<Counter>();
    return *m.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mtx_);
    Metric &m = metrics_[name];
    if (!m.gauge)
        m.gauge = std::make_unique<Gauge>();
    return *m.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lk(mtx_);
    Metric &m = metrics_[name];
    if (!m.histogram)
        m.histogram = std::make_unique<Histogram>(
            bounds.empty() ? defaultLatencyBucketsUs()
                           : std::move(bounds));
    return *m.histogram;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    std::string j = "{";
    bool first = true;
    auto key = [&](const std::string &name, const char *suffix) {
        if (!first)
            j += ",";
        first = false;
        j += "\"" + name + suffix + "\":";
    };
    for (const auto &[name, m] : metrics_) {
        // A name can in principle carry several kinds; suffix the
        // non-counter kinds so the JSON keys stay unique.
        if (m.counter) {
            key(name, "");
            j += std::to_string(m.counter->value());
        }
        if (m.gauge) {
            key(name, m.counter ? ".gauge" : "");
            appendJsonDouble(j, m.gauge->value());
        }
        if (m.histogram) {
            key(name, (m.counter || m.gauge) ? ".histogram" : "");
            j += m.histogram->snapshot().toJson();
        }
    }
    j += "}";
    return j;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lk(mtx_);
    for (auto &[name, m] : metrics_) {
        (void)name;
        if (m.counter)
            m.counter->reset();
        if (m.gauge)
            m.gauge->reset();
        if (m.histogram)
            m.histogram->reset();
    }
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry r;
    return r;
}

} // namespace obs
} // namespace sunstone
