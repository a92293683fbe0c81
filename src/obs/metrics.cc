#include "obs/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace pcstall::obs
{

namespace
{
std::atomic<bool> g_enabled{false};
} // namespace

void
setMetricsEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

// --- Histogram ------------------------------------------------------

double
Histogram::upperEdge(int idx)
{
    // Bucket 0 (underflow) ends at the smallest finite edge.
    const int clamped = std::clamp(idx, 0, numEdges);
    return std::exp2(static_cast<double>(minExp) +
                     static_cast<double>(clamped) /
                         static_cast<double>(bucketsPerOctave));
}

namespace
{

/** Bucket index of @p value: 0 = underflow, 1..numEdges finite,
 *  numEdges + 1 = overflow. */
int
bucketOf(double value)
{
    if (!(value >= 0.0))
        return 0; // negative or NaN: count as underflow
    const double lg = std::log2(value);
    if (lg < static_cast<double>(Histogram::minExp))
        return 0;
    const int idx = static_cast<int>(std::floor(
                        (lg - Histogram::minExp) *
                        Histogram::bucketsPerOctave)) + 1;
    return std::min(idx, Histogram::numEdges + 1);
}

} // namespace

void
Histogram::record(double value)
{
    if (!metricsEnabled())
        return;
    const int idx = bucketOf(value);
    const std::lock_guard<std::mutex> lock(mutex);
    if (counts.empty())
        counts.assign(numEdges + 1, 0);
    if (idx > numEdges)
        ++overflow;
    else
        ++counts[static_cast<std::size_t>(idx)];
    if (count == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count;
    sum += value;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    const std::lock_guard<std::mutex> lock(mutex);
    out.count = count;
    out.sum = sum;
    out.min = min_;
    out.max = max_;
    out.overflow = overflow;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] != 0)
            out.buckets.emplace_back(static_cast<int>(i), counts[i]);
    }
    return out;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    const double target = p * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (const auto &[idx, n] : buckets) {
        if (static_cast<double>(seen + n) >= target) {
            // Interpolate within the bucket's [lower, upper) span.
            const double lower =
                idx == 0 ? min : Histogram::upperEdge(idx - 1);
            const double upper = Histogram::upperEdge(idx);
            const double frac =
                (target - static_cast<double>(seen)) /
                static_cast<double>(n);
            const double v = lower + frac * (upper - lower);
            return std::clamp(v, min, max);
        }
        seen += n;
    }
    return max; // target falls in the overflow tail
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    overflow += other.overflow;
    std::map<int, std::uint64_t> merged(buckets.begin(), buckets.end());
    for (const auto &[idx, n] : other.buckets)
        merged[idx] += n;
    buckets.assign(merged.begin(), merged.end());
}

// --- MetricsSnapshot ------------------------------------------------

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges)
        gauges[name] = v;
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);
    for (const auto &[name, k] : other.kinds)
        kinds.emplace(name, k);
}

MetricKind
MetricsSnapshot::kindOf(const std::string &name) const
{
    const auto it = kinds.find(name);
    return it == kinds.end() ? MetricKind::Deterministic : it->second;
}

// --- Registry -------------------------------------------------------

Counter &
Registry::counter(const std::string &name, MetricKind kind)
{
    const std::lock_guard<std::mutex> lock(mutex);
    auto &slot = counters[name];
    if (slot == nullptr) {
        slot = std::make_unique<Counter>();
        kinds.emplace(name, kind);
    }
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name, MetricKind kind)
{
    const std::lock_guard<std::mutex> lock(mutex);
    auto &slot = gauges[name];
    if (slot == nullptr) {
        slot = std::make_unique<Gauge>();
        kinds.emplace(name, kind);
    }
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name, MetricKind kind)
{
    const std::lock_guard<std::mutex> lock(mutex);
    auto &slot = histograms[name];
    if (slot == nullptr) {
        slot = std::make_unique<Histogram>();
        kinds.emplace(name, kind);
    }
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot out;
    const std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, c] : counters)
        out.counters[name] = c->value();
    for (const auto &[name, g] : gauges)
        out.gauges[name] = g->value();
    for (const auto &[name, h] : histograms)
        out.histograms[name] = h->snapshot();
    out.kinds = kinds;
    return out;
}

// --- timing helpers -------------------------------------------------

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
nowNsIfEnabled()
{
    if (!metricsEnabled())
        return -1;
    return steadyNowNs();
}

void
recordSinceNs(Histogram &hist, std::int64_t t0_ns)
{
    if (t0_ns < 0)
        return;
    hist.record(static_cast<double>(steadyNowNs() - t0_ns));
}

ScopedTimer::~ScopedTimer()
{
    if (t0_ < 0)
        return;
    const double ns = static_cast<double>(steadyNowNs() - t0_);
    if (hist_ != nullptr)
        hist_->record(ns);
    if (total_ != nullptr)
        total_->add(static_cast<std::uint64_t>(ns));
}

} // namespace pcstall::obs
