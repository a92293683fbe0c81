/**
 * @file
 * The metrics core of the observability subsystem (docs/observability.md):
 * monotonic counters, gauges, log-scale histograms with
 * p50/p95/p99, and RAII scoped timers, collected in named registries.
 *
 * Design constraints, in order:
 *
 *  1. *Near-zero cost when disabled.* Every recording call is gated on
 *     one relaxed atomic-bool load; no clock is read and no lock is
 *     taken unless metrics are enabled (off by default; harnesses
 *     enable on --metrics-out / --timeline-out / --verbose).
 *
 *  2. *Deterministic parallel merges.* Metrics are sharded per run
 *     context: each sweep cell (and each prepass baseline) records
 *     into its own Registry, installed thread-locally for the span of
 *     the cell, and bench::SweepRunner collects the shards in
 *     submission order. Merging snapshots in that fixed order makes
 *     the merged output byte-identical for every --threads value -
 *     including double-valued histogram sums, which are not
 *     commutative under reordering.
 *
 *  3. *Wall-clock metrics are quarantined.* Timing-kind metrics
 *     (scoped timers, queue waits) can never be deterministic, so
 *     every metric carries a MetricKind and the exporters segregate
 *     the timing section; determinism checks compare only the
 *     deterministic part (tools/check_obs_schema.py --canonical).
 *
 * Hot simulation paths should keep plain member counters (e.g.
 * predict::PcSensitivityTable's telemetry) and flush them into the
 * current registry once per run; registries are for per-epoch and
 * per-run granularity recording.
 */

#ifndef PCSTALL_OBS_METRICS_HH
#define PCSTALL_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pcstall::obs
{

/**
 * Globally enable/disable metric recording (default: disabled).
 *
 * @param enabled  True to record metrics from now on.
 */
void setMetricsEnabled(bool enabled);

/** @return True when metric recording is enabled (one relaxed atomic
 *          load). */
bool metricsEnabled();

/**
 * Deterministic metrics are pure functions of the simulated run and
 * merge byte-identically for any thread count; Timing metrics carry
 * wall-clock measurements and live in a separate exporter section.
 */
enum class MetricKind { Deterministic, Timing };

/** Monotonic counter (thread-safe, relaxed). */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        if (metricsEnabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (thread-safe). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (metricsEnabled())
            value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Exported image of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** Sparse (bucket index, count) pairs, ascending by index. */
    std::vector<std::pair<int, std::uint64_t>> buckets;
    /** Values >= the largest bucket edge. */
    std::uint64_t overflow = 0;

    /**
     * Estimated quantile (log-linear interpolation, clamped to the
     * observed [min, max]).
     *
     * @param p  Quantile in [0, 1] (0.5 = median).
     * @return The estimated value at quantile @p p.
     */
    double percentile(double p) const;

    /**
     * Merge another snapshot into this one (bucket-wise;
     * order-independent for integer fields, caller fixes the order
     * for the double sum).
     *
     * @param other  Snapshot to fold in; left unchanged.
     */
    void merge(const HistogramSnapshot &other);
};

/**
 * Log-scale histogram: 4 buckets per octave over [2^-32, 2^48), plus
 * an underflow bucket (values < 2^-32, including zero) and an
 * overflow tail. Covers sub-nanosecond fractions up to ~10^14 with
 * <= 19% relative bucket error, good enough for p50/p95/p99 of both
 * wall-clock nanoseconds and percentage-scale model errors.
 */
class Histogram
{
  public:
    static constexpr int bucketsPerOctave = 4;
    static constexpr int minExp = -32;
    static constexpr int maxExp = 48;
    /** Number of finite bucket edges. */
    static constexpr int numEdges =
        (maxExp - minExp) * bucketsPerOctave;

    void record(double value);

    HistogramSnapshot snapshot() const;

    /**
     * @param idx  Bucket index (0 = underflow bucket).
     * @return Upper edge of bucket @p idx.
     */
    static double upperEdge(int idx);

  private:
    mutable std::mutex mutex;
    /** counts[0] = underflow; counts[1..numEdges] = finite buckets. */
    std::vector<std::uint64_t> counts;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Exported image of one registry (or a merge of many). */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    /** Kind per metric name (absent = Deterministic). */
    std::map<std::string, MetricKind> kinds;

    /**
     * Merge another snapshot into this one. Counters and histogram
     * buckets add; gauges take the other snapshot's value.
     * Double-valued sums accumulate in call order, so merging shards
     * in a fixed (submission) order yields byte-identical results
     * regardless of which threads produced them.
     *
     * @param other  Snapshot to fold in; left unchanged.
     */
    void merge(const MetricsSnapshot &other);

    MetricKind kindOf(const std::string &name) const;
};

/**
 * A named collection of metrics. Handles returned by counter() /
 * gauge() / histogram() are stable for the registry's lifetime, so
 * per-run objects (EpochLedger, drivers) cache them once instead of
 * re-resolving names per epoch.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name,
                     MetricKind kind = MetricKind::Deterministic);
    Gauge &gauge(const std::string &name,
                 MetricKind kind = MetricKind::Deterministic);
    Histogram &histogram(const std::string &name,
                         MetricKind kind = MetricKind::Deterministic);

    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, MetricKind> kinds;
};

// --- wall-clock helpers (timing-kind metrics) -----------------------

/** @return steady_clock now in ns, read whether or not metrics are
 *  enabled (wall-clock deadlines, replay timings). */
std::int64_t steadyNowNs();

/** @return steadyNowNs(), or -1 when metrics are disabled. */
std::int64_t nowNsIfEnabled();

/**
 * Record an elapsed wall time into a histogram.
 *
 * @param hist   Destination (Timing-kind) histogram.
 * @param t0_ns  Start stamp from nowNsIfEnabled(); values < 0 (metrics
 *               were disabled at the start) make this a no-op.
 */
void recordSinceNs(Histogram &hist, std::int64_t t0_ns);

/**
 * RAII timer: records the scope's wall time into a histogram and/or
 * adds it to a counter. Reads no clock when metrics are disabled.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram *hist, Counter *total_ns = nullptr)
        : hist_(hist), total_(total_ns), t0_(nowNsIfEnabled())
    {
    }

    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram *hist_;
    Counter *total_;
    std::int64_t t0_;
};

} // namespace pcstall::obs

#endif // PCSTALL_OBS_METRICS_HH
