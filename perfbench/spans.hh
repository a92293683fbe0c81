/**
 * @file
 * Span recording for the benchmark's traced run, and the arithmetic
 * its per-layer report rests on.
 *
 * Spans are kept in memory in one flat vector, in the order they were
 * opened (so a parent always precedes its children), and written out
 * once when the run ends. A span's self time is its duration minus the
 * durations of its direct children; a layer's self time is the sum
 * over its spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcstall::perfbench
{

/** Steady-clock time in nanoseconds. */
std::int64_t nowNs();

/** What a span times; spanName() spells it "<layer>.<call>". */
enum class SpanKind : std::uint8_t
{
    /** One sweep cell. Its self time is glue no layer claims. */
    Cell,
    /** workloads: bench::makeApp. */
    Build,
    /** gpu: GpuChip::runUntil + harvestEpoch. */
    GpuEpoch,
    /** gpu: chip construction, waveSnapshots, setCuFrequency. */
    GpuOther,
    /** oracle: oracle::forkPreExecuteSweep. */
    OracleSweep,
    /** oracle: SnapshotPool::restore on a side pool. A probe, not
     *  work the program does, so it is left out of every share. */
    OracleProbe,
    /** dvfs: building the cell's controller. */
    ControllerBuild,
    /** dvfs: DvfsController::decide. */
    Decide,
    /** sim: sim::EpochLedger calls. */
    Ledger,
    /** trace: TraceLibrary::get. */
    TraceGet,
    /** trace: trace::readTraceFile. */
    TraceDecode,
    /** trace: the replay loop of trace::ReplayDriver::run. */
    TraceReplay,
    /** trace: TraceCapture::onEpoch (frame encode and write). */
    TraceEncode,
    /** trace: TraceWriter::finish + TraceLibrary::publishKey. */
    TracePublish,
    /** store: store::encodeStoredCell + ResultStore::put. */
    StorePut,
    /** store: ResultStore::get + store::decodeStoredCell. */
    StoreGet,
};

inline constexpr std::size_t spanKindCount = 16;

/** "<layer>.<call>" for @p kind ("cell" for SpanKind::Cell). */
const char *spanName(SpanKind kind);

/** The layer @p kind belongs to ("" for SpanKind::Cell). */
std::string spanLayer(SpanKind kind);

/** One recorded span. */
struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span, -1 at top level. */
    std::int32_t parent = -1;
    std::uint32_t cell = 0;
    SpanKind kind = SpanKind::Cell;

    std::int64_t duration() const { return end - start; }
};

/** In-memory span log of one thread. */
class SpanRecorder
{
  public:
    /** Open a span inside the innermost open one; returns its index. */
    std::size_t open(SpanKind kind);

    /** Close span @p index, which must be the innermost open one. */
    void close(std::size_t index);

    /** Cell id stamped on the spans opened from now on. */
    void setCell(std::uint32_t cell) { cell_ = cell; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span to @p path: two text lines
     * ("perfbench-spans 1 <count>", then the comma-separated kind
     * names in SpanKind order), then per span little-endian int64
     * start, int64 end, int32 parent, uint32 cell and uint8 kind.
     */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::uint32_t cell_ = 0;
};

/** A span open for the enclosing scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, SpanKind kind)
        : recorder_(recorder), index_(recorder.open(kind))
    {
    }

    ~ScopedSpan() { recorder_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    std::size_t index_;
};

/**
 * Self time of every span: its duration minus the durations of its
 * direct children. Parents must precede their children, as
 * SpanRecorder keeps them.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Samples ranked strictly above the nearest-rank @p pct percentile
 *  of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** Nearest-rank @p pct percentile of @p samples (0 when empty). */
double percentile(std::vector<double> samples, double pct);

/** A timing reported as median and tail, with its sample count. */
struct Tail
{
    double p50 = 0.0;
    double tail = 0.0;
    /** Percentile @ref tail was read at. */
    double tailPct = 50.0;
    std::size_t n = 0;
};

/**
 * Median plus the tail at @p want_pct or, when fewer than ten samples
 * lie beyond it, at the highest lower rung of 99.9/99/95/90/75/50 that
 * has ten; the median when none has (fewer than 20 samples).
 */
Tail summarize(std::vector<double> samples, double want_pct);

} // namespace pcstall::perfbench

#endif // PERFBENCH_SPANS_HH
