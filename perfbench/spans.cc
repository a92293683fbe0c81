#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "common/logging.hh"

namespace pcstall::perfbench
{

namespace
{

constexpr const char *kindNames[spanKindCount] = {
    "cell",          "workloads.build", "gpu.epoch",
    "gpu.other",     "oracle.sweep",    "oracle.restore_probe",
    "dvfs.build",    "dvfs.decide",     "sim.ledger",
    "trace.get",     "trace.decode",    "trace.replay",
    "trace.encode",  "trace.publish",   "store.put",
    "store.get",
};

template <typename T>
void
putLittleEndian(std::ofstream &os, T value)
{
    const auto bits = static_cast<std::uint64_t>(value);
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
    os.write(bytes, sizeof(T));
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
spanName(SpanKind kind)
{
    return kindNames[static_cast<std::size_t>(kind)];
}

std::string
spanLayer(SpanKind kind)
{
    if (kind == SpanKind::Cell)
        return "";
    const std::string name = spanName(kind);
    return name.substr(0, name.find('.'));
}

std::size_t
SpanRecorder::open(SpanKind kind)
{
    Span span;
    span.parent =
        open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    span.cell = cell_;
    span.kind = kind;
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    // Stamped last, so the bookkeeping above falls outside the span.
    spans_.back().start = nowNs();
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    const std::int64_t end = nowNs();
    panicIf(open_.empty() || open_.back() != index,
            "perfbench: spans closed out of order");
    spans_[index].end = end;
    open_.pop_back();
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "perfbench-spans 1 " << spans_.size() << '\n';
    for (std::size_t k = 0; k < spanKindCount; ++k)
        os << (k == 0 ? "" : ",") << kindNames[k];
    os << '\n';
    for (const Span &span : spans_) {
        putLittleEndian(os, span.start);
        putLittleEndian(os, span.end);
        putLittleEndian(os, span.parent);
        putLittleEndian(os, span.cell);
        putLittleEndian(os, static_cast<std::uint8_t>(span.kind));
    }
    os.close();
    return static_cast<bool>(os);
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].duration();
    for (const Span &span : spans) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.duration();
    }
    return self;
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    // Nearest rank ceil(pct/100 * n), computed in whole tenths of a
    // percent so that the 99th percentile of 1000 is exactly rank 990.
    const auto tenths =
        static_cast<std::uint64_t>(std::llround(pct * 10.0));
    const std::uint64_t rank =
        std::min<std::uint64_t>((tenths * n + 999) / 1000, n);
    return n - static_cast<std::size_t>(rank);
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = std::max<std::size_t>(
        samples.size() - samplesBeyond(samples.size(), pct), 1);
    const auto nth =
        samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

Tail
summarize(std::vector<double> samples, double want_pct)
{
    static constexpr double rungs[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    Tail tail;
    tail.n = samples.size();
    for (const double pct : rungs) {
        if (pct <= want_pct && samplesBeyond(tail.n, pct) >= 10) {
            tail.tailPct = pct;
            break;
        }
    }
    tail.p50 = percentile(samples, 50.0);
    tail.tail = percentile(std::move(samples), tail.tailPct);
    return tail;
}

} // namespace pcstall::perfbench
