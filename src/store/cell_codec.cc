#include "cell_codec.hh"

#include "obs/provenance.hh"
#include "trace/wire.hh"

namespace pcstall::store
{

using trace::Cursor;
using trace::putBool;
using trace::putDouble;
using trace::putString;
using trace::putVarint;
using trace::putZigzag;

namespace
{

void
encodeFaultSummary(std::string &out, const sim::FaultSummary &fs)
{
    putVarint(out, fs.telemetryPerturbations);
    putVarint(out, fs.telemetryDropouts);
    putVarint(out, fs.transitionFailures);
    putZigzag(out, fs.transitionExtraLatency);
    putVarint(out, fs.tableBitFlips);
    putVarint(out, fs.tableScrubs);
    putVarint(out, fs.clampedDecisions);
    putVarint(out, fs.watchdogTrips);
    putVarint(out, fs.fallbackEpochs);
}

void
decodeFaultSummary(Cursor &cur, sim::FaultSummary &fs)
{
    fs.telemetryPerturbations = cur.varint();
    fs.telemetryDropouts = cur.varint();
    fs.transitionFailures = cur.varint();
    fs.transitionExtraLatency = cur.zigzag();
    fs.tableBitFlips = cur.varint();
    fs.tableScrubs = cur.varint();
    fs.clampedDecisions = cur.varint();
    fs.watchdogTrips = cur.varint();
    fs.fallbackEpochs = cur.varint();
}

void
encodeEpochFaults(std::string &out, const gpu::FaultEpochCounters &fc)
{
    putVarint(out, fc.telemetryPerturbations);
    putVarint(out, fc.telemetryDropouts);
    putVarint(out, fc.transitionFailures);
    putZigzag(out, fc.transitionExtraLatency);
    putVarint(out, fc.tableBitFlips);
    putVarint(out, fc.clampedDecisions);
    putBool(out, fc.fallbackActive);
}

void
decodeEpochFaults(Cursor &cur, gpu::FaultEpochCounters &fc)
{
    fc.telemetryPerturbations = cur.varint();
    fc.telemetryDropouts = cur.varint();
    fc.transitionFailures = cur.varint();
    fc.transitionExtraLatency = cur.zigzag();
    fc.tableBitFlips = cur.varint();
    fc.clampedDecisions = cur.varint();
    fc.fallbackActive = cur.getBool();
}

void
encodeRunResult(std::string &out, const sim::RunResult &r)
{
    putString(out, r.controller);
    putString(out, r.workload);
    putBool(out, r.completed);
    putVarint(out, r.epochs);
    putZigzag(out, r.execTime);
    putDouble(out, r.energy);
    putVarint(out, r.instructions);
    putDouble(out, r.predictionAccuracy);
    putVarint(out, r.transitions);
    putDouble(out, r.transitionEnergy);
    putVarint(out, r.freqTimeShare.size());
    for (const double v : r.freqTimeShare)
        putDouble(out, v);
    putDouble(out, r.finalTemperature);
    encodeFaultSummary(out, r.faults);
    putVarint(out, r.trace.size());
    for (const sim::EpochTraceEntry &e : r.trace) {
        putZigzag(out, e.start);
        putVarint(out, e.domainState.size());
        for (const std::uint8_t s : e.domainState)
            out.push_back(static_cast<char>(s));
        putVarint(out, e.domainCommitted.size());
        for (const double v : e.domainCommitted)
            putDouble(out, v);
        encodeEpochFaults(out, e.faults);
    }
    obs::encodeRegretSummary(out, r.regret);
}

bool
decodeRunResult(Cursor &cur, sim::RunResult &r)
{
    r.controller = cur.getString();
    r.workload = cur.getString();
    r.completed = cur.getBool();
    r.epochs = cur.varint();
    r.execTime = cur.zigzag();
    r.energy = cur.getDouble();
    r.instructions = cur.varint();
    r.predictionAccuracy = cur.getDouble();
    r.transitions = cur.varint();
    r.transitionEnergy = cur.getDouble();
    const std::uint64_t shares = cur.varint();
    if (cur.failed() || shares > cur.remaining() / 8)
        return false;
    r.freqTimeShare.resize(shares);
    for (double &v : r.freqTimeShare)
        v = cur.getDouble();
    r.finalTemperature = cur.getDouble();
    decodeFaultSummary(cur, r.faults);
    const std::uint64_t entries = cur.varint();
    // Each entry costs >= 10 bytes on the wire; bound the allocation
    // by the bytes actually present so corrupt counts cannot balloon.
    if (cur.failed() || entries > cur.remaining() / 10)
        return false;
    r.trace.resize(entries);
    for (sim::EpochTraceEntry &e : r.trace) {
        e.start = cur.zigzag();
        const std::uint64_t states = cur.varint();
        if (cur.failed() || states > cur.remaining())
            return false;
        e.domainState.resize(states);
        for (std::uint8_t &s : e.domainState)
            s = cur.u8();
        const std::uint64_t committed = cur.varint();
        if (cur.failed() || committed > cur.remaining() / 8)
            return false;
        e.domainCommitted.resize(committed);
        for (double &v : e.domainCommitted)
            v = cur.getDouble();
        decodeEpochFaults(cur, e.faults);
    }
    if (!obs::decodeRegretSummary(cur, r.regret))
        return false;
    return !cur.failed();
}

void
encodeMetrics(std::string &out, const obs::MetricsSnapshot &snap)
{
    // Deterministic-kind metrics only: maps are ordered, so the
    // encoding (and thus the store payload) is canonical.
    std::uint64_t n = 0;
    for (const auto &[name, value] : snap.counters) {
        (void)value;
        if (snap.kindOf(name) == obs::MetricKind::Deterministic)
            ++n;
    }
    putVarint(out, n);
    for (const auto &[name, value] : snap.counters) {
        if (snap.kindOf(name) != obs::MetricKind::Deterministic)
            continue;
        putString(out, name);
        putVarint(out, value);
    }
    n = 0;
    for (const auto &[name, value] : snap.gauges) {
        (void)value;
        if (snap.kindOf(name) == obs::MetricKind::Deterministic)
            ++n;
    }
    putVarint(out, n);
    for (const auto &[name, value] : snap.gauges) {
        if (snap.kindOf(name) != obs::MetricKind::Deterministic)
            continue;
        putString(out, name);
        putDouble(out, value);
    }
    n = 0;
    for (const auto &[name, hist] : snap.histograms) {
        (void)hist;
        if (snap.kindOf(name) == obs::MetricKind::Deterministic)
            ++n;
    }
    putVarint(out, n);
    for (const auto &[name, hist] : snap.histograms) {
        if (snap.kindOf(name) != obs::MetricKind::Deterministic)
            continue;
        putString(out, name);
        putVarint(out, hist.count);
        putDouble(out, hist.sum);
        putDouble(out, hist.min);
        putDouble(out, hist.max);
        putVarint(out, hist.overflow);
        putVarint(out, hist.buckets.size());
        for (const auto &[idx, count] : hist.buckets) {
            putZigzag(out, idx);
            putVarint(out, count);
        }
    }
}

bool
decodeMetrics(Cursor &cur, obs::MetricsSnapshot &snap)
{
    std::uint64_t n = cur.varint();
    if (cur.failed() || n > cur.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = cur.getString();
        snap.counters[name] = cur.varint();
    }
    n = cur.varint();
    if (cur.failed() || n > cur.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = cur.getString();
        snap.gauges[name] = cur.getDouble();
    }
    n = cur.varint();
    if (cur.failed() || n > cur.remaining())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = cur.getString();
        obs::HistogramSnapshot hist;
        hist.count = cur.varint();
        hist.sum = cur.getDouble();
        hist.min = cur.getDouble();
        hist.max = cur.getDouble();
        hist.overflow = cur.varint();
        const std::uint64_t buckets = cur.varint();
        if (cur.failed() || buckets > cur.remaining() / 2)
            return false;
        hist.buckets.reserve(buckets);
        for (std::uint64_t b = 0; b < buckets; ++b) {
            const int idx = static_cast<int>(cur.zigzag());
            const std::uint64_t count = cur.varint();
            hist.buckets.emplace_back(idx, count);
        }
        snap.histograms[name] = std::move(hist);
    }
    return !cur.failed();
}

} // namespace

std::string
encodeStoredCell(const StoredCell &cell)
{
    std::string out;
    putVarint(out, cellCodecVersion);
    putBool(out, cell.run.ok);
    putString(out, cell.run.error);
    encodeRunResult(out, cell.run.result);
    encodeMetrics(out, cell.metrics);
    return out;
}

bool
decodeStoredCell(const std::string &payload, StoredCell &out,
                 std::string &error)
{
    Cursor cur(payload);
    const std::uint64_t version = cur.varint();
    if (cur.failed() || version != cellCodecVersion) {
        error = "unsupported cell payload version";
        return false;
    }
    out.run.ok = cur.getBool();
    out.run.error = cur.getString();
    if (!decodeRunResult(cur, out.run.result)) {
        error = "truncated run result";
        return false;
    }
    if (!decodeMetrics(cur, out.metrics)) {
        error = "truncated metrics shard";
        return false;
    }
    if (cur.failed() || !cur.atEnd()) {
        error = "malformed cell payload";
        return false;
    }
    return true;
}

} // namespace pcstall::store
