#include "obs/provenance.hh"

#include <algorithm>
#include <cmath>

#include "trace/sealed.hh"

namespace pcstall::obs
{

using trace::Cursor;
using trace::putBool;
using trace::putDouble;
using trace::putString;
using trace::putVarint;
using trace::putZigzag;

namespace
{

// Section tags of the PCPV container.
constexpr std::uint8_t tagMeta = 1;
constexpr std::uint8_t tagRecord = 2;
constexpr std::uint8_t tagEnd = 0xFF;

constexpr trace::SealedFormat provenanceFormat{
    "PCPV", provenanceFormatVersion, tagEnd};

/** Reference-sum clamp for the relative regret forms. */
constexpr double relFloor = 1e-12;

double
relTo(double delta, double reference)
{
    return delta / std::max(std::abs(reference), relFloor);
}

} // namespace

double
DecisionRecord::chosenScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.chosenScore;
    return sum;
}

double
DecisionRecord::bestScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.bestScore;
    return sum;
}

double
DecisionRecord::nominalScoreSum() const
{
    double sum = 0.0;
    for (const DomainDecisionProv &d : domains)
        sum += d.nominalScore;
    return sum;
}

double
DecisionRecord::oracleRegret() const
{
    return realized ? chosenScoreSum() - bestScoreSum() : 0.0;
}

double
DecisionRecord::staticRegret() const
{
    return realized ? chosenScoreSum() - nominalScoreSum() : 0.0;
}

double
DecisionRecord::oracleRegretRel() const
{
    return realized ? relTo(oracleRegret(), bestScoreSum()) : 0.0;
}

double
DecisionRecord::staticRegretRel() const
{
    return realized ? relTo(staticRegret(), nominalScoreSum()) : 0.0;
}

void
RegretSummary::add(double oracle_rel, double static_rel)
{
    if (buckets.empty())
        buckets.assign(numBuckets, 0);
    ++count;
    oracleSum += oracle_rel;
    oracleMax = std::max(oracleMax, oracle_rel);
    staticSum += static_rel;

    std::size_t idx = 0;
    if (oracle_rel >= std::ldexp(1.0, maxExp)) {
        idx = numBuckets - 1;
    } else if (oracle_rel >= std::ldexp(1.0, minExp)) {
        const double pos =
            std::floor(std::log2(oracle_rel) * bucketsPerOctave);
        idx = 1 + static_cast<std::size_t>(
            static_cast<long>(pos) -
            static_cast<long>(minExp) * bucketsPerOctave);
        idx = std::min(idx, numBuckets - 2);
    }
    ++buckets[idx];
}

void
RegretSummary::merge(const RegretSummary &other)
{
    if (other.count == 0)
        return;
    if (buckets.empty())
        buckets.assign(numBuckets, 0);
    count += other.count;
    oracleSum += other.oracleSum;
    oracleMax = std::max(oracleMax, other.oracleMax);
    staticSum += other.staticSum;
    const std::size_t n = std::min(buckets.size(),
                                   other.buckets.size());
    for (std::size_t i = 0; i < n; ++i)
        buckets[i] += other.buckets[i];
}

double
RegretSummary::meanOracle() const
{
    return count > 0 ? oracleSum / static_cast<double>(count) : 0.0;
}

double
RegretSummary::meanStatic() const
{
    return count > 0 ? staticSum / static_cast<double>(count) : 0.0;
}

double
RegretSummary::percentile(double p) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen < target)
            continue;
        if (i == 0)
            return std::ldexp(1.0, minExp);
        if (i == buckets.size() - 1)
            return oracleMax;
        // Upper edge of finite bucket i.
        const double exp2 = static_cast<double>(minExp) +
            static_cast<double>(i) / bucketsPerOctave;
        return std::min(std::exp2(exp2), oracleMax);
    }
    return oracleMax;
}

void
encodeRegretSummary(std::string &out, const RegretSummary &summary)
{
    putVarint(out, summary.count);
    putDouble(out, summary.oracleSum);
    putDouble(out, summary.oracleMax);
    putDouble(out, summary.staticSum);
    putVarint(out, summary.buckets.size());
    for (const std::uint64_t b : summary.buckets)
        putVarint(out, b);
}

bool
decodeRegretSummary(Cursor &cur, RegretSummary &summary)
{
    summary.count = cur.varint();
    summary.oracleSum = cur.getDouble();
    summary.oracleMax = cur.getDouble();
    summary.staticSum = cur.getDouble();
    const std::uint64_t buckets = cur.varint();
    if (cur.failed() || buckets > cur.remaining() ||
        (buckets != 0 && buckets != RegretSummary::numBuckets)) {
        return false;
    }
    summary.buckets.resize(buckets);
    for (std::uint64_t &b : summary.buckets)
        b = cur.varint();
    return !cur.failed();
}

namespace
{

std::string
encodeMeta(const ProvenanceMeta &meta)
{
    std::string out;
    putString(out, meta.workload);
    putString(out, meta.controller);
    putString(out, meta.objective);
    putZigzag(out, meta.epochLen);
    putVarint(out, meta.numDomains);
    putVarint(out, meta.numStates);
    putVarint(out, meta.nominalState);
    putVarint(out, meta.stateFreqMhz.size());
    for (const std::uint32_t mhz : meta.stateFreqMhz)
        putVarint(out, mhz);
    return out;
}

bool
decodeMeta(Cursor cur, ProvenanceMeta &meta)
{
    meta.workload = cur.getString();
    meta.controller = cur.getString();
    meta.objective = cur.getString();
    meta.epochLen = cur.zigzag();
    meta.numDomains = static_cast<std::uint32_t>(cur.varint());
    meta.numStates = static_cast<std::uint32_t>(cur.varint());
    meta.nominalState = static_cast<std::uint32_t>(cur.varint());
    const std::uint64_t freqs = cur.varint();
    if (cur.failed() || freqs > cur.remaining() ||
        freqs != meta.numStates) {
        return false;
    }
    meta.stateFreqMhz.resize(freqs);
    for (std::uint32_t &mhz : meta.stateFreqMhz)
        mhz = static_cast<std::uint32_t>(cur.varint());
    return !cur.failed() && cur.atEnd() && meta.numDomains > 0 &&
        meta.numStates > 0 && meta.nominalState < meta.numStates;
}

std::string
encodeRecord(const DecisionRecord &rec, std::int64_t prev_start)
{
    std::string out;
    putVarint(out, rec.epoch);
    putZigzag(out, rec.start - prev_start);
    std::uint8_t flags = 0;
    if (rec.fallbackActive)
        flags |= 1;
    if (rec.realized)
        flags |= 2;
    out.push_back(static_cast<char>(flags));
    for (const DomainDecisionProv &d : rec.domains) {
        putVarint(out, d.pcKey);
        putVarint(out, d.lookups);
        putVarint(out, d.hits);
        putVarint(out, d.sameRegion);
        putVarint(out, d.reactive);
        putDouble(out, d.predictedSens);
        putDouble(out, d.predictedLevel);
        putVarint(out, d.elapsedInstr);
        putVarint(out, d.loadStallTicks);
        putVarint(out, d.memAccesses);
        out.push_back(static_cast<char>(d.chosenState));
        out.push_back(static_cast<char>(d.appliedState));
        putDouble(out, d.predictedInstr);
        if (rec.realized) {
            putVarint(out, d.realizedInstr);
            putDouble(out, d.chosenScore);
            putDouble(out, d.bestScore);
            out.push_back(static_cast<char>(d.bestState));
            putDouble(out, d.nominalScore);
        }
    }
    if (rec.realized) {
        for (const double score : rec.stateScores)
            putDouble(out, score);
    }
    return out;
}

bool
decodeRecord(Cursor cur, const ProvenanceMeta &meta,
             std::int64_t prev_start, DecisionRecord &rec)
{
    rec.epoch = cur.varint();
    rec.start = prev_start + cur.zigzag();
    const std::uint8_t flags = cur.u8();
    if (cur.failed() || (flags & ~0x03) != 0)
        return false;
    rec.fallbackActive = (flags & 1) != 0;
    rec.realized = (flags & 2) != 0;
    rec.domains.resize(meta.numDomains);
    for (DomainDecisionProv &d : rec.domains) {
        d.pcKey = cur.varint();
        d.lookups = static_cast<std::uint32_t>(cur.varint());
        d.hits = static_cast<std::uint32_t>(cur.varint());
        d.sameRegion = static_cast<std::uint32_t>(cur.varint());
        d.reactive = static_cast<std::uint32_t>(cur.varint());
        d.predictedSens = cur.getDouble();
        d.predictedLevel = cur.getDouble();
        d.elapsedInstr = cur.varint();
        d.loadStallTicks = cur.varint();
        d.memAccesses = cur.varint();
        d.chosenState = cur.u8();
        d.appliedState = cur.u8();
        d.predictedInstr = cur.getDouble();
        if (rec.realized) {
            d.realizedInstr = cur.varint();
            d.chosenScore = cur.getDouble();
            d.bestScore = cur.getDouble();
            d.bestState = cur.u8();
            d.nominalScore = cur.getDouble();
        }
        if (cur.failed() || d.chosenState >= meta.numStates ||
            d.appliedState >= meta.numStates ||
            d.bestState >= meta.numStates) {
            return false;
        }
    }
    if (rec.realized) {
        rec.stateScores.resize(meta.numStates);
        for (double &score : rec.stateScores)
            score = cur.getDouble();
    }
    return !cur.failed() && cur.atEnd();
}

std::string
encodeTrailer(const ProvenanceLog &log)
{
    std::string out;
    putVarint(out, log.records.size());
    encodeRegretSummary(out, log.regret);
    return out;
}

bool
decodeTrailer(Cursor cur, std::uint64_t &record_count, RegretSummary &r)
{
    record_count = cur.varint();
    return decodeRegretSummary(cur, r) && cur.atEnd();
}

ProvenanceReadResult
failWith(const std::string &what)
{
    ProvenanceReadResult res;
    res.error = "provenance: " + what;
    return res;
}

} // namespace

std::string
encodeProvenance(const ProvenanceLog &log)
{
    trace::SealedWriter sealer(provenanceFormat);
    std::string out = sealer.header();
    sealer.append(out, tagMeta, encodeMeta(log.meta));
    std::int64_t prev_start = 0;
    for (const DecisionRecord &rec : log.records) {
        sealer.append(out, tagRecord, encodeRecord(rec, prev_start));
        prev_start = rec.start;
    }
    out += sealer.end(encodeTrailer(log));
    return out;
}

ProvenanceReadResult
decodeProvenance(const std::string &bytes)
{
    const trace::Unsealed file = trace::unseal(bytes, provenanceFormat);
    if (!file.ok())
        return failWith(file.error);
    if (file.sections.empty() || file.sections.front().tag != tagMeta)
        return failWith("missing META section");

    ProvenanceLog log;
    if (!decodeMeta(file.sections.front().cursor(), log.meta))
        return failWith("malformed META section");
    std::int64_t prev_start = 0;
    for (std::size_t i = 1; i < file.sections.size(); ++i) {
        const trace::SealedSection &section = file.sections[i];
        DecisionRecord rec;
        if (section.tag != tagRecord ||
            !decodeRecord(section.cursor(), log.meta, prev_start, rec)) {
            return failWith("malformed record " +
                            std::to_string(log.records.size()));
        }
        prev_start = rec.start;
        log.records.push_back(std::move(rec));
    }

    std::uint64_t trailer_records = 0;
    if (!decodeTrailer(file.trailer.cursor(), trailer_records, log.regret))
        return failWith("malformed trailer");
    if (trailer_records != log.records.size())
        return failWith("record count mismatch (truncated file)");

    ProvenanceReadResult res;
    res.log = std::move(log);
    return res;
}

ProvenanceReadResult
readProvenanceFile(const std::string &path)
{
    std::string bytes;
    if (!trace::readFile(path, bytes))
        return failWith("cannot read '" + path + "'");
    return decodeProvenance(bytes);
}

} // namespace pcstall::obs
