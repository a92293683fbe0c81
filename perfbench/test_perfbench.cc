/**
 * @file
 * Unit tests of the benchmark's own arithmetic and checks: self time
 * on a synthetic span tree, the percentile rule, and the identity
 * check that feeds fail_ratio.
 */

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "checks.hh"
#include "spans.hh"

namespace pcstall::perfbench
{
namespace
{

Span
span(std::int64_t start, std::int64_t end, std::int32_t parent,
     SpanKind kind)
{
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.kind = kind;
    return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly)
{
    // cell [0,100] > gpu [10,40] > decide [15,25]; cell > ledger [50,90]
    const std::vector<Span> spans = {
        span(0, 100, -1, SpanKind::Cell),
        span(10, 40, 0, SpanKind::GpuEpoch),
        span(15, 25, 1, SpanKind::Decide),
        span(50, 90, 0, SpanKind::Ledger),
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self, (std::vector<std::int64_t>{30, 20, 10, 40}));
    // Self times partition the root span exactly.
    EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}),
              spans[0].duration());
}

TEST(Spans, RecorderNestsAndStampsCells)
{
    SpanRecorder rec;
    rec.setCell(7);
    {
        const ScopedSpan cell(rec, SpanKind::Cell);
        const ScopedSpan gpu(rec, SpanKind::GpuEpoch);
    }
    rec.setCell(8);
    const ScopedSpan ledger(rec, SpanKind::Ledger);
    const std::vector<Span> &spans = rec.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, -1);
    EXPECT_EQ(spans[1].cell, 7u);
    EXPECT_EQ(spans[2].cell, 8u);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_LE(spans[1].end, spans[0].end);
    EXPECT_EQ(spanLayer(SpanKind::GpuEpoch), "gpu");
    EXPECT_EQ(spanLayer(SpanKind::Cell), "");
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentiles, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(1000), 99.0), 990.0);
    EXPECT_EQ(percentile(oneTo(1000), 50.0), 500.0);
    EXPECT_EQ(percentile(oneTo(1000), 99.9), 999.0);
    EXPECT_EQ(percentile(oneTo(3), 50.0), 2.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
}

TEST(Percentiles, TailKeepsTenSamplesBeyond)
{
    const Tail full = summarize(oneTo(1000), 99.0);
    EXPECT_EQ(full.tailPct, 99.0);
    EXPECT_EQ(full.tail, 990.0);
    EXPECT_EQ(full.p50, 500.0);
    EXPECT_EQ(full.n, 1000u);

    // One sample short of ten beyond p99: fall to p95.
    EXPECT_EQ(summarize(oneTo(999), 99.0).tailPct, 95.0);
    // 100 samples: p95 leaves 5 beyond, p90 leaves 10.
    EXPECT_EQ(summarize(oneTo(100), 99.0).tailPct, 90.0);
    // Never above the percentile asked for.
    EXPECT_EQ(summarize(oneTo(100000), 95.0).tailPct, 95.0);
    // Under 20 samples only the median is reportable.
    const Tail few = summarize(oneTo(15), 99.0);
    EXPECT_EQ(few.tailPct, 50.0);
    EXPECT_EQ(few.tail, few.p50);
}

sim::RunResult
sampleResult()
{
    sim::RunResult r;
    r.controller = "PCSTALL";
    r.workload = "hacc";
    r.completed = true;
    r.epochs = 3;
    r.execTime = 2'500'000;
    r.energy = 1.25e-3;
    r.instructions = 123456;
    r.predictionAccuracy = 0.75;
    r.freqTimeShare = {0.5, 0.5};
    for (int e = 0; e < 3; ++e) {
        sim::EpochTraceEntry entry;
        entry.start = e * 1'000'000;
        entry.domainState = {4, 5};
        entry.domainCommitted = {100.0, 200.0};
        r.trace.push_back(entry);
    }
    return r;
}

TEST(Checks, PerturbedResultTripsIdentityAndRaisesFailRatio)
{
    const sim::RunResult ref = sampleResult();
    FailTally tally;
    tally.record("same", mismatch(ref, sampleResult()));
    EXPECT_EQ(tally.failed(), 0u);

    sim::RunResult energy = ref;
    energy.energy = std::nextafter(energy.energy, 1.0);
    tally.record("energy", mismatch(ref, energy));

    sim::RunResult state = ref;
    state.trace[1].domainState[0] = 6;
    tally.record("epoch state", mismatch(ref, state));

    EXPECT_EQ(tally.attempted(), 3u);
    EXPECT_EQ(tally.failed(), 2u);
    EXPECT_DOUBLE_EQ(tally.ratio(), 2.0 / 3.0);
    ASSERT_EQ(tally.failures().size(), 2u);
    EXPECT_EQ(tally.failures()[0].rfind("energy: ", 0), 0u);
}

TEST(Checks, WallAndErrorsFailCells)
{
    sim::RunResult r = sampleResult();
    EXPECT_EQ(cellProblem(true, "", r), "");
    EXPECT_EQ(cellProblem(false, "boom", r), "boom");
    r.completed = false;
    EXPECT_NE(cellProblem(true, "", r), "");
}

TEST(Checks, DigestFollowsEveryResultInOrder)
{
    sim::RunResult other = sampleResult();
    other.instructions += 1;
    Digest a;
    a.add(sampleResult());
    a.add(other);
    Digest b;
    b.add(other);
    b.add(sampleResult());
    Digest c;
    c.add(sampleResult());
    c.add(other);
    EXPECT_NE(a.hex(), b.hex());
    EXPECT_EQ(a.hex(), c.hex());
    EXPECT_EQ(a.hex().size(), 16u);
}

} // namespace
} // namespace pcstall::perfbench
