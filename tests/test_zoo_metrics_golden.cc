/**
 * @file
 * Metric golden digests: every tournament design run end to end on
 * comd and xsbench (4 CUs, scale 0.1) with metrics enabled, each run
 * recording into its own registry. One row per design chains both
 * runs' Deterministic-kind counters, gauges and histograms - names
 * and values - into one digest in tests/data/zoo_metrics_golden.txt.
 *
 * The decision golden (test_decision_golden.cc) pins what every design
 * decides; this file pins what every design counts, including the
 * controller.dso.*, controller.regr.* and controller.wangchu.*
 * metrics no other test reads. A refactor of how a controller records
 * its metrics (where it resolves a counter, when it adds to it) must
 * leave every line unchanged: a counter created on a different path
 * changes the metric names even when no value moves.
 *
 * The file's header records gpu::modelVersion (a timing-model change
 * moves every digest). A deliberate metric change regenerates the
 * file by running the binary directly (not under ctest):
 *   PCSTALL_REGEN_GOLDEN=1 ./tests/test_zoo_metrics_golden
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu_config.hh"
#include "obs/context.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"
#include "zoo/registry.hh"

using namespace pcstall;

namespace
{

constexpr std::uint32_t kCus = 4;
constexpr double kScale = 0.1;
const char *const kWorkloads[] = {"comd", "xsbench"};

/** Chain every Deterministic-kind metric of @p snap into @p h. */
void
mixMetrics(std::uint64_t &h, const obs::MetricsSnapshot &snap)
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    auto mixd = [&mix](double v) {
        mix(std::bit_cast<std::uint64_t>(v));
    };
    auto mix_name = [&mix](const std::string &name) {
        mix(name.size());
        for (const char c : name)
            mix(static_cast<unsigned char>(c));
    };
    auto deterministic = [&snap](const std::string &name) {
        return snap.kindOf(name) == obs::MetricKind::Deterministic;
    };

    for (const auto &[name, value] : snap.counters) {
        if (!deterministic(name))
            continue;
        mix_name(name);
        mix(value);
    }
    mix(0xC0);
    for (const auto &[name, value] : snap.gauges) {
        if (!deterministic(name))
            continue;
        mix_name(name);
        mixd(value);
    }
    mix(0x6A);
    for (const auto &[name, hist] : snap.histograms) {
        if (!deterministic(name))
            continue;
        mix_name(name);
        mix(hist.count);
        mixd(hist.sum);
        mixd(hist.min);
        mixd(hist.max);
        mix(hist.buckets.size());
        for (const auto &[bucket, count] : hist.buckets) {
            mix(static_cast<std::uint64_t>(bucket));
            mix(count);
        }
        mix(hist.overflow);
    }
}

/** Run @p design on every golden workload, each run in a fresh
 *  registry; returns the chained metric digest. */
std::uint64_t
designDigest(const std::string &design)
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = kCus;
    cfg.scaled();
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char *workload : kWorkloads) {
        workloads::WorkloadParams params;
        params.numCus = kCus;
        params.scale = kScale;
        auto app = std::make_shared<const isa::Application>(
            workloads::makeWorkload(workload, params));
        obs::RunContext run(design + "/" + workload);
        {
            const obs::ScopedContext scope(run);
            // Constructors record metrics too (DSO's static kernel
            // count), so the controller is built inside the scope.
            auto made = dvfs::ControllerRegistry::instance().make(
                design, cfg, app.get());
            EXPECT_TRUE(made.ok()) << made.error;
            if (!made.ok())
                return 0;
            sim::ExperimentDriver driver(cfg);
            const sim::RunResult r = driver.run(app, *made.controller);
            EXPECT_TRUE(r.completed) << design << " on " << workload;
        }
        mixMetrics(h, run.registry.snapshot());
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const std::string kGoldenPath =
    std::string(PCSTALL_TEST_DATA_DIR) + "/zoo_metrics_golden.txt";

const std::string kVersionTag = "# modelVersion ";

/** The golden file: digests keyed by design, and the
 *  gpu::modelVersion they were recorded under (0 = not recorded). */
struct Golden
{
    std::uint32_t modelVersion = 0;
    std::map<std::string, std::string> lines;
};

Golden
readGolden()
{
    Golden out;
    std::ifstream in(kGoldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(kVersionTag, 0) == 0) {
            out.modelVersion = static_cast<std::uint32_t>(
                std::stoul(line.substr(kVersionTag.size())));
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string design, digest;
        fields >> design >> digest;
        out.lines[design] = digest;
    }
    return out;
}

void
writeGolden(const Golden &golden)
{
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# design digest (tests/test_zoo_metrics_golden.cc)\n"
        << kVersionTag << golden.modelVersion << '\n';
    for (const auto &[design, digest] : golden.lines)
        out << design << ' ' << digest << '\n';
}

/** Metrics on for the test's span, restored after. */
class ZooMetricsGolden : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        wasEnabled = obs::metricsEnabled();
        obs::setMetricsEnabled(true);
    }
    void TearDown() override { obs::setMetricsEnabled(wasEnabled); }

  private:
    bool wasEnabled = false;
};

} // namespace

TEST_F(ZooMetricsGolden, EveryDesignMatchesRecordedDigest)
{
    const std::vector<std::string> designs =
        dvfs::ControllerRegistry::instance().tournamentNames();
    ASSERT_EQ(designs.size(), 12u);

    Golden golden = readGolden();
    const bool regen = std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr;
    if (!regen) {
        EXPECT_EQ(golden.modelVersion, gpu::modelVersion)
            << kGoldenPath << " was recorded under another "
            << "gpu::modelVersion; regenerate it with "
            << "PCSTALL_REGEN_GOLDEN=1";
    }
    for (const std::string &design : designs) {
        const std::string got = hex(designDigest(design));
        if (regen) {
            golden.lines[design] = got;
            continue;
        }
        const auto it = golden.lines.find(design);
        if (it == golden.lines.end()) {
            ADD_FAILURE() << design << " missing from " << kGoldenPath
                          << "; regenerate with PCSTALL_REGEN_GOLDEN=1";
            continue;
        }
        EXPECT_EQ(got, it->second)
            << design << ": the design's metrics changed";
    }
    if (regen && !HasFailure()) {
        golden.modelVersion = gpu::modelVersion;
        writeGolden(golden);
    }
}
