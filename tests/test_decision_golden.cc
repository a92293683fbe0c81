/**
 * @file
 * Decision golden digests: every tournament design under every
 * objective, run end to end on comd and xsbench (4 CUs, scale 0.1)
 * with the per-epoch trace and hindsight-regret auditing on. Each
 * (objective, design) pair chains both runs into one digest in
 * tests/data/decision_golden.txt. The digests cover what the
 * selection step decided (every epoch's per-domain V/f state), what
 * it predicted (accuracy), what the run cost (time, energy,
 * transitions) and the ledger's regret rollup, so a refactor of the
 * shared selection path - objective scorer, decision builder,
 * divergence watchdog - must leave every line unchanged.
 *
 * Three watchdog rows run PCSTALL, REGR and DSO (ED2P, scale 0.25)
 * with the divergence watchdog armed under heavy telemetry noise
 * (sigma 0.8); each must trip, so the digests also pin the fallback
 * path.
 *
 * The file's header records gpu::modelVersion (a timing-model change
 * moves every digest). A deliberate behaviour change regenerates the
 * file by running the binary directly (each case rewrites its own
 * lines, so do not use ctest):
 *   PCSTALL_REGEN_GOLDEN=1 ./tests/test_decision_golden
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dvfs/objective.hh"
#include "gpu/gpu_config.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"
#include "zoo/registry.hh"

using namespace pcstall;

namespace pcstall::dvfs
{

/** gtest prints the objective parameter by name. */
void
PrintTo(Objective objective, std::ostream *os)
{
    *os << objectiveName(objective);
}

} // namespace pcstall::dvfs

namespace
{

constexpr std::uint32_t kCus = 4;
constexpr double kScale = 0.1;
/** The watchdog rows run longer: at scale 0.1 REGR and DSO finish
 *  before three consecutive noisy epochs can trip them. */
constexpr double kWatchdogScale = 0.25;
const char *const kWorkloads[] = {"comd", "xsbench"};

sim::RunConfig
goldenConfig(dvfs::Objective objective)
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = kCus;
    cfg.objective = objective;
    cfg.collectTrace = true;
    cfg.auditRegret = true;
    cfg.scaled();
    return cfg;
}

/** Chain every decision-dependent field of @p r into @p h. */
void
mixResult(std::uint64_t &h, const sim::RunResult &r)
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    auto mixd = [&mix](double v) {
        mix(std::bit_cast<std::uint64_t>(v));
    };
    auto mix_faults = [&mix](const gpu::FaultEpochCounters &f) {
        mix(f.telemetryPerturbations);
        mix(f.telemetryDropouts);
        mix(f.transitionFailures);
        mix(static_cast<std::uint64_t>(f.transitionExtraLatency));
        mix(f.tableBitFlips);
        mix(f.clampedDecisions);
        mix(f.fallbackActive ? 1 : 0);
    };
    mix(r.completed ? 1 : 0);
    mix(r.epochs);
    mix(static_cast<std::uint64_t>(r.execTime));
    mixd(r.energy);
    mix(r.instructions);
    mixd(r.predictionAccuracy);
    mix(r.transitions);
    mixd(r.transitionEnergy);
    for (const double share : r.freqTimeShare)
        mixd(share);
    mixd(r.finalTemperature);

    const sim::FaultSummary &f = r.faults;
    mix(f.telemetryPerturbations);
    mix(f.telemetryDropouts);
    mix(f.transitionFailures);
    mix(static_cast<std::uint64_t>(f.transitionExtraLatency));
    mix(f.tableBitFlips);
    mix(f.tableScrubs);
    mix(f.clampedDecisions);
    mix(f.watchdogTrips);
    mix(f.fallbackEpochs);

    mix(r.trace.size());
    for (const sim::EpochTraceEntry &e : r.trace) {
        mix(static_cast<std::uint64_t>(e.start));
        for (const std::uint8_t s : e.domainState)
            mix(s);
        for (const double c : e.domainCommitted)
            mixd(c);
        mix_faults(e.faults);
    }

    mix(r.regret.count);
    mixd(r.regret.oracleSum);
    mixd(r.regret.oracleMax);
    mixd(r.regret.staticSum);
    for (const std::uint64_t b : r.regret.buckets)
        mix(b);
}

/** Run @p design on every golden workload at @p scale under @p cfg;
 *  returns the chained digest and adds the runs' watchdog trips to
 *  @p trips. */
std::uint64_t
designDigest(const std::string &design, const sim::RunConfig &cfg,
             double scale, std::uint64_t &trips)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char *workload : kWorkloads) {
        workloads::WorkloadParams params;
        params.numCus = kCus;
        params.scale = scale;
        auto app = std::make_shared<const isa::Application>(
            workloads::makeWorkload(workload, params));
        auto made = dvfs::ControllerRegistry::instance().make(
            design, cfg, app.get());
        EXPECT_TRUE(made.ok()) << made.error;
        if (!made.ok())
            return 0;
        sim::ExperimentDriver driver(cfg);
        const sim::RunResult r = driver.run(app, *made.controller);
        EXPECT_TRUE(r.completed) << design << " on " << workload;
        trips += r.faults.watchdogTrips;
        mixResult(h, r);
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
    std::string(PCSTALL_TEST_DATA_DIR) + "/decision_golden.txt";

const std::string kVersionTag = "# modelVersion ";

/** The golden file: digests keyed by "row design", and the
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
        std::string row, design, digest;
        fields >> row >> design >> digest;
        out.lines[row + " " + design] = digest;
    }
    return out;
}

void
writeGolden(const Golden &golden)
{
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# row design digest (tests/test_decision_golden.cc)\n"
        << kVersionTag << golden.modelVersion << '\n';
    for (const auto &[key, digest] : golden.lines)
        out << key << ' ' << digest << '\n';
}

/**
 * Check (or, under PCSTALL_REGEN_GOLDEN, record) one digest per
 * (@p row, design) for @p designs run at @p scale under @p cfg.
 * Returns the watchdog trips of each design, in @p designs order.
 */
std::vector<std::uint64_t>
checkRows(const std::string &row, const std::vector<std::string> &designs,
          const sim::RunConfig &cfg, double scale)
{
    Golden golden = readGolden();
    const bool regen = std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr;
    if (!regen) {
        EXPECT_EQ(golden.modelVersion, gpu::modelVersion)
            << kGoldenPath << " was recorded under another "
            << "gpu::modelVersion; regenerate it with "
            << "PCSTALL_REGEN_GOLDEN=1";
    }
    std::vector<std::uint64_t> trips;
    for (const std::string &design : designs) {
        trips.push_back(0);
        const std::string key = row + " " + design;
        const std::string got =
            hex(designDigest(design, cfg, scale, trips.back()));
        if (regen) {
            golden.lines[key] = got;
            continue;
        }
        const auto it = golden.lines.find(key);
        if (it == golden.lines.end()) {
            ADD_FAILURE() << key << " missing from " << kGoldenPath
                          << "; regenerate with PCSTALL_REGEN_GOLDEN=1";
            continue;
        }
        EXPECT_EQ(got, it->second)
            << key << ": the design's decisions changed";
    }
    if (regen && !::testing::Test::HasFailure()) {
        golden.modelVersion = gpu::modelVersion;
        writeGolden(golden);
    }
    return trips;
}

const dvfs::Objective kObjectives[] = {
    dvfs::Objective::Edp,
    dvfs::Objective::Ed2p,
    dvfs::Objective::Ed3p,
    dvfs::Objective::EnergyUnderPerfBound,
    dvfs::Objective::MarginalEdp,
    dvfs::Objective::MarginalEd2p,
};

/** A gtest-safe, whitespace-free row name for an objective. */
std::string
rowName(dvfs::Objective objective)
{
    switch (objective) {
      case dvfs::Objective::Edp: return "Edp";
      case dvfs::Objective::Ed2p: return "Ed2p";
      case dvfs::Objective::Ed3p: return "Ed3p";
      case dvfs::Objective::EnergyUnderPerfBound: return "PerfBound";
      case dvfs::Objective::MarginalEdp: return "MarginalEdp";
      case dvfs::Objective::MarginalEd2p: return "MarginalEd2p";
    }
    return "?";
}

class DecisionGolden : public ::testing::TestWithParam<dvfs::Objective>
{
};

} // namespace

TEST_P(DecisionGolden, EveryDesignMatchesRecordedDigest)
{
    const std::vector<std::string> designs =
        dvfs::ControllerRegistry::instance().tournamentNames();
    ASSERT_EQ(designs.size(), 12u);
    checkRows(rowName(GetParam()), designs, goldenConfig(GetParam()),
              kScale);
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, DecisionGolden, ::testing::ValuesIn(kObjectives),
    [](const ::testing::TestParamInfo<dvfs::Objective> &info) {
        return rowName(info.param);
    });

TEST(DecisionGoldenWatchdog, TripsUnderTelemetryNoiseAndMatches)
{
    sim::RunConfig cfg = goldenConfig(dvfs::Objective::Ed2p);
    cfg.watchdogFallback = true;
    cfg.faults.telemetry.enabled = true;
    cfg.faults.telemetry.sigma = 0.8;
    const std::vector<std::string> designs = {"PCSTALL", "REGR", "DSO"};
    const std::vector<std::uint64_t> trips =
        checkRows("Watchdog", designs, cfg, kWatchdogScale);
    for (std::size_t i = 0; i < designs.size(); ++i)
        EXPECT_GT(trips[i], 0u) << designs[i] << " never tripped";
}
