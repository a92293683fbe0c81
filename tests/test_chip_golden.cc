/**
 * @file
 * Chip-state golden digests for the timing model. Each case drives a
 * bare GpuChip epoch by epoch under a fixed per-CU DVFS schedule and
 * chains every boundary's stateFingerprint() and harvested
 * EpochRecord counters into one digest per (row, workload). Any
 * change to event order, issue, wake or memory timing moves a digest,
 * so a byte-identical refactor of the event loop must leave every
 * line of tests/data/chip_state_golden.txt unchanged.
 *
 * Rows cover the 4-CU figure chip run to completion, the paper's
 * 64-CU / 16-bank chip over its first epochs, and 4-CU variants that
 * move the boundary between CU-private and shared steps (MSHR depth,
 * store write combining, SIMD count) or widen every wave-slot mask
 * past one 64-bit word (80 slots per CU).
 *
 * Regenerate after a deliberate model change by running the binary
 * directly (each case rewrites its own lines, so do not use ctest -j):
 *   PCSTALL_REGEN_GOLDEN=1 ./tests/test_chip_golden
 */

#include <gtest/gtest.h>

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
#include "gpu/gpu_chip.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

namespace
{

/** One chip configuration of the golden grid. */
struct Row
{
    const char *name;
    std::uint32_t cus;
    /** Epoch cap; rows meant to finish must finish within it. */
    std::size_t maxEpochs;
    bool mustFinish;
    void (*tweak)(gpu::GpuConfig &);
};

const Row kRows[] = {
    {"cu4", 4, 50000, true, [](gpu::GpuConfig &) {}},
    {"cu64_10ep", 64, 10, false, [](gpu::GpuConfig &) {}},
    {"cu4_mshr4", 4, 50000, true,
     [](gpu::GpuConfig &c) { c.mem.maxOutstandingPerCu = 4; }},
    {"cu4_nocombine", 4, 50000, true,
     [](gpu::GpuConfig &c) { c.mem.storeCombining = false; }},
    {"cu4_simd1", 4, 50000, true,
     [](gpu::GpuConfig &c) { c.simdsPerCu = 1; }},
    {"cu4_simd2", 4, 50000, true,
     [](gpu::GpuConfig &c) { c.simdsPerCu = 2; }},
    // 80 resident waves per CU: every wave-slot mask spans two words.
    {"cu4_slots80", 4, 50000, true,
     [](gpu::GpuConfig &c) { c.waveSlotsPerCu = 80; }},
};

constexpr double kScale = 0.1;

void
mixRecord(std::uint64_t &h, const gpu::EpochRecord &rec)
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(static_cast<std::uint64_t>(rec.start));
    mix(static_cast<std::uint64_t>(rec.end));
    for (const gpu::CuEpochRecord &cu : rec.cus) {
        mix(cu.committed);
        mix(cu.vmemLoads);
        mix(cu.vmemStores);
        mix(static_cast<std::uint64_t>(cu.busy));
        mix(static_cast<std::uint64_t>(cu.loadStall));
        mix(static_cast<std::uint64_t>(cu.storeStall));
        mix(static_cast<std::uint64_t>(cu.leadLoad));
        mix(static_cast<std::uint64_t>(cu.memInterval));
        mix(static_cast<std::uint64_t>(cu.overlap));
        mix(cu.mem.l1Hits);
        mix(cu.mem.l1Misses);
        mix(cu.mem.l2Hits);
        mix(cu.mem.l2Misses);
        mix(cu.mem.stores);
        mix(cu.mem.storesCombined);
        mix(cu.freq);
    }
    mix(rec.waves.size());
    for (const gpu::WaveEpochRecord &w : rec.waves) {
        mix(w.cu);
        mix(w.slot);
        mix(w.startPc);
        mix(w.startPcAddr);
        mix(w.committed);
        mix(static_cast<std::uint64_t>(w.memStall));
        mix(static_cast<std::uint64_t>(w.barrierStall));
        mix(w.ageRank);
        mix(w.active ? 1 : 0);
    }
}

/**
 * Run @p workload on @p row's chip with 1 µs epochs. After epoch e,
 * CU c moves to V/f state (3e + c) mod 10; the transition latency
 * alternates between the paper's 1 µs value and 0 (the value oracle
 * samples use).
 */
std::uint64_t
chipDigest(const std::string &workload, const Row &row)
{
    gpu::GpuConfig gpu_cfg;
    power::PowerParams power;
    sim::scaleToCus(gpu_cfg, power, row.cus);
    row.tweak(gpu_cfg);

    workloads::WorkloadParams params;
    params.numCus = row.cus;
    params.scale = kScale;
    auto app = std::make_shared<const isa::Application>(
        workloads::makeWorkload(workload, params));
    gpu::GpuChip chip(gpu_cfg, app);
    const power::VfTable table = power::VfTable::paperTable();

    std::uint64_t h = 0xCBF29CE484222325ULL;
    gpu::EpochRecord rec;
    std::size_t epoch = 0;
    bool done = false;
    while (!done && epoch < row.maxEpochs) {
        const Tick start = chip.now();
        done = chip.runUntil(start + tickUs);
        // Verify builds shadow-check after every CU step; this runs
        // the same check once per epoch in every build.
        chip.verifyDerivedState();
        h = hashCombine(h, chip.stateFingerprint());
        chip.harvestEpoch(start, rec);
        mixRecord(h, rec);
        const Tick trans =
            epoch % 2 == 0 ? gpu::transitionLatencyFor(tickUs) : 0;
        for (std::uint32_t c = 0; c < row.cus; ++c) {
            const std::size_t s = (3 * epoch + c) % table.numStates();
            chip.setCuFrequency(c, table.state(s).freq, trans);
        }
        ++epoch;
    }
    EXPECT_TRUE(done || !row.mustFinish)
        << row.name << " did not finish in " << row.maxEpochs
        << " epochs";
    h = hashCombine(h, epoch);
    h = hashCombine(h, done ? 1 : 0);
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
    std::string(PCSTALL_TEST_DATA_DIR) + "/chip_state_golden.txt";

/** Golden lines keyed by "row workload". */
std::map<std::string, std::string>
readGolden()
{
    std::map<std::string, std::string> out;
    std::ifstream in(kGoldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string row, workload, digest;
        fields >> row >> workload >> digest;
        out[row + " " + workload] = digest;
    }
    return out;
}

void
writeGolden(const std::map<std::string, std::string> &lines)
{
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# row workload digest (tests/test_chip_golden.cc)\n";
    for (const auto &[key, digest] : lines)
        out << key << ' ' << digest << '\n';
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const workloads::WorkloadInfo &info : workloads::workloadTable())
        names.push_back(info.name);
    return names;
}

class ChipStateGolden : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(ChipStateGolden, MatchesRecordedDigests)
{
    const std::string &workload = GetParam();
    std::map<std::string, std::string> golden = readGolden();
    const bool regen = std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr;
    for (const Row &row : kRows) {
        const std::string key = std::string(row.name) + " " + workload;
        const std::string got = hex(chipDigest(workload, row));
        if (regen) {
            golden[key] = got;
            continue;
        }
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end())
            << key << " missing from " << kGoldenPath
            << "; regenerate with PCSTALL_REGEN_GOLDEN=1";
        EXPECT_EQ(got, it->second)
            << key << ": the timing model's behaviour changed";
    }
    if (regen) {
        writeGolden(golden);
        GTEST_SKIP() << "regenerated " << workload << " in "
                     << kGoldenPath;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ChipStateGolden, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
