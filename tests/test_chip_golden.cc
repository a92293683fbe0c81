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
 * The sweep_cu4_20ep row pins the fork-pre-execute oracle: the cu4
 * chip under the same schedule, with one oracle sweep after each of
 * its first 20 epochs, digesting every estimate the sweep returns.
 * Its digests were recorded through per-sample deep copies of the
 * chip; the row reuses one snapshot pool across all 20 sweeps, once
 * serially and once each on 3- and 4-thread executors, and all must
 * match.
 *
 * The file's header records gpu::modelVersion, and every case fails
 * while the two differ. A deliberate model change bumps the constant
 * and regenerates the file in one run of the binary (each case
 * rewrites its own lines, so do not use ctest):
 *   PCSTALL_REGEN_GOLDEN=1 ./tests/test_chip_golden
 * Without the bump, regeneration refuses to rewrite a changed digest;
 * it only adds lines for new rows or workloads.
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
#include "dvfs/domain_map.hh"
#include "gpu/gpu_chip.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "sim/parallel_executor.hh"
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

/** @p row's chip running @p workload at the golden scale. */
gpu::GpuChip
makeChip(const std::string &workload, const Row &row)
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
    return gpu::GpuChip(gpu_cfg, app);
}

/**
 * The golden V/f schedule: after epoch @p epoch, CU c moves to state
 * (3 epoch + c) mod 10; the transition latency alternates between the
 * paper's 1 µs value and 0 (the value oracle samples use).
 */
void
applySchedule(gpu::GpuChip &chip, const power::VfTable &table,
              std::size_t epoch)
{
    const Tick trans =
        epoch % 2 == 0 ? gpu::transitionLatencyFor(tickUs) : 0;
    for (std::uint32_t c = 0; c < chip.config().numCus; ++c) {
        const std::size_t s = (3 * epoch + c) % table.numStates();
        chip.setCuFrequency(c, table.state(s).freq, trans);
    }
}

/** Run @p workload on @p row's chip with 1 µs epochs under the
 *  golden schedule. */
std::uint64_t
chipDigest(const std::string &workload, const Row &row)
{
    gpu::GpuChip chip = makeChip(workload, row);
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
        applySchedule(chip, table, epoch);
        ++epoch;
    }
    EXPECT_TRUE(done || !row.mustFinish)
        << row.name << " did not finish in " << row.maxEpochs
        << " epochs";
    h = hashCombine(h, epoch);
    h = hashCombine(h, done ? 1 : 0);
    return h;
}

constexpr const char *kSweepRow = "sweep_cu4_20ep";
constexpr std::size_t kSweepEpochs = 20;

/**
 * Drive the cu4 chip under the golden schedule and, after each of its
 * first kSweepEpochs epochs, run one oracle sweep (shuffled, wave
 * level, 1-CU domains) over the next epoch, restoring from one pool
 * reused across every sweep and sampling on @p executor (null =
 * serial). Every per-domain I(f) point and wave fit is mixed in bit
 * for bit, with the base chip's fingerprint after the sweep.
 */
std::uint64_t
sweepDigest(const std::string &workload,
            sim::ParallelExecutor *executor)
{
    oracle::SnapshotPool pool;
    oracle::SweepOptions opts;
    opts.pool = &pool;
    opts.executor = executor;
    const Row &row = kRows[0];
    gpu::GpuChip chip = makeChip(workload, row);
    const power::VfTable table = power::VfTable::paperTable();
    const dvfs::DomainMap domains(row.cus, 1);

    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    gpu::EpochRecord rec;
    std::size_t epoch = 0;
    for (; epoch < kSweepEpochs; ++epoch) {
        const Tick start = chip.now();
        if (chip.runUntil(start + tickUs))
            break;
        chip.harvestEpoch(start, rec);
        const dvfs::AccurateEstimates est = oracle::forkPreExecuteSweep(
            chip, domains, table, tickUs, opts);
        mix(chip.stateFingerprint());
        for (const std::vector<double> &curve : est.domainInstr)
            for (double instr : curve)
                mix(std::bit_cast<std::uint64_t>(instr));
        mix(est.waves.size());
        for (const dvfs::AccurateEstimates::WaveSens &w : est.waves) {
            mix(w.cu);
            mix(w.slot);
            mix(w.startPcAddr);
            mix(std::bit_cast<std::uint64_t>(w.sensitivity));
            mix(std::bit_cast<std::uint64_t>(w.level));
            mix(w.ageRank);
        }
        applySchedule(chip, table, epoch);
    }
    mix(epoch);
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

const std::string kVersionTag = "# modelVersion ";

/** The golden file: digests keyed by "row workload", and the
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
        std::string row, workload, digest;
        fields >> row >> workload >> digest;
        out.lines[row + " " + workload] = digest;
    }
    return out;
}

void
writeGolden(const Golden &golden)
{
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# row workload digest (tests/test_chip_golden.cc)\n"
        << kVersionTag << golden.modelVersion << '\n';
    for (const auto &[key, digest] : golden.lines)
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
    Golden golden = readGolden();
    const bool regen = std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr;
    // Regeneration rewrites the header as soon as its first case
    // finishes, so whether the constant was bumped is judged against
    // the version the file held when this run started.
    static const std::uint32_t recorded_version = golden.modelVersion;
    const bool bumped = recorded_version != gpu::modelVersion;
    if (!regen) {
        ASSERT_EQ(golden.modelVersion, gpu::modelVersion)
            << kGoldenPath << " was recorded under another "
            << "gpu::modelVersion; regenerate it with "
            << "PCSTALL_REGEN_GOLDEN=1";
    }
    // Check @p got against the recorded line (regen: record it).
    auto expect = [&](const std::string &key, const std::string &got,
                      const char *what) {
        const auto it = golden.lines.find(key);
        if (regen) {
            if (it != golden.lines.end() && it->second != got &&
                !bumped) {
                ADD_FAILURE()
                    << key << ": " << what << "; refusing to rewrite "
                    << "its digest until gpu::modelVersion is bumped";
                return;
            }
            golden.lines[key] = got;
            return;
        }
        ASSERT_NE(it, golden.lines.end())
            << key << " missing from " << kGoldenPath
            << "; regenerate with PCSTALL_REGEN_GOLDEN=1";
        EXPECT_EQ(got, it->second) << key << ": " << what;
    };
    for (const Row &row : kRows) {
        expect(std::string(row.name) + " " + workload,
               hex(chipDigest(workload, row)),
               "the timing model's behaviour changed");
    }
    const std::string sweep_key = std::string(kSweepRow) + " " + workload;
    expect(sweep_key, hex(sweepDigest(workload, nullptr)),
           "the oracle sweep's estimates changed");
    if (!regen) {
        // 3 threads split the 10 samples into lanes of 4, 3 and 3.
        for (const unsigned threads : {3u, 4u}) {
            sim::ParallelExecutor exec(threads);
            expect(sweep_key, hex(sweepDigest(workload, &exec)),
                   "the parallel sweep diverged");
        }
    }
    if (regen) {
        if (HasFailure())
            return;
        golden.modelVersion = gpu::modelVersion;
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
