#include "trace/format.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "dvfs/objective.hh"
#include "obs/metrics.hh"
#include "store/atomic_file.hh"
#include "trace/sealed.hh"

namespace pcstall::trace
{

namespace
{

/** Section tags. */
enum SectionTag : std::uint8_t
{
    tagMeta = 1,
    tagFrame = 2,
    tagPcSnapshot = 3,
    tagEnd = 4,
};

/** Sanity ceilings a well-formed file never exceeds. */
constexpr std::uint64_t maxCus = 1 << 16;
constexpr std::uint64_t maxWaveSlots = 1 << 12;
constexpr std::uint64_t maxVfStates = 1 << 10;

constexpr SealedFormat traceFormat{"PCTR", traceFormatVersion, tagEnd};

// --- META -----------------------------------------------------------

std::string
encodeMeta(const TraceMeta &meta)
{
    std::string out;
    putString(out, meta.workload);
    putDouble(out, meta.workloadScale);
    putFixed64(out, meta.workloadSeed);
    putString(out, meta.controller);
    out.push_back(static_cast<char>(meta.sweepNeed));
    putBool(out, meta.waveLevel);
    putBool(out, meta.hierarchical.enabled);
    putDouble(out, meta.hierarchical.powerCap);
    putVarint(out, meta.hierarchical.reviewEpochs);
    putDouble(out, meta.hierarchical.widenBelow);
    return out + encodeRunConfigImage(meta);
}

std::string
decodeMeta(Cursor &cur, TraceMeta &meta)
{
    meta.workload = cur.getString();
    meta.workloadScale = cur.getDouble();
    meta.workloadSeed = cur.fixed64();
    meta.controller = cur.getString();
    meta.sweepNeed = cur.u8();
    meta.waveLevel = cur.getBool();
    meta.hierarchical.enabled = cur.getBool();
    meta.hierarchical.powerCap = cur.getDouble();
    meta.hierarchical.reviewEpochs =
        static_cast<std::uint32_t>(cur.varint());
    meta.hierarchical.widenBelow = cur.getDouble();

    meta.numCus = static_cast<std::uint32_t>(cur.varint());
    meta.waveSlotsPerCu = static_cast<std::uint32_t>(cur.varint());
    meta.cusPerDomain = static_cast<std::uint32_t>(cur.varint());
    meta.epochLen = cur.zigzag();
    meta.objective = cur.u8();
    meta.perfDegradationLimit = cur.getDouble();
    meta.nominalFreq = cur.varint();
    meta.maxSimTime = cur.zigzag();
    meta.transitionLatency = cur.zigzag();
    meta.collectTrace = cur.getBool();
    meta.watchdogFallback = cur.getBool();
    meta.eccProtectTables = cur.getBool();

    power::PowerParams &p = meta.power;
    for (double *v : {&p.eInst, &p.eL1, &p.eL2, &p.eDram, &p.cClk,
                      &p.leakPerCu, &p.leakTempCoeff, &p.tRef,
                      &p.memStatic, &p.etaPeak, &p.etaVopt, &p.etaSlope,
                      &p.transitionCap, &p.transitionFixed}) {
        *v = cur.getDouble();
    }

    faults::FaultConfig &f = meta.faults;
    f.seed = cur.fixed64();
    f.dvfs.enabled = cur.getBool();
    f.dvfs.transitionFailProb = cur.getDouble();
    f.dvfs.extraSwitchLatency = cur.zigzag();
    f.dvfs.granularity = cur.varint();
    f.telemetry.enabled = cur.getBool();
    f.telemetry.sigma = cur.getDouble();
    f.telemetry.dropoutProb = cur.getDouble();
    f.storage.enabled = cur.getBool();
    f.storage.upsetsPerEpoch = cur.getDouble();

    const std::uint64_t num_states = cur.varint();
    if (cur.failed() || num_states == 0 || num_states > maxVfStates)
        return "corrupt trace meta (V/f table)";
    meta.vfStates.resize(num_states);
    Freq prev_freq = 0;
    for (power::VfState &s : meta.vfStates) {
        s.freq = cur.varint();
        s.voltage = cur.getDouble();
        if (!cur.failed() && s.freq <= prev_freq)
            return "corrupt trace meta (V/f table not ascending)";
        prev_freq = s.freq;
    }
    if (cur.failed() || !cur.atEnd())
        return "corrupt trace meta section";
    if (meta.numCus == 0 || meta.numCus > maxCus ||
        meta.waveSlotsPerCu == 0 ||
        meta.waveSlotsPerCu > maxWaveSlots ||
        meta.cusPerDomain == 0 ||
        meta.numCus % meta.cusPerDomain != 0) {
        return "corrupt trace meta (GPU geometry)";
    }
    if (meta.epochLen <= 0)
        return "corrupt trace meta (epoch length)";
    if (!std::isfinite(meta.workloadScale) || meta.workloadScale < 0.0)
        return "corrupt trace meta (workload scale)";
    if (meta.sweepNeed >
        static_cast<std::uint8_t>(dvfs::SweepNeed::Upcoming)) {
        return "corrupt trace meta (sweep kind)";
    }
    if (meta.objective >
        static_cast<std::uint8_t>(dvfs::Objective::MarginalEd2p)) {
        return "corrupt trace meta (objective)";
    }
    bool nominal_found = false;
    for (const power::VfState &s : meta.vfStates)
        nominal_found = nominal_found || s.freq == meta.nominalFreq;
    if (!nominal_found)
        return "corrupt trace meta (nominal frequency not in table)";
    return "";
}

// --- FRAME ----------------------------------------------------------

/** Frame flag bits. */
constexpr std::uint8_t flagDone = 1;
constexpr std::uint8_t flagSweep = 2;

std::string
encodeFrame(const EpochFrame &frame, Tick prev_end)
{
    std::string out;
    std::uint8_t flags = 0;
    if (frame.done)
        flags |= flagDone;
    if (frame.hasSweep)
        flags |= flagSweep;
    out.push_back(static_cast<char>(flags));
    putZigzag(out, frame.start - prev_end);
    putVarint(out, static_cast<std::uint64_t>(frame.end - frame.start));
    putVarint(out,
              static_cast<std::uint64_t>(frame.end - frame.accountedEnd));

    const gpu::EpochRecord &r = frame.record;
    putZigzag(out, r.start - frame.start);
    putZigzag(out, r.end - frame.end);
    putVarint(out, r.cus.size());
    for (const gpu::CuEpochRecord &cu : r.cus) {
        putVarint(out, cu.committed);
        putVarint(out, cu.vmemLoads);
        putVarint(out, cu.vmemStores);
        putZigzag(out, cu.busy);
        putZigzag(out, cu.loadStall);
        putZigzag(out, cu.storeStall);
        putZigzag(out, cu.leadLoad);
        putZigzag(out, cu.memInterval);
        putZigzag(out, cu.overlap);
        putVarint(out, cu.mem.l1Hits);
        putVarint(out, cu.mem.l1Misses);
        putVarint(out, cu.mem.l2Hits);
        putVarint(out, cu.mem.l2Misses);
        putVarint(out, cu.mem.stores);
        putVarint(out, cu.mem.storesCombined);
        putVarint(out, cu.freq);
    }
    putVarint(out, r.waves.size());
    for (const gpu::WaveEpochRecord &w : r.waves) {
        putVarint(out, w.cu);
        putVarint(out, w.slot);
        putVarint(out, w.startPc);
        putVarint(out, w.startPcAddr);
        putVarint(out, w.committed);
        putZigzag(out, w.memStall);
        putZigzag(out, w.barrierStall);
        putVarint(out, w.ageRank);
        putBool(out, w.active);
    }

    putVarint(out, frame.snapshots.size());
    for (const gpu::WaveSnapshot &s : frame.snapshots) {
        putVarint(out, s.cu);
        putVarint(out, s.slot);
        putVarint(out, s.pc);
        putVarint(out, s.pcAddr);
        putVarint(out, s.ageRank);
    }

    putVarint(out, frame.decisions.size());
    for (const FrameDecision &d : frame.decisions) {
        putVarint(out, d.decided);
        putDouble(out, d.predictedInstr);
        putVarint(out, d.applied);
    }

    if (frame.hasSweep) {
        const dvfs::AccurateEstimates &sw = frame.sweep;
        putVarint(out, sw.domainInstr.size());
        putVarint(out, sw.domainInstr.empty()
                           ? 0 : sw.domainInstr.front().size());
        for (const auto &row : sw.domainInstr) {
            for (double v : row)
                putDouble(out, v);
        }
        putVarint(out, sw.waves.size());
        for (const dvfs::AccurateEstimates::WaveSens &w : sw.waves) {
            putVarint(out, w.cu);
            putVarint(out, w.slot);
            putVarint(out, w.startPcAddr);
            putDouble(out, w.sensitivity);
            putDouble(out, w.level);
            putVarint(out, w.ageRank);
        }
    }
    return out;
}

std::string
decodeFrame(Cursor &cur, const TraceMeta &meta, Tick prev_end,
            EpochFrame &frame)
{
    const std::uint8_t flags = cur.u8();
    if (flags & ~(flagDone | flagSweep))
        return "unknown frame flags";
    frame.done = (flags & flagDone) != 0;
    frame.hasSweep = (flags & flagSweep) != 0;
    frame.start = prev_end + cur.zigzag();
    frame.end = frame.start + static_cast<Tick>(cur.varint());
    frame.accountedEnd = frame.end - static_cast<Tick>(cur.varint());
    if (cur.failed() || frame.end <= frame.start ||
        frame.accountedEnd < frame.start) {
        return "corrupt frame timestamps";
    }

    gpu::EpochRecord &r = frame.record;
    r.start = frame.start + cur.zigzag();
    r.end = frame.end + cur.zigzag();
    const std::uint64_t num_cus = cur.varint();
    if (cur.failed() || num_cus != meta.numCus)
        return "frame CU count does not match the trace meta";
    r.cus.resize(num_cus);
    for (gpu::CuEpochRecord &cu : r.cus) {
        cu.committed = cur.varint();
        cu.vmemLoads = cur.varint();
        cu.vmemStores = cur.varint();
        cu.busy = cur.zigzag();
        cu.loadStall = cur.zigzag();
        cu.storeStall = cur.zigzag();
        cu.leadLoad = cur.zigzag();
        cu.memInterval = cur.zigzag();
        cu.overlap = cur.zigzag();
        cu.mem.l1Hits = cur.varint();
        cu.mem.l1Misses = cur.varint();
        cu.mem.l2Hits = cur.varint();
        cu.mem.l2Misses = cur.varint();
        cu.mem.stores = cur.varint();
        cu.mem.storesCombined = cur.varint();
        cu.freq = cur.varint();
    }
    const std::uint64_t max_waves =
        static_cast<std::uint64_t>(meta.numCus) * meta.waveSlotsPerCu;
    const std::uint64_t num_waves = cur.varint();
    if (cur.failed() || num_waves > max_waves)
        return "corrupt frame (wave record count)";
    r.waves.resize(num_waves);
    for (gpu::WaveEpochRecord &w : r.waves) {
        w.cu = static_cast<std::uint32_t>(cur.varint());
        w.slot = static_cast<std::uint32_t>(cur.varint());
        w.startPc = static_cast<std::uint32_t>(cur.varint());
        w.startPcAddr = cur.varint();
        w.committed = cur.varint();
        w.memStall = cur.zigzag();
        w.barrierStall = cur.zigzag();
        w.ageRank = static_cast<std::uint32_t>(cur.varint());
        w.active = cur.getBool();
        if (!cur.failed() &&
            (w.cu >= meta.numCus || w.slot >= meta.waveSlotsPerCu)) {
            return "corrupt frame (wave record out of geometry)";
        }
    }

    const std::uint64_t num_snaps = cur.varint();
    if (cur.failed() || num_snaps > max_waves)
        return "corrupt frame (wave snapshot count)";
    frame.snapshots.resize(num_snaps);
    for (gpu::WaveSnapshot &s : frame.snapshots) {
        s.cu = static_cast<std::uint32_t>(cur.varint());
        s.slot = static_cast<std::uint32_t>(cur.varint());
        s.pc = static_cast<std::uint32_t>(cur.varint());
        s.pcAddr = cur.varint();
        s.ageRank = static_cast<std::uint32_t>(cur.varint());
        if (!cur.failed() &&
            (s.cu >= meta.numCus || s.slot >= meta.waveSlotsPerCu)) {
            return "corrupt frame (wave snapshot out of geometry)";
        }
    }

    const std::uint64_t num_decisions = cur.varint();
    if (cur.failed() ||
        num_decisions != (frame.done ? 0u : meta.numDomains())) {
        return "corrupt frame (decision count)";
    }
    frame.decisions.resize(num_decisions);
    for (FrameDecision &d : frame.decisions) {
        d.decided = static_cast<std::size_t>(cur.varint());
        d.predictedInstr = cur.getDouble();
        d.applied = static_cast<std::size_t>(cur.varint());
        if (!cur.failed() && (d.decided >= meta.vfStates.size() ||
                              d.applied >= meta.vfStates.size())) {
            return "corrupt frame (decision state out of table)";
        }
    }

    if (frame.hasSweep) {
        const std::uint64_t num_domains = cur.varint();
        const std::uint64_t num_states = cur.varint();
        if (cur.failed() || num_domains != meta.numDomains() ||
            num_states != meta.vfStates.size()) {
            return "corrupt frame (sweep geometry)";
        }
        frame.sweep.domainInstr.assign(
            num_domains, std::vector<double>(num_states, 0.0));
        for (auto &row : frame.sweep.domainInstr) {
            for (double &v : row)
                v = cur.getDouble();
        }
        // Sweep sensitivities are keyed on (cu, slot, startPcAddr) -
        // wave turnover means one slot can contribute several entries
        // per epoch, so slot capacity is NOT an upper bound here.
        // Guard the allocation with the bytes actually present
        // instead: each entry encodes >= 4 varint bytes + 2 doubles.
        const std::uint64_t num_sens = cur.varint();
        if (cur.failed() || num_sens > cur.remaining() / 20)
            return "corrupt frame (sweep wave count)";
        frame.sweep.waves.resize(num_sens);
        for (dvfs::AccurateEstimates::WaveSens &w : frame.sweep.waves) {
            w.cu = static_cast<std::uint32_t>(cur.varint());
            w.slot = static_cast<std::uint32_t>(cur.varint());
            w.startPcAddr = cur.varint();
            w.sensitivity = cur.getDouble();
            w.level = cur.getDouble();
            w.ageRank = static_cast<std::uint32_t>(cur.varint());
        }
    }

    if (cur.failed() || !cur.atEnd())
        return "corrupt frame section";
    return "";
}

// --- END ------------------------------------------------------------

std::string
encodeTrailer(const TraceTrailer &trailer)
{
    std::string out;
    putVarint(out, trailer.frameCount);
    putZigzag(out, trailer.lastCommitTick);
    putVarint(out, trailer.totalCommitted);
    putBool(out, trailer.completed);
    putDouble(out, trailer.captureWallMs);
    return out;
}

bool
decodeTrailer(Cursor cur, TraceTrailer &trailer)
{
    trailer.frameCount = cur.varint();
    trailer.lastCommitTick = cur.zigzag();
    trailer.totalCommitted = cur.varint();
    trailer.completed = cur.getBool();
    trailer.captureWallMs = cur.getDouble();
    return !cur.failed() && cur.atEnd();
}

} // namespace

std::string
encodeRunConfigImage(const TraceMeta &meta)
{
    std::string out;
    putVarint(out, meta.numCus);
    putVarint(out, meta.waveSlotsPerCu);
    putVarint(out, meta.cusPerDomain);
    putZigzag(out, meta.epochLen);
    out.push_back(static_cast<char>(meta.objective));
    putDouble(out, meta.perfDegradationLimit);
    putVarint(out, meta.nominalFreq);
    putZigzag(out, meta.maxSimTime);
    putZigzag(out, meta.transitionLatency);
    putBool(out, meta.collectTrace);
    putBool(out, meta.watchdogFallback);
    putBool(out, meta.eccProtectTables);

    const power::PowerParams &p = meta.power;
    for (double v : {p.eInst, p.eL1, p.eL2, p.eDram, p.cClk,
                     p.leakPerCu, p.leakTempCoeff, p.tRef, p.memStatic,
                     p.etaPeak, p.etaVopt, p.etaSlope, p.transitionCap,
                     p.transitionFixed}) {
        putDouble(out, v);
    }

    const faults::FaultConfig &f = meta.faults;
    putFixed64(out, f.seed);
    putBool(out, f.dvfs.enabled);
    putDouble(out, f.dvfs.transitionFailProb);
    putZigzag(out, f.dvfs.extraSwitchLatency);
    putVarint(out, f.dvfs.granularity);
    putBool(out, f.telemetry.enabled);
    putDouble(out, f.telemetry.sigma);
    putDouble(out, f.telemetry.dropoutProb);
    putBool(out, f.storage.enabled);
    putDouble(out, f.storage.upsetsPerEpoch);

    putVarint(out, meta.vfStates.size());
    for (const power::VfState &s : meta.vfStates) {
        putVarint(out, s.freq);
        putDouble(out, s.voltage);
    }
    return out;
}

TraceMeta
makeTraceMeta(const sim::RunConfig &config, const power::VfTable &table,
              const std::string &workload,
              const dvfs::DvfsController &controller,
              const HierarchicalMeta &hier)
{
    TraceMeta meta = makeTraceMeta(config, table);
    meta.workload = workload;
    meta.controller = controller.name();
    meta.sweepNeed = static_cast<std::uint8_t>(controller.sweepNeed());
    meta.waveLevel = controller.needsWaveLevel();
    meta.hierarchical = hier;
    return meta;
}

TraceMeta
makeTraceMeta(const sim::RunConfig &config, const power::VfTable &table)
{
    TraceMeta meta;
    meta.numCus = config.gpu.numCus;
    meta.waveSlotsPerCu = config.gpu.waveSlotsPerCu;
    meta.cusPerDomain = config.cusPerDomain;
    meta.epochLen = config.epochLen;
    meta.objective = static_cast<std::uint8_t>(config.objective);
    meta.perfDegradationLimit = config.perfDegradationLimit;
    meta.nominalFreq = config.nominalFreq;
    meta.maxSimTime = config.maxSimTime;
    meta.transitionLatency = config.transitionLatency;
    meta.collectTrace = config.collectTrace;
    meta.watchdogFallback = config.watchdogFallback;
    meta.eccProtectTables = config.eccProtectTables;
    meta.power = config.power;
    meta.faults = config.faults;
    meta.vfStates.reserve(table.numStates());
    for (std::size_t i = 0; i < table.numStates(); ++i)
        meta.vfStates.push_back(table.state(i));
    return meta;
}

sim::RunConfig
runConfigFromMeta(const TraceMeta &meta)
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = meta.numCus;
    cfg.gpu.waveSlotsPerCu = meta.waveSlotsPerCu;
    cfg.gpu.defaultFreq = meta.nominalFreq;
    cfg.cusPerDomain = meta.cusPerDomain;
    cfg.epochLen = meta.epochLen;
    cfg.objective = static_cast<dvfs::Objective>(meta.objective);
    cfg.perfDegradationLimit = meta.perfDegradationLimit;
    cfg.nominalFreq = meta.nominalFreq;
    cfg.maxSimTime = meta.maxSimTime;
    cfg.transitionLatency = meta.transitionLatency;
    cfg.collectTrace = meta.collectTrace;
    cfg.watchdogFallback = meta.watchdogFallback;
    cfg.eccProtectTables = meta.eccProtectTables;
    cfg.power = meta.power;
    cfg.faults = meta.faults;
    return cfg;
}

power::VfTable
vfTableFromMeta(const TraceMeta &meta)
{
    return power::VfTable(meta.vfStates);
}

// --- TraceWriter ----------------------------------------------------

TraceWriter::TraceWriter(const std::string &path, const TraceMeta &meta)
    : path_(path), temp_(store::tempPathFor(path)),
      os(temp_, std::ios::binary), sealer(traceFormat)
{
    if (!os)
        return;
    store::registerTempFile(temp_);
    write(sealer.header());
    writeSection(tagMeta, encodeMeta(meta));
}

void
TraceWriter::write(const std::string &bytes)
{
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ok_ = static_cast<bool>(os);
}

void
TraceWriter::writeSection(std::uint8_t tag, const std::string &payload)
{
    if (!ok_ || finished)
        return;
    write(sealer.section(tag, payload));
    write(payload);
}

void
TraceWriter::writeFrame(const EpochFrame &frame)
{
    writeSection(tagFrame, encodeFrame(frame, prevEnd_));
    prevEnd_ = frame.end;
    ++frames_;
}

void
TraceWriter::writePcSnapshot(const PcTableSnapshot &snap)
{
    writeSection(tagPcSnapshot, encodePcSnapshot(snap));
}

void
TraceWriter::finish(const TraceTrailer &trailer)
{
    if (!ok_ || finished)
        return;
    write(sealer.end(encodeTrailer(trailer)));
    os.close();
    ok_ = static_cast<bool>(os);
    finished = true;
    if (!ok_)
        return;
    // Publish atomically: a reader (or a resumed sweep) either sees
    // the complete checksummed trace at path_ or nothing at all.
    const std::string err = store::commitTempFile(temp_, path_);
    if (!err.empty()) {
        warn("trace '" + path_ + "': " + err);
        ok_ = false;
    }
}

TraceWriter::~TraceWriter()
{
    if (finished || temp_.empty())
        return;
    // finish() never ran (a contained cell failure, or the run threw
    // mid-capture): drop the partial temporary rather than leaking it.
    std::remove(temp_.c_str());
    store::unregisterTempFile(temp_);
}

// --- readTraceFile --------------------------------------------------

namespace
{

/** Decode the sections of an unsealed trace: "" or the diagnostic. */
std::string
decodeSections(const Unsealed &file, TraceData &data)
{
    if (file.sections.empty() || file.sections.front().tag != tagMeta)
        return "trace does not start with a meta section";
    Cursor meta = file.sections.front().cursor();
    const std::string meta_err = decodeMeta(meta, data.meta);
    if (!meta_err.empty())
        return meta_err;
    bool have_snapshot = false;
    Tick prev_end = 0;
    for (std::size_t i = 1; i < file.sections.size(); ++i) {
        const SealedSection &section = file.sections[i];
        if (section.tag == tagFrame) {
            Cursor body = section.cursor();
            EpochFrame frame;
            const std::string err =
                decodeFrame(body, data.meta, prev_end, frame);
            if (!err.empty()) {
                return err + " (frame " +
                    std::to_string(data.frames.size()) + ")";
            }
            prev_end = frame.end;
            data.frames.push_back(std::move(frame));
        } else if (section.tag == tagPcSnapshot && !have_snapshot) {
            const std::string err =
                decodePcSnapshot(section.bytes(), data.pcSnapshot);
            if (!err.empty())
                return err;
            have_snapshot = true;
        } else {
            return "unexpected trace section (tag " +
                std::to_string(section.tag) + ")";
        }
    }
    if (!decodeTrailer(file.trailer.cursor(), data.trailer))
        return "corrupt trace trailer";
    if (data.trailer.frameCount != data.frames.size()) {
        return "trailer frame count (" +
            std::to_string(data.trailer.frameCount) +
            ") does not match the frames present (" +
            std::to_string(data.frames.size()) + ")";
    }
    // Frames must be in time order with at most one final done frame.
    for (std::size_t i = 0; i + 1 < data.frames.size(); ++i) {
        if (data.frames[i].done)
            return "done frame is not the last frame";
    }
    return "";
}

} // namespace

TraceReadResult
readTraceFile(const std::string &path)
{
    TraceReadResult result;
    std::string buf;
    if (!readFile(path, buf)) {
        result.error = "cannot open '" + path + "'";
        return result;
    }
    const Unsealed file = unseal(buf, traceFormat);
    TraceData data;
    result.error = file.ok() ? decodeSections(file, data)
                             : "'" + path + "': " + file.error;
    if (result.error.empty())
        result.trace = std::move(data);
    return result;
}

// --- TraceCapture ---------------------------------------------------

TraceCapture::TraceCapture(TraceWriter &trace_writer)
    : writer(trace_writer), startNs(obs::steadyNowNs())
{}

void
TraceCapture::onEpoch(const sim::EpochCapture &epoch)
{
    EpochFrame frame;
    frame.start = epoch.start;
    frame.end = epoch.end;
    frame.accountedEnd = epoch.accountedEnd;
    frame.done = epoch.done;
    frame.record = epoch.record;
    frame.snapshots = epoch.snapshots;
    if (epoch.sweep != nullptr) {
        frame.hasSweep = true;
        frame.sweep = *epoch.sweep;
    }
    frame.decisions.reserve(epoch.decisions.size());
    for (std::size_t d = 0; d < epoch.decisions.size(); ++d) {
        frame.decisions.push_back(FrameDecision{
            epoch.decisions[d].state,
            epoch.decisions[d].predictedInstr,
            epoch.appliedStates[d]});
    }
    writer.writeFrame(frame);
}

void
TraceCapture::onRunEnd(const sim::RunResult &result)
{
    if (snapProvider) {
        const PcTableSnapshot snap = snapProvider();
        if (!snap.empty())
            writer.writePcSnapshot(snap);
    }
    TraceTrailer trailer;
    trailer.frameCount = writer.frameCount();
    trailer.lastCommitTick = result.execTime;
    trailer.totalCommitted = result.instructions;
    trailer.completed = result.completed;
    trailer.captureWallMs =
        static_cast<double>(obs::steadyNowNs() - startNs) / 1e6;
    writer.finish(trailer);
    finished_ = true;
}

} // namespace pcstall::trace
