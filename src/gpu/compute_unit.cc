#include "gpu/compute_unit.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::gpu
{

void
ComputeUnit::init(std::uint32_t id, std::uint32_t slot_count,
                  std::uint32_t num_simds, Freq freq)
{
    cuId = id;
    slots.assign(slot_count, Wavefront{});
    wgs.clear();
    wstate_.assign(slot_count, WaveState::Idle);
    readyAt_.assign(slot_count, 0);
    seq_.assign(slot_count, 0);
    nextOp_.assign(slot_count, isa::OpType::EndPgm);
    pendMask_.resize(slot_count);
    occMask_.resize(slot_count);
    ageSlot_.assign(slot_count, 0);
    ageOf_.assign(slot_count, 0);
    readyAge_.resize(slot_count);
    const std::uint32_t simds = std::max(num_simds, 1u);
    simdAge_.assign(simds, BitMask{});
    for (BitMask &m : simdAge_)
        m.resize(slot_count);
    wheel_.assign(static_cast<std::size_t>(wheelBuckets) *
                      pendMask_.wordCount(),
                  0);
    wheelLive_ = 0;
    wheelBlock_ = 0;
    farMask_.resize(slot_count);
    farWakeAt_ = tickInf;
    picks_.assign(simds, -1);
    pickedAt_ = tickInf;
    freeSlots = slot_count;
    freq_ = freq;
    period_ = clockPeriod(freq);
    nextEventAt = 0;
}

void
ComputeUnit::setFrequency(Freq freq, Tick now, Tick trans)
{
    if (freq == freq_)
        return;
    freq_ = freq;
    period_ = clockPeriod(freq);
    freqStallUntil = now + trans;
    if (nextEventAt != tickInf)
        nextEventAt = std::max(nextEventAt, freqStallUntil);
}

void
ComputeUnit::catchUp(Tick now)
{
    drainLoadCompletions(now);
    closeSleep(now);
    wakeWaves(now);
}

void
ComputeUnit::drainLoadCompletions(Tick now)
{
    while (!loadCompletions.empty() && loadCompletions.front() <= now) {
        const Tick done = loadCompletions.front();
        std::pop_heap(loadCompletions.begin(), loadCompletions.end(),
                      std::greater<>());
        loadCompletions.pop_back();
        panicIf(outstandingLoads == 0, "load completion underflow");
        --outstandingLoads;
        --outstandingTotal;
        if (outstandingLoads == 0 && memActive) {
            epMemInterval += done - memStart;
            memActive = false;
        }
    }
    while (!storeCompletions.empty() && storeCompletions.front() <= now) {
        std::pop_heap(storeCompletions.begin(), storeCompletions.end(),
                      std::greater<>());
        storeCompletions.pop_back();
        panicIf(outstandingTotal == 0, "store completion underflow");
        --outstandingTotal;
    }
    if (leadActive && leadUntil <= now) {
        epLeadLoad += leadUntil - leadStart;
        leadActive = false;
    }
}

void
ComputeUnit::wakeSlot(std::uint32_t i)
{
    if (wstate_[i] == WaveState::WaitMem) {
        // The stall semantically ended at the wake tick, even if this
        // CU only got around to processing it now.
        const Tick at = readyAt_[i];
        Wavefront &w = slots[i];
        w.epMemStall += at - w.stallEnter;
        w.retireCompleted(at);
    }
    setWaveState(i, WaveState::Ready);
}

void
ComputeUnit::drainBucket(std::size_t b)
{
    const std::size_t words = pendMask_.wordCount();
    for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t &word = wheel_[b * words + wi];
        std::uint64_t w = word;
        word = 0;
        while (w != 0) {
            wakeSlot(static_cast<std::uint32_t>(
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(w))));
            w &= w - 1;
        }
    }
}

void
ComputeUnit::pullFar()
{
    farWakeAt_ = tickInf;
    const Tick horizon = wheelBlock_ + wheelBuckets;
    farMask_.forEachSet([&](std::size_t i) {
        const Tick at = readyAt_[i];
        if ((at >> wheelShift) < horizon) {
            farMask_.reset(i);
            armWake(static_cast<std::uint32_t>(i), at);
        } else {
            farWakeAt_ = std::min(farWakeAt_, at);
        }
    });
}

void
ComputeUnit::wakeWaves(Tick now)
{
    // Every wake processed here is per-slot stall accrual plus one
    // state transition, so wakes commute and their order does not
    // matter; a second call at the same tick finds nothing due.
    const Tick block = now >> wheelShift;
    if (block > wheelBlock_) {
        // A member of a bucket the cursor leaves behind wakes before
        // its block ends, so it is due: drain those buckets whole.
        const Tick passed = block - wheelBlock_;
        std::uint64_t due = wheelLive_;
        if (passed < wheelBuckets) {
            due &= std::rotl((1ULL << passed) - 1,
                             static_cast<int>(wheelBlock_ &
                                              (wheelBuckets - 1)));
        }
        wheelLive_ &= ~due;
        while (due != 0) {
            drainBucket(static_cast<std::size_t>(std::countr_zero(due)));
            due &= due - 1;
        }
        wheelBlock_ = block;
        // The horizon moved with the cursor: file the far wakes that
        // now fall inside it (a due one lands in the current bucket).
        if ((farWakeAt_ >> wheelShift) < wheelBlock_ + wheelBuckets)
            pullFar();
    }
    // The current bucket's members wake somewhere in this block.
    const std::size_t cur =
        static_cast<std::size_t>(wheelBlock_) & (wheelBuckets - 1);
    if (((wheelLive_ >> cur) & 1) == 0)
        return;
    const std::size_t words = pendMask_.wordCount();
    std::uint64_t left = 0;
    for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t &word = wheel_[cur * words + wi];
        std::uint64_t w = word;
        while (w != 0) {
            const std::uint64_t bit = w & (~w + 1);
            const std::uint32_t i = static_cast<std::uint32_t>(
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(w)));
            w &= w - 1;
            if (readyAt_[i] <= now) {
                word &= ~bit;
                wakeSlot(i);
            }
        }
        left |= word;
    }
    if (left == 0)
        wheelLive_ &= ~(1ULL << cur);
}

void
ComputeUnit::closeSleep(Tick now)
{
    if (!sleeping)
        return;
    const Tick end = std::min(now, sleepUntil);
    if (end > sleepStart) {
        if (sleepGate == SleepGate::Load)
            epLoadStall += end - sleepStart;
        else if (sleepGate == SleepGate::Store)
            epStoreStall += end - sleepStart;
    }
    sleeping = false;
    sleepGate = SleepGate::None;
}

void
ComputeUnit::pickReady()
{
    // Age ranks follow dispatch order, so the lowest ready rank among
    // a SIMD's waves is its oldest ready wave: the lowest seq_, which
    // is unique.
    const std::size_t words = readyAge_.wordCount();
    for (std::size_t simd = 0; simd < picks_.size(); ++simd) {
        const BitMask &mine = simdAge_[simd];
        std::int32_t pick = -1;
        for (std::size_t wi = 0; wi < words; ++wi) {
            const std::uint64_t w = readyAge_.word(wi) & mine.word(wi);
            if (w != 0) {
                pick = static_cast<std::int32_t>(ageSlot_[
                    (wi << 6) + static_cast<std::size_t>(
                        std::countr_zero(w))]);
                break;
            }
        }
        picks_[simd] = pick;
    }
}

void
ComputeUnit::joinAge(std::uint32_t i)
{
    // Dispatch hands out seqs in increasing order, so a new wave is
    // the youngest resident one.
    const std::uint32_t rank =
        static_cast<std::uint32_t>(slots.size()) - freeSlots;
    ageSlot_[rank] = i;
    ageOf_[i] = rank;
    simdAge_[i % simdAge_.size()].set(rank);
    occMask_.set(i);
    --freeSlots;
}

void
ComputeUnit::leaveAge(std::uint32_t i)
{
    occMask_.reset(i);
    ++freeSlots;
    const std::uint32_t resident =
        static_cast<std::uint32_t>(slots.size()) - freeSlots;
    for (std::uint32_t r = ageOf_[i]; r < resident; ++r) {
        ageSlot_[r] = ageSlot_[r + 1];
        ageOf_[ageSlot_[r]] = r;
    }
    // Every younger wave moved down one rank. Rebuilding the
    // age-indexed masks is simpler than shifting bits across words,
    // and a wave retires once per thousands of steps.
    readyAge_.clearAll();
    for (BitMask &m : simdAge_)
        m.clearAll();
    for (std::uint32_t r = 0; r < resident; ++r) {
        const std::uint32_t slot = ageSlot_[r];
        if (wstate_[slot] == WaveState::Ready)
            readyAge_.set(r);
        simdAge_[slot % simdAge_.size()].set(r);
    }
}

std::uint64_t
ComputeUnit::genAddress(const isa::Kernel &kernel, const Wavefront &wave,
                        const isa::Instruction &ins) const
{
    const isa::MemRegion &region = kernel.regions[ins.mem.regionId];
    const std::uint64_t line = 64;
    switch (ins.mem.pattern) {
      case isa::AccessPattern::Streaming:
      case isa::AccessPattern::Strided: {
        // Each wave walks its own page-sized window, advancing by the
        // instruction stride per issue; streaming strides (< line) get
        // spatial reuse, larger strides touch a new line every access.
        const std::uint64_t window = 4096;
        const std::uint64_t start =
            (wave.globalId * window) % region.sizeBytes;
        const std::uint64_t span =
            ins.mem.pattern == isa::AccessPattern::Streaming
            ? window : region.sizeBytes;
        const std::uint64_t off =
            (wave.memSeq * ins.mem.strideBytes) % span;
        return region.base + (start + off) % region.sizeBytes;
      }
      case isa::AccessPattern::Random: {
        const std::uint64_t num_lines = std::max<std::uint64_t>(
            region.sizeBytes / line, 1);
        const std::uint64_t h = hashCombine(
            kernel.seed ^ (wave.globalId * 0x9e3779b97f4a7c15ULL),
            wave.memSeq);
        return region.base + (h % num_lines) * line;
      }
      case isa::AccessPattern::SharedHot: {
        // All waves share a small hot footprint (lookup tables).
        const std::uint64_t hot = std::min<std::uint64_t>(
            region.sizeBytes, 32 * 1024);
        const std::uint64_t num_lines = std::max<std::uint64_t>(
            hot / line, 1);
        const std::uint64_t h = hashCombine(kernel.seed, wave.memSeq);
        return region.base + (h % num_lines) * line;
      }
    }
    panic("unknown access pattern");
}

bool
ComputeUnit::tryDispatch(CuContext &ctx, Tick now)
{
    bool dispatched = false;
    // Scratch reused across calls: dispatch runs once per CU
    // activation on the hottest loop of the simulator, and the oracle
    // runs many chips per epoch, so a fresh vector here would be a
    // per-event allocation. thread_local keeps in-cell parallel
    // sweeps race-free.
    static thread_local std::vector<std::uint32_t> free_slots;
    while (ctx.dispatch.curLaunch < ctx.app.launches.size() &&
           ctx.dispatch.wgUndispatched > 0) {
        const isa::Kernel &kernel =
            ctx.app.launches[ctx.dispatch.curLaunch];

        // Collect free slots (ascending, same order as the old
        // full-array scan).
        free_slots.clear();
        occMask_.forEachClear([&](std::size_t i) {
            free_slots.push_back(static_cast<std::uint32_t>(i));
        });
        if (free_slots.size() < kernel.wavesPerWorkgroup)
            break;

        // Allocate a resident-workgroup record.
        std::uint32_t wg_index = 0;
        for (wg_index = 0; wg_index < wgs.size(); ++wg_index)
            if (!wgs[wg_index].valid)
                break;
        if (wg_index == wgs.size())
            wgs.emplace_back();
        ResidentWg &wg = wgs[wg_index];
        wg.valid = true;
        wg.launchIndex = ctx.dispatch.curLaunch;
        wg.waveCount = kernel.wavesPerWorkgroup;
        wg.arrived = 0;
        wg.done = 0;

        for (std::uint32_t i = 0; i < kernel.wavesPerWorkgroup; ++i) {
            const std::uint32_t slot = free_slots[i];
            Wavefront &w = slots[slot];
            w.resetKeepCapacity();
            seq_[slot] = seqCounter++;
            setWaveState(slot, WaveState::Ready);
            readyAt_[slot] = 0;
            nextOp_[slot] = kernel.code[0].op;
            w.pc = 0;
            w.globalId = ctx.dispatch.nextGlobalWaveId++;
            w.wgIndex = wg_index;
            w.launchIndex = ctx.dispatch.curLaunch;
            w.epStartPc = 0;
            w.epActive = true;
            w.loopTripsInit.resize(kernel.loops.size());
            for (std::size_t l = 0; l < kernel.loops.size(); ++l) {
                const isa::LoopSpec &spec = kernel.loops[l];
                std::uint32_t trips = spec.baseTrips;
                if (spec.tripVariation > 0) {
                    const std::uint64_t h = hashCombine(
                        kernel.seed ^ ctx.cfg.seed,
                        hashCombine(w.globalId, l));
                    trips = spec.baseTrips - spec.tripVariation +
                        static_cast<std::uint32_t>(
                            h % (2 * spec.tripVariation + 1));
                }
                w.loopTripsInit[l] = std::max<std::uint32_t>(trips, 1);
            }
            w.loopTrips = w.loopTripsInit;
            // Keep the wave's arrival time: it was not stalled before
            // existing; stats markers start clean.
            w.stallEnter = now;
            w.barrierEnter = now;
        }
        --ctx.dispatch.wgUndispatched;
        dispatched = true;
    }
    return dispatched;
}

void
ComputeUnit::releaseBarrier(const isa::Application &app,
                            std::uint32_t wg_index, Tick now)
{
    // WaitBarrier slots are among the occupied ones with no pending
    // wake (the rest of those are Ready).
    for (std::size_t wi = 0; wi < occMask_.wordCount(); ++wi) {
        std::uint64_t w = occMask_.word(wi) & ~pendMask_.word(wi);
        while (w != 0) {
            const std::uint32_t i = static_cast<std::uint32_t>(
                (wi << 6) + std::countr_zero(w));
            w &= w - 1;
            Wavefront &wave = slots[i];
            if (wstate_[i] != WaveState::WaitBarrier ||
                wave.wgIndex != wg_index) {
                continue;
            }
            wave.epBarrierStall += now - wave.barrierEnter;
            setWaveState(i, WaveState::Ready);
            ++wave.pc;
            nextOp_[i] = app.launches[wave.launchIndex].code[wave.pc].op;
            ++wave.epCommitted;
            ++epCommitted;
            ++lifeCommitted_;
            lastCommit_ = now;
        }
    }
    wgs[wg_index].arrived = 0;
}

bool
ComputeUnit::issue(CuContext &ctx, std::uint32_t slot, Tick now)
{
    Wavefront &wave = slots[slot];
    const isa::Kernel &kernel = ctx.app.launches[wave.launchIndex];
    const isa::Instruction &ins = kernel.code[wave.pc];

    auto commit = [&]() {
        ++wave.epCommitted;
        ++epCommitted;
        ++lifeCommitted_;
        lastCommit_ = now;
    };
    // Every path that moves pc on ends here, so nextOp_ follows it.
    auto busy_for = [&](Cycles cycles) {
        nextOp_[slot] = kernel.code[wave.pc].op;
        park(slot, WaveState::Busy, now + cycles * period_);
    };

    switch (ins.op) {
      case isa::OpType::VAlu:
      case isa::OpType::SAlu:
      case isa::OpType::Lds:
        commit();
        ++wave.pc;
        busy_for(ins.latency);
        break;

      case isa::OpType::VMemLoad:
      case isa::OpType::VMemStore: {
        const bool is_store = ins.op == isa::OpType::VMemStore;
        if (outstandingTotal >= ctx.cfg.mem.maxOutstandingPerCu) {
            // MSHRs full: a memory-capacity stall until something
            // drains. Booked as WaitMem so the wavefront estimators
            // see bandwidth saturation as asynchronous time.
            Tick wake = now + period_;
            if (!loadCompletions.empty())
                wake = std::max(wake, loadCompletions.front());
            if (!storeCompletions.empty() &&
                (loadCompletions.empty() ||
                 storeCompletions.front() < loadCompletions.front())) {
                wake = std::max(now + period_, storeCompletions.front());
            }
            park(slot, WaveState::WaitMem, wake);
            wave.stallEnter = now;
            wave.stallGateStore = is_store;
            break;
        }
        const std::uint64_t addr = genAddress(kernel, wave, ins);
        const memory::MemResult res =
            ctx.mem.access(cuId, addr, is_store, now, period_);
        PendingMem pm{res.completion, is_store};
        wave.pending.insert(
            std::upper_bound(wave.pending.begin(), wave.pending.end(), pm),
            pm);
        ++wave.memSeq;
        ++outstandingTotal;
        if (is_store) {
            ++epStores;
            storeCompletions.push_back(res.completion);
            std::push_heap(storeCompletions.begin(),
                           storeCompletions.end(), std::greater<>());
        } else {
            ++epLoads;
            if (outstandingLoads == 0) {
                memActive = true;
                memStart = now;
                if (!leadActive) {
                    leadActive = true;
                    leadStart = now;
                    leadUntil = res.completion;
                }
            }
            ++outstandingLoads;
            loadCompletions.push_back(res.completion);
            std::push_heap(loadCompletions.begin(), loadCompletions.end(),
                           std::greater<>());
        }
        commit();
        ++wave.pc;
        busy_for(ins.latency);
        break;
      }

      case isa::OpType::Waitcnt: {
        wave.retireCompleted(now);
        if (wave.pending.size() <= ins.maxOutstanding) {
            commit();
            ++wave.pc;
            busy_for(ins.latency);
        } else {
            const std::size_t gate_idx =
                wave.pending.size() - ins.maxOutstanding - 1;
            park(slot, WaveState::WaitMem,
                 wave.pending[gate_idx].completion);
            wave.stallEnter = now;
            wave.stallGateStore = wave.pending[gate_idx].isStore;
        }
        break;
      }

      case isa::OpType::Barrier: {
        ResidentWg &wg = wgs[wave.wgIndex];
        setWaveState(slot, WaveState::WaitBarrier);
        wave.barrierEnter = now;
        ++wg.arrived;
        if (wg.arrived + wg.done >= wg.waveCount) {
            releaseBarrier(ctx.app, wave.wgIndex, now);
            return true;
        }
        break;
      }

      case isa::OpType::Branch: {
        std::uint32_t &trips = wave.loopTrips[ins.loopId];
        panicIf(trips == 0, "loop trip counter underflow");
        --trips;
        if (trips > 0) {
            wave.pc = static_cast<std::uint32_t>(ins.target);
        } else {
            trips = wave.loopTripsInit[ins.loopId];
            ++wave.pc;
        }
        commit();
        busy_for(ins.latency);
        break;
      }

      case isa::OpType::EndPgm: {
        commit();
        setWaveState(slot, WaveState::Idle);
        ResidentWg &wg = wgs[wave.wgIndex];
        ++wg.done;
        if (wg.done == wg.waveCount) {
            wg.valid = false;
            ++ctx.dispatch.wgCompleted;
        }
        break;
      }
    }
    return false;
}

bool
ComputeUnit::probe(const CuContext &ctx, Tick now)
{
    if (idle())
        return false;
    catchUp(now);
    if (now < freqStallUntil)
        return true;
    // Every resident wave belongs to the current launch, so while this
    // CU holds waves no launch can finish and wgUndispatched can only
    // fall: a zero read now is still zero at the step.
    if (freeSlots > 0 && ctx.dispatch.wgUndispatched > 0)
        return false;
    pickReady();
    pickedAt_ = now;

    // Walk the picks in issue order, tracking the MSHR count the
    // earlier SIMDs' private memory ops will have raised. nextOp_
    // classifies each pick; only a memory op that may reach the memory
    // system loads the wave's cold record and instruction (for its
    // address).
    std::uint32_t outstanding = outstandingTotal;
    for (const std::int32_t slot : picks_) {
        if (slot < 0)
            continue;
        const isa::OpType op = nextOp_[static_cast<std::size_t>(slot)];
        if (isa::isVMem(op)) {
            if (outstanding >= ctx.cfg.mem.maxOutstandingPerCu)
                continue; // MSHR-full retry
            const Wavefront &wave =
                slots[static_cast<std::size_t>(slot)];
            const isa::Kernel &kernel =
                ctx.app.launches[wave.launchIndex];
            const isa::Instruction &ins = kernel.code[wave.pc];
            if (!ctx.mem.staysInCu(cuId, genAddress(kernel, wave, ins),
                                   op == isa::OpType::VMemStore)) {
                return false;
            }
            ++outstanding;
        } else if (op == isa::OpType::Barrier ||
                   op == isa::OpType::EndPgm) {
            return false;
        }
        // VALU, SALU, LDS, branch and waitcnt issues stay private.
    }
    return true;
}

StepResult
ComputeUnit::step(CuContext &ctx, Tick now)
{
    StepResult result;

    // A probe() at this tick already caught the CU up (a repeat would
    // be a no-op), found it past any V/f stall, and picked.
    const bool probed = pickedAt_ == now;
    pickedAt_ = tickInf;
    if (!probed) {
        catchUp(now);
        if (now < freqStallUntil) {
            result.next = freqStallUntil;
            return result;
        }
    }

    const std::uint32_t completed_before = ctx.dispatch.wgCompleted;

    // Refill free slots from the dispatcher before issuing.
    const bool dispatched = freeSlots > 0 &&
        ctx.dispatch.wgUndispatched > 0 && tryDispatch(ctx, now);
    if (!probed || dispatched)
        pickReady();

    // Each SIMD issues at most one instruction this cycle,
    // oldest-ready-first among its resident waves. Only a barrier
    // release changes another SIMD's ready set mid-step; the SIMDs
    // after it then pick again, as they would have from scratch.
    bool issued_any = false;
    for (std::size_t simd = 0; simd < picks_.size(); ++simd) {
        const std::int32_t ready = picks_[simd];
        if (ready < 0)
            continue;
        if (issue(ctx, static_cast<std::uint32_t>(ready), now))
            pickReady();
        issued_any = true;
        epBusy += period_;
    }

    if (issued_any) {
        if (outstandingLoads > 0)
            epOverlap += period_;
        result.next = now + period_;
        // Completing the last workgroup of a launch advances the
        // dispatcher to the next kernel; every CU must be woken.
        if (ctx.dispatch.wgCompleted != completed_before &&
            ctx.dispatch.curLaunch < ctx.app.launches.size()) {
            const isa::Kernel &cur =
                ctx.app.launches[ctx.dispatch.curLaunch];
            if (ctx.dispatch.wgCompleted == cur.numWorkgroups) {
                ++ctx.dispatch.curLaunch;
                ctx.dispatch.wgCompleted = 0;
                if (ctx.dispatch.curLaunch < ctx.app.launches.size()) {
                    ctx.dispatch.wgUndispatched =
                        ctx.app.launches[ctx.dispatch.curLaunch]
                        .numWorkgroups;
                    result.launchFinished = true;
                }
            }
        }
        return result;
    }

    // No ready wave: sleep until the earliest wake, classifying the
    // gate for STALL/CRISP accounting. Only Busy/WaitMem slots (the
    // pending mask) have a wake time; scan ascending like the old
    // full-array loop so ties resolve identically.
    // Packed (readyAt << 16 | slot) min: lowest wake, ties to the
    // lowest slot — the same winner the old ascending strict-< scan
    // produced — without a data-dependent branch per wave.
    std::uint64_t wake_key = ~std::uint64_t{0};
    for (std::size_t wi = 0; wi < pendMask_.wordCount(); ++wi) {
        std::uint64_t w = pendMask_.word(wi);
        while (w != 0) {
            const std::size_t i =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(w));
            w &= w - 1;
            wake_key = std::min(
                wake_key,
                (static_cast<std::uint64_t>(readyAt_[i]) << 16) | i);
        }
    }
    Tick wake = tickInf;
    bool wake_is_mem = false;
    bool wake_is_store = false;
    if (wake_key != ~std::uint64_t{0}) {
        const std::size_t i = wake_key & 0xffff;
        wake = readyAt_[i];
        wake_is_mem = wstate_[i] == WaveState::WaitMem;
        wake_is_store = wake_is_mem && slots[i].stallGateStore;
    }

    if (wake == tickInf) {
        // Fully drained (or only barrier waiters, which would be a
        // deadlock and cannot happen with well-formed kernels). With
        // no ready and no pending slots, anything still occupied is
        // blocked at a barrier.
        panicIf(occMask_.any(),
                "barrier deadlock: all remaining waves at s_barrier");
        result.next = tickInf;
        return result;
    }

    sleeping = true;
    sleepStart = now;
    sleepUntil = wake;
    sleepGate = !wake_is_mem ? SleepGate::None
        : (wake_is_store ? SleepGate::Store : SleepGate::Load);
    result.next = wake;
    return result;
}

void
ComputeUnit::harvest(CuContext &ctx, Tick boundary, CuEpochRecord &cu_out,
                     std::vector<WaveEpochRecord> &waves_out)
{
    drainLoadCompletions(boundary);
    wakeWaves(boundary);

    // Close open accrual intervals at the boundary and restart them.
    if (sleeping) {
        const Tick end = std::min(boundary, sleepUntil);
        if (end > sleepStart) {
            if (sleepGate == SleepGate::Load)
                epLoadStall += end - sleepStart;
            else if (sleepGate == SleepGate::Store)
                epStoreStall += end - sleepStart;
        }
        sleepStart = std::max(sleepStart, end);
    }
    if (memActive) {
        epMemInterval += boundary - memStart;
        memStart = boundary;
    }
    if (leadActive) {
        const Tick end = std::min(leadUntil, boundary);
        if (end > leadStart)
            epLeadLoad += end - leadStart;
        if (leadUntil <= boundary)
            leadActive = false;
        else
            leadStart = boundary;
    }

    cu_out.committed = epCommitted;
    cu_out.vmemLoads = epLoads;
    cu_out.vmemStores = epStores;
    cu_out.busy = epBusy;
    cu_out.loadStall = epLoadStall;
    cu_out.storeStall = epStoreStall;
    cu_out.leadLoad = epLeadLoad;
    cu_out.memInterval = epMemInterval;
    cu_out.overlap = epOverlap;
    cu_out.mem = ctx.mem.activity(cuId);
    cu_out.freq = freq_;

    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Wavefront &w = slots[i];
        const WaveState state = wstate_[i];
        if (!w.epActive && state == WaveState::Idle)
            continue;
        // Clip in-progress waits at the boundary.
        if (state == WaveState::WaitMem) {
            const Tick end = std::min(boundary, readyAt_[i]);
            if (end > w.stallEnter)
                w.epMemStall += end - w.stallEnter;
            w.stallEnter = std::max(w.stallEnter, end);
        } else if (state == WaveState::WaitBarrier) {
            if (boundary > w.barrierEnter)
                w.epBarrierStall += boundary - w.barrierEnter;
            w.barrierEnter = boundary;
        }

        WaveEpochRecord rec;
        rec.cu = cuId;
        rec.slot = i;
        rec.startPc = w.epStartPc;
        rec.startPcAddr =
            ctx.app.launches[w.launchIndex].pcAddr(w.epStartPc);
        rec.committed = w.epCommitted;
        rec.memStall = w.epMemStall;
        rec.barrierStall = w.epBarrierStall;
        rec.ageRank = state == WaveState::Idle ? 0 : ageOf_[i];
        rec.active = true;
        waves_out.push_back(rec);

        // Reset per-epoch wave accounting.
        w.epCommitted = 0;
        w.epMemStall = 0;
        w.epBarrierStall = 0;
        w.epStartPc = w.pc;
        w.epActive = state != WaveState::Idle;
    }

    epCommitted = 0;
    epLoads = 0;
    epStores = 0;
    epBusy = 0;
    epOverlap = 0;
    epLoadStall = 0;
    epStoreStall = 0;
    epLeadLoad = 0;
    epMemInterval = 0;
}

void
ComputeUnit::fingerprint(std::uint64_t &h) const
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(cuId);
    mix(freq_);
    mix(static_cast<std::uint64_t>(period_));
    mix(static_cast<std::uint64_t>(freqStallUntil));
    mix(static_cast<std::uint64_t>(nextEventAt));
    mix(freeSlots);
    mix(seqCounter);
    mix(lifeCommitted_);
    mix(static_cast<std::uint64_t>(lastCommit_));

    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Wavefront &w = slots[i];
        mix(static_cast<std::uint64_t>(wstate_[i]));
        mix(w.pc);
        mix(static_cast<std::uint64_t>(readyAt_[i]));
        mix(w.pending.size());
        for (const PendingMem &p : w.pending) {
            mix(static_cast<std::uint64_t>(p.completion));
            mix(p.isStore ? 1 : 0);
        }
        mix(w.loopTrips.size());
        for (std::uint32_t t : w.loopTrips)
            mix(t);
        for (std::uint32_t t : w.loopTripsInit)
            mix(t);
        mix(w.globalId);
        mix(seq_[i]);
        mix(w.wgIndex);
        mix(w.launchIndex);
        mix(w.memSeq);
        mix(w.epCommitted);
        mix(static_cast<std::uint64_t>(w.epMemStall));
        mix(static_cast<std::uint64_t>(w.epBarrierStall));
        mix(w.epStartPc);
        mix(w.epActive ? 1 : 0);
        mix(static_cast<std::uint64_t>(w.stallEnter));
        mix(static_cast<std::uint64_t>(w.barrierEnter));
        mix(w.stallGateStore ? 1 : 0);
    }

    mix(wgs.size());
    for (const ResidentWg &wg : wgs) {
        mix(wg.valid ? 1 : 0);
        mix(wg.launchIndex);
        mix(wg.waveCount);
        mix(wg.arrived);
        mix(wg.done);
    }

    mix(loadCompletions.size());
    for (Tick t : loadCompletions)
        mix(static_cast<std::uint64_t>(t));
    mix(storeCompletions.size());
    for (Tick t : storeCompletions)
        mix(static_cast<std::uint64_t>(t));
    mix(outstandingLoads);
    mix(outstandingTotal);

    mix(sleeping ? 1 : 0);
    mix(static_cast<std::uint64_t>(sleepStart));
    mix(static_cast<std::uint64_t>(sleepUntil));
    mix(static_cast<std::uint64_t>(sleepGate));
    mix(memActive ? 1 : 0);
    mix(static_cast<std::uint64_t>(memStart));
    mix(leadActive ? 1 : 0);
    mix(static_cast<std::uint64_t>(leadStart));
    mix(static_cast<std::uint64_t>(leadUntil));

    mix(epCommitted);
    mix(epLoads);
    mix(epStores);
    mix(static_cast<std::uint64_t>(epBusy));
    mix(static_cast<std::uint64_t>(epOverlap));
    mix(static_cast<std::uint64_t>(epLoadStall));
    mix(static_cast<std::uint64_t>(epStoreStall));
    mix(static_cast<std::uint64_t>(epLeadLoad));
    mix(static_cast<std::uint64_t>(epMemInterval));
}

void
ComputeUnit::verifyDerivedState(const isa::Application &app) const
{
    auto fail = [this](const char *what) {
        panic("CU " + std::to_string(cuId) + ": " + what);
    };

    // Occupancy and pending masks, and the free count.
    static thread_local std::vector<std::uint32_t> order;
    order.clear();
    for (std::uint32_t i = 0; i < wstate_.size(); ++i) {
        const WaveState s = wstate_[i];
        const bool pend = s == WaveState::Busy || s == WaveState::WaitMem;
        if (pendMask_.test(i) != pend ||
            occMask_.test(i) != (s != WaveState::Idle)) {
            fail("wave-state masks out of sync");
        }
        if (s != WaveState::Idle)
            order.push_back(i);
    }
    if (freeSlots != wstate_.size() - order.size())
        fail("cached free count out of sync");

    // Age order: the resident slots sorted by seq_, and the masks
    // indexed by age rank.
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return seq_[a] < seq_[b];
              });
    for (std::uint32_t r = 0; r < order.size(); ++r) {
        if (ageSlot_[r] != order[r] || ageOf_[order[r]] != r)
            fail("age order out of sync");
    }
    const std::size_t simds = simdAge_.size();
    for (std::uint32_t r = 0; r < readyAge_.size(); ++r) {
        const bool live = r < order.size();
        if (readyAge_.test(r) !=
            (live && wstate_[order[r]] == WaveState::Ready)) {
            fail("age-space ready mask out of sync");
        }
        for (std::size_t simd = 0; simd < simds; ++simd) {
            if (simdAge_[simd].test(r) !=
                (live && order[r] % simds == simd)) {
                fail("age-space SIMD masks out of sync");
            }
        }
    }

    // Wake wheel: each pending slot sits in the bucket of its wake
    // block (clamped to the current one) while that block is inside
    // the horizon, else in the far set; the buckets hold nothing else.
    const std::size_t words = pendMask_.wordCount();
    std::size_t in_wheel = 0;
    Tick far_wake = tickInf;
    for (std::uint32_t i = 0; i < wstate_.size(); ++i) {
        bool want_far = false;
        if (pendMask_.test(i)) {
            const Tick block =
                std::max(readyAt_[i] >> wheelShift, wheelBlock_);
            if (block - wheelBlock_ < wheelBuckets) {
                const std::size_t b = static_cast<std::size_t>(block) &
                    (wheelBuckets - 1);
                if (((wheel_[b * words + (i >> 6)] >> (i & 63)) & 1) == 0)
                    fail("pending wave missing from its wheel bucket");
                ++in_wheel;
            } else {
                want_far = true;
                far_wake = std::min(far_wake, readyAt_[i]);
            }
        }
        if (farMask_.test(i) != want_far)
            fail("far wake set out of sync");
    }
    std::size_t filed = 0;
    for (std::size_t b = 0; b < static_cast<std::size_t>(wheelBuckets);
         ++b) {
        std::uint64_t any = 0;
        for (std::size_t wi = 0; wi < words; ++wi) {
            any |= wheel_[b * words + wi];
            filed += static_cast<std::size_t>(
                std::popcount(wheel_[b * words + wi]));
        }
        if (((wheelLive_ >> b) & 1) != (any != 0 ? 1u : 0u))
            fail("wheel bucket summary out of sync");
    }
    if (filed != in_wheel)
        fail("wheel holds a wave that is not pending there");
    if (farWakeAt_ != far_wake)
        fail("far wake bound is not the earliest far wake");

    // Next-op array: the opcode at each resident wave's pc.
    for (const std::uint32_t i : order) {
        const Wavefront &w = slots[i];
        if (nextOp_[i] != app.launches[w.launchIndex].code[w.pc].op)
            fail("next-op array out of sync");
    }

    if (pickedAt_ != tickInf)
        fail("cached picks outlived their step");
}

void
ComputeUnit::appendSnapshots(const isa::Application &app,
                             std::vector<WaveSnapshot> &out) const
{
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (wstate_[i] == WaveState::Idle)
            continue;
        const Wavefront &w = slots[i];
        WaveSnapshot snap;
        snap.cu = cuId;
        snap.slot = i;
        snap.pc = w.pc;
        snap.pcAddr = app.launches[w.launchIndex].pcAddr(w.pc);
        snap.ageRank = ageOf_[i];
        out.push_back(snap);
    }
}

} // namespace pcstall::gpu
