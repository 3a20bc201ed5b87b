#include "sim/cpu.h"

#include <cstdio>

#include "sim/invariants.h"
#include "sim/runner.h"
#include "sim/simerror.h"

namespace udp {

Cpu::Cpu(const Program& prog, const SimConfig& c) : cfg(c), program(prog)
{
    stream_ = std::make_unique<TrueStream>(program);
    bpu_ = std::make_unique<Bpu>(cfg.bpu);
    mem_ = std::make_unique<MemSystem>(cfg.mem);
    ftq_ = std::make_unique<Ftq>(cfg.ftqPhysical, cfg.ftqCapacity);
    fe_ = std::make_unique<DecoupledFrontend>(program, *stream_, *bpu_,
                                              *ftq_, records_, cfg.frontend);
    fetch_ = std::make_unique<FetchStage>(program, *bpu_, *mem_, *ftq_,
                                          *fe_, records_, cfg.fetch);
    fdip_ = std::make_unique<FdipEngine>(*mem_, *ftq_, cfg.fdip);
    backend_ = std::make_unique<Backend>(program, *stream_, *mem_, *bpu_,
                                         records_, cfg.backend);

    if (cfg.udpEnabled) {
        udp_ = std::make_unique<UdpEngine>(cfg.udp);
        fdip_->setUdp(udp_.get());
        fe_->setUdp(udp_.get());
    }

    if (cfg.uftq.mode != UftqMode::Off) {
        uftq_ = std::make_unique<UftqController>(*ftq_, cfg.uftq);
    }

    if (cfg.eipEnabled) {
        eip_ = std::make_unique<Eip>(*mem_, cfg.eip);
        fetch_->setEip(eip_.get());
    }

    if (cfg.telemetry.enabled) {
        telemetry_ = std::make_unique<Telemetry>(cfg.telemetry);
        Telemetry* t = telemetry_.get();
        mem_->setTelemetry(t);
        ftq_->setTelemetry(t);
        fe_->setTelemetry(t);
        fetch_->setTelemetry(t);
        fdip_->setTelemetry(t);
        if (udp_) {
            udp_->setTelemetry(t);
        }
        if (uftq_) {
            uftq_->setTelemetry(t);
        }
    }

    if (cfg.profile.enabled) {
        profiler_ = std::make_unique<obs::CycleProfiler>();
    }
}

void
Cpu::applyResteer(const ResteerRequest& req)
{
    // Erase records of everything still in the frontend.
    for (std::size_t i = 0; i < ftq_->size(); ++i) {
        const FtqEntry& e = ftq_->at(i);
        for (unsigned k = 0; k < e.numInstrs; ++k) {
            records_.erase(e.instrs[k].record, e.instrs[k].dynId);
        }
    }
    const Ring<DecodedInstr>& dq = fetch_->decodeQueue();
    for (std::size_t i = 0; i < dq.size(); ++i) {
        const FtqInstr& fi = dq[i].fi;
        if (fi.dynId > req.squashAfterDynId) {
            records_.erase(fi.record, fi.dynId);
        }
    }

    ftq_->flush();
    fetch_->flushAll();
    if (udp_) {
        udp_->onFlush(req.squashAfterDynId);
    }
    fe_->resteer(now_ + cfg.frontend.execResteerPenalty, req.newPc,
                 req.aligned, req.nextStreamIdx, /*from_decode=*/false);

    lastResteerCycle_ = now_;
    lastResteerPc_ = req.newPc;
}

template <bool kProfiled>
void
Cpu::step()
{
    ++now_;

    // Profiler phase switches bracket each section below; everything not
    // claimed by a component phase (telemetry, faults, watchdog) stays in
    // Other, so attribution covers the whole loop by construction. They
    // exist only in step<true>: step<false> is the loop without them.
    const auto phase = [&](obs::ProfPhase p) {
        if constexpr (kProfiled) {
            profiler_->phase(p);
        }
    };
    if constexpr (kProfiled) {
        profiler_->beginCycle(now_);
    }

    if (telemetry_) {
        telemetry_->beginCycle(now_);
    }

    // Fault injection lands before any component ticks so the perturbed
    // state flows through a whole cycle before detection can run. Sticky
    // kinds re-apply every cycle (see FaultKind::CorruptFtqEntry).
    if (cfg.fault.kind != FaultKind::None &&
        (!faultApplied_ || cfg.fault.kind == FaultKind::CorruptFtqEntry)) {
        if (applyFault(*this, cfg.fault, now_)) {
            faultApplied_ = true;
        }
    }

    phase(obs::ProfPhase::Icache);
    mem_->tick(now_);

    phase(obs::ProfPhase::Backend);
    ResteerRequest req = backend_->tick(now_);
    if (udp_) {
        // Learning sees this cycle's retirements before the flush below.
        for (Addr pc : backend_->retiredPcs()) {
            udp_->onRetire(pc);
        }
    }
    if (req.valid) {
        applyResteer(req);
    }

    // Dispatch decoded instructions into the backend.
    auto& dq = fetch_->decodeQueue();
    unsigned budget = cfg.backend.dispatchWidth;
    while (budget > 0 && !dq.empty() && dq.front().readyAt <= now_ &&
           backend_->canDispatch(dq.front().fi)) {
        backend_->dispatch(dq.front().fi, now_);
        dq.popFront();
        --budget;
    }

    phase(obs::ProfPhase::Fetch);
    fetch_->tick(now_);
    phase(obs::ProfPhase::Prefetch);
    fdip_->tick(now_);
    phase(obs::ProfPhase::Bpred);
    fe_->tick(now_);
    ftq_->sampleOccupancy();

    phase(obs::ProfPhase::Prefetch);
    if (uftq_) {
        uftq_->tick(mem_->stats(), mem_->l1iStats());
    }
    if (udp_ && (now_ & 0x3ff) == 0) {
        udp_->maintain(fdip_->stats().emitted,
                       mem_->l1iStats().prefetchUnused);
    }

    phase(obs::ProfPhase::Other);
    if (telemetry_ &&
        now_ - intervalStart_.cycle >= cfg.telemetry.intervalCycles) {
        const CpuCounters end = counters();
        telemetry_->closeInterval(intervalRow(intervalStart_, end));
        intervalStart_ = end;
        if constexpr (kProfiled) {
            profiler_->closeInterval();
        }
    }

    // --- hardening: forward-progress watchdog + invariant sweeps --------
    std::uint64_t retired_now = retired();
    if (retired_now != lastRetiredSeen_) {
        lastRetiredSeen_ = retired_now;
        lastRetireCycle_ = now_;
    } else if (cfg.watchdog.retireStallCycles != 0 &&
               now_ - lastRetireCycle_ >= cfg.watchdog.retireStallCycles) {
        throw SimHang(SimErrorKind::RetireStall, "backend", now_,
                      "no instruction retired for " +
                          std::to_string(now_ - lastRetireCycle_) +
                          " cycles (watchdog window " +
                          std::to_string(cfg.watchdog.retireStallCycles) +
                          ")",
                      dumpState());
    }
    if (cfg.watchdog.maxCycles != 0 && now_ >= cfg.watchdog.maxCycles) {
        throw SimHang(SimErrorKind::CycleBudget, "cpu", now_,
                      "cycle budget " +
                          std::to_string(cfg.watchdog.maxCycles) +
                          " exhausted with " +
                          std::to_string(backend_->retired()) +
                          " instructions retired, " +
                          std::to_string(retired_now) +
                          " of them in the measurement window",
                      dumpState());
    }
    if (cfg.watchdog.invariantPeriod != 0 &&
        now_ % cfg.watchdog.invariantPeriod == 0) {
        checkInvariants(*this, /*full=*/false);
    }
#ifdef UDP_CHECK
    // Expensive sweep (credit recounts, id monotonicity) on a tight
    // cadence — debug builds only.
    if ((now_ & 0x3f) == 0) {
        checkInvariants(*this, /*full=*/true);
    }
#endif

    if constexpr (kProfiled) {
        profiler_->endCycle();
    }
}

void
Cpu::cycle()
{
    if (profiler_) {
        step<true>();
    } else {
        step<false>();
    }
}

void
Cpu::runUntilRetired(std::uint64_t retire_target)
{
    while (retired() < retire_target) {
        cycle();
    }
}

std::string
Cpu::dumpState() const
{
    // Every count runs from cycle 0; the window_* fields name the
    // measurement window.
    char head[256];
    std::snprintf(head, sizeof(head),
                  "[cpu] cycle=%llu retired=%llu last_retire_cycle=%llu "
                  "(%llu ago) window_start_cycle=%llu window_retired=%llu\n",
                  static_cast<unsigned long long>(now_),
                  static_cast<unsigned long long>(backend_->retired()),
                  static_cast<unsigned long long>(lastRetireCycle_),
                  static_cast<unsigned long long>(now_ - lastRetireCycle_),
                  static_cast<unsigned long long>(windowStart_.cycle),
                  static_cast<unsigned long long>(retired()));
    std::string out = head;
    if (lastResteerCycle_ != kInvalidCycle) {
        char rs[128];
        std::snprintf(rs, sizeof(rs),
                      "[resteer] last at cycle %llu (%llu ago) to pc=0x%llx\n",
                      static_cast<unsigned long long>(lastResteerCycle_),
                      static_cast<unsigned long long>(now_ -
                                                      lastResteerCycle_),
                      static_cast<unsigned long long>(lastResteerPc_));
        out += rs;
    } else {
        out += "[resteer] none yet\n";
    }
    out += ftq_->dumpState();
    out += fetch_->dumpState(now_);
    out += backend_->dumpState(now_);
    out += mem_->dumpState(now_);
    if (uftq_) {
        char u[64];
        std::snprintf(u, sizeof(u), "[uftq] commanded_depth=%u\n",
                      uftq_->currentDepth());
        out += u;
    }
    if (udp_) {
        char u[64];
        std::snprintf(u, sizeof(u), "[udp] seniority_ftq=%zu\n",
                      udp_->seniorityOccupancy());
        out += u;
    }
    return out;
}

CpuCounters
Cpu::counters() const
{
    CpuCounters c;
    c.cycle = now_;
    c.retired = backend_->retired();
    c.mem = mem_->stats();
    c.l1i = mem_->l1iStats();
    c.fdip = fdip_->stats();
    c.fetch = fetch_->stats();
    c.frontend = fe_->stats();
    c.bpu = bpu_->stats();
    c.ftq = ftq_->stats();
    if (udp_) {
        c.udp = udp_->stats();
        c.usefulSet = udp_->usefulSetStats();
    }
    return c;
}

void
Cpu::clearStats()
{
    windowStart_ = counters();
    intervalStart_ = windowStart_;
    if (uftq_) {
        uftq_->restartEpoch(mem_->stats(), mem_->l1iStats());
    }
    if (telemetry_) {
        telemetry_->clearStats();
    }
    if (profiler_) {
        profiler_->clearStats();
    }
}

} // namespace udp
