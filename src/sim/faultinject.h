/**
 * @file
 * Deterministic seeded fault injection: perturbs modeled state at a
 * chosen cycle to prove the watchdog and each invariant actually fire
 * (tests/test_faults.cc drives every kind). A FaultPlan rides inside
 * SimConfig, so faulty configurations flow through runSim()/sweeps like
 * any other sweep point.
 */

#ifndef UDP_SIM_FAULTINJECT_H
#define UDP_SIM_FAULTINJECT_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace udp {

class Cpu;

/** What to break. Expected detector in parentheses. */
enum class FaultKind : std::uint8_t {
    None,
    /** Mark an in-flight fill as never completing (MSHR leak invariant). */
    DropFill,
    /** Push an in-flight fill's completion far out (retire-stall
     *  watchdog: the frontend wedges behind the late line). */
    DelayFill,
    /** Allocate a fill-buffer entry nothing will ever drain (MSHR leak
     *  invariant). */
    LeakMshr,
    /** Allocate a second outstanding entry for an already-tracked line
     *  (MSHR duplicate invariant). */
    DuplicateMshr,
    /** Invalidate the newest FTQ entry's start address (FTQ
     *  well-formedness invariant). Sticky: re-applied every cycle so a
     *  flush cannot erase the corruption before a sweep observes it. */
    CorruptFtqEntry,
    /** Halt retirement permanently (retire-stall watchdog). */
    FreezeRetire,
    /** TEST-ONLY: raise a genuine SIGSEGV in the host process. Only
     *  meaningful under process isolation (sim/procexec.h) — in-process
     *  it kills the caller. Proves crash containment end to end. */
    CrashSegv,
    /** TEST-ONLY: allocate host memory without bound until the
     *  allocator fails (std::bad_alloc under RLIMIT_AS) or the kernel
     *  kills the process. Only meaningful under process isolation. */
    OomAlloc,
};

/** Stable snake_case name of @p k (labels, failure rows, tests). */
constexpr const char*
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::DropFill: return "drop_fill";
    case FaultKind::DelayFill: return "delay_fill";
    case FaultKind::LeakMshr: return "leak_mshr";
    case FaultKind::DuplicateMshr: return "duplicate_mshr";
    case FaultKind::CorruptFtqEntry: return "corrupt_ftq_entry";
    case FaultKind::FreezeRetire: return "freeze_retire";
    case FaultKind::CrashSegv: return "crash_segv";
    case FaultKind::OomAlloc: return "oom_alloc";
    }
    return "unknown";
}

/**
 * Inverse of faultKindName(). Returns false and leaves @p out untouched
 * for unknown names. Drives the UDP_BENCH_FAULT test hook
 * (bench/bench_util.h) and the CI crash-containment sweep.
 */
bool faultKindFromName(const std::string& name, FaultKind* out);

/** One planned perturbation (value type, lives in SimConfig). */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    /** First cycle injection is attempted; kinds that need a victim (an
     *  outstanding fill, a queued FTQ entry) retry every cycle until one
     *  exists. */
    Cycle triggerCycle = 0;
    /** Deterministic victim selection among eligible entries. */
    std::uint64_t seed = 1;
    /** DelayFill: cycles added to the victim fill's completion. */
    Cycle delay = 1'000'000'000;

    bool operator==(const FaultPlan&) const = default;
};

/**
 * Attempts to apply @p plan to @p cpu at cycle @p now. Returns true once
 * the perturbation landed (Cpu stops re-attempting, except for sticky
 * kinds — see FaultKind). Deterministic for a fixed (plan, workload,
 * config) triple.
 */
bool applyFault(Cpu& cpu, const FaultPlan& plan, Cycle now);

} // namespace udp

#endif // UDP_SIM_FAULTINJECT_H
