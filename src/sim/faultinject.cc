#include "sim/faultinject.h"

#include <csignal>
#include <cstdio>
#include <vector>

#include "backend/backend.h"
#include "cache/memsys.h"
#include "frontend/ftq.h"
#include "sim/cpu.h"

namespace udp {

namespace {

/**
 * Picks a fill-buffer victim deterministically. Demand entries are
 * preferred: the fetch stage is certain to touch their lines again, so
 * perturbing one reliably propagates into an observable stall.
 */
MshrEntry*
pickFillVictim(MshrFile& mshr, std::uint64_t seed)
{
    unsigned demand = 0;
    unsigned total = 0;
    for (unsigned i = 0;; ++i) {
        MshrEntry* e = mshr.validEntryForFault(i);
        if (e == nullptr) {
            break;
        }
        ++total;
        if (!e->isPrefetch) {
            ++demand;
        }
    }
    if (total == 0) {
        return nullptr;
    }
    if (demand > 0) {
        unsigned nth = static_cast<unsigned>(seed % demand);
        for (unsigned i = 0, seen = 0;; ++i) {
            MshrEntry* e = mshr.validEntryForFault(i);
            if (e == nullptr) {
                return nullptr;
            }
            if (!e->isPrefetch && seen++ == nth) {
                return e;
            }
        }
    }
    return mshr.validEntryForFault(static_cast<unsigned>(seed % total));
}

} // namespace

bool
applyFault(Cpu& cpu, const FaultPlan& plan, Cycle now)
{
    if (plan.kind == FaultKind::None || now < plan.triggerCycle) {
        return false;
    }

    MshrFile& fill = cpu.mem_->fillBuffer();
    switch (plan.kind) {
      case FaultKind::None:
        return false;

      case FaultKind::DropFill: {
        MshrEntry* e = pickFillVictim(fill, plan.seed);
        if (e == nullptr) {
            return false; // nothing outstanding yet: retry next cycle
        }
        fill.setReady(*e, kInvalidCycle);
        return true;
      }

      case FaultKind::DelayFill: {
        MshrEntry* e = pickFillVictim(fill, plan.seed);
        if (e == nullptr) {
            return false;
        }
        fill.setReady(*e, now + plan.delay);
        return true;
      }

      case FaultKind::LeakMshr: {
        // A synthetic line no workload address maps to (program images
        // start at low addresses), with the never-drains sentinel.
        Addr line = lineAddr(0xFA17'0000'0000ull + plan.seed * kLineBytes);
        return fill.allocate(line, kInvalidCycle, /*is_prefetch=*/true,
                             now) != nullptr;
      }

      case FaultKind::DuplicateMshr: {
        MshrEntry* e = pickFillVictim(fill, plan.seed);
        if (e == nullptr) {
            return false;
        }
        // Second outstanding entry for the same line. Both entries get the
        // sentinel ready: if either drained before the next invariant
        // sweep, the survivor would be reported as a leak rather than as
        // the duplicate pair this fault exists to exercise.
        if (fill.allocate(e->line, kInvalidCycle, e->isPrefetch, now) ==
            nullptr) {
            return false;
        }
        fill.setReady(*e, kInvalidCycle);
        return true;
      }

      case FaultKind::CorruptFtqEntry: {
        Ftq& ftq = *cpu.ftq_;
        if (ftq.empty()) {
            return false;
        }
        // Invalidate the start address rather than growing numInstrs: the
        // fetch and resteer paths index instrs[] by numInstrs, so an
        // oversized count would read out of bounds in the *host* — the
        // fault must corrupt modeled state, not the simulator.
        ftq.at(plan.seed % ftq.size()).startPc = kInvalidAddr;
        return true;
      }

      case FaultKind::FreezeRetire:
        cpu.backend_->setRetireFrozen(true);
        return true;

      case FaultKind::CrashSegv:
        // TEST-ONLY: a genuine host crash for the process-isolation
        // harness. The stderr line lets the parent's captured tail prove
        // the crash originated here.
        std::fprintf(stderr, "[fault] crash_segv: raising SIGSEGV\n");
        std::fflush(stderr);
        std::raise(SIGSEGV);
        return true;

      case FaultKind::OomAlloc: {
        // TEST-ONLY: unbounded, touched allocation. Under RLIMIT_AS this
        // throws std::bad_alloc (the vector frees what it hogged during
        // unwinding, so the isolated child can still report the error);
        // without a limit the kernel eventually SIGKILLs the process.
        std::fprintf(stderr, "[fault] oom_alloc: allocating unboundedly\n");
        std::fflush(stderr);
        std::vector<std::vector<char>> hog;
        for (;;) {
            hog.emplace_back(std::size_t{16} << 20, char{1});
        }
      }
    }
    return false;
}

bool
faultKindFromName(const std::string& name, FaultKind* out)
{
    for (FaultKind k :
         {FaultKind::None, FaultKind::DropFill, FaultKind::DelayFill,
          FaultKind::LeakMshr, FaultKind::DuplicateMshr,
          FaultKind::CorruptFtqEntry, FaultKind::FreezeRetire,
          FaultKind::CrashSegv, FaultKind::OomAlloc}) {
        if (name == faultKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

} // namespace udp
