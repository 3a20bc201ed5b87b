/**
 * @file
 * Cycle-loop self-profiler (docs/OBSERVABILITY.md §profiler).
 *
 * Attributes the simulator's *own* wall-clock — where does a simulated
 * cycle's host time go? — to coarse pipeline phases: icache/memory,
 * backend, fetch, branch prediction, prefetcher, other. This is the
 * measurement layer behind ROADMAP.md's "Cycle loop: the next targets":
 * every perf change can show where time moved, not just how much.
 *
 * Design: a phase-SWITCHING timer, not nested scoped timers. Cpu::cycle()
 * calls phase(p) at each section boundary; the elapsed time since the
 * previous switch is charged to the phase being *left*. One steady_clock
 * read per switch (9 reads per profiled cycle), and every nanosecond
 * between beginCycle() and endCycle() lands in exactly one phase — so
 * per-phase attribution sums to the measured loop time by construction.
 * Those reads are not free: the benchmark's traced pass measures
 * prof.overhead_frac ≈ 1.2 (a profiled loop runs about 2.2× as long as
 * the plain one), so phase shares only give direction.
 *
 * Cpu::cycle() tests for a profiler once per cycle and runs one of two
 * instantiations of Cpu::step(): with a profiler, the one that calls it;
 * without, the one that holds no profiler call at all. Results ride on
 * the Report as a shared_ptr side-channel (outside the serialized stat
 * schema), keeping all artifacts byte-identical whether profiling is on
 * or off.
 */

#ifndef UDP_OBS_PROFILER_H
#define UDP_OBS_PROFILER_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace udp {

namespace obs {

/** Wall-time attribution buckets for one simulated cycle. */
enum class ProfPhase : std::uint8_t
{
    Icache = 0,  ///< MemSystem::tick (caches, MSHRs, fill buffers)
    Backend,     ///< Backend::tick + resteer handling + dispatch
    Fetch,       ///< FetchStage::tick (fetch + decode pipe)
    Bpred,       ///< DecoupledFrontend::tick (BPU-driven FTQ fill)
    Prefetch,    ///< FdipEngine::tick + UDP/UFTQ maintenance
    Other,       ///< fault hooks, telemetry, watchdog, loop remainder
};

inline constexpr std::size_t kNumProfPhases = 6;

const char* profPhaseName(ProfPhase p);

/** One profiler reporting interval: the cycles up to one closeInterval()
 *  (Cpu closes it with each telemetry interval row). */
struct ProfileIntervalRow
{
    Cycle cycleStart = 0;
    Cycle cycleEnd = 0;
    double phaseSec[kNumProfPhases] = {};
    double totalSec() const;
};

/** End-of-window profile attached to Report::profile. */
struct ProfileSnapshot
{
    double phaseSec[kNumProfPhases] = {};
    double totalSec = 0.0; ///< sum of phaseSec (the attributed loop time)
    std::uint64_t cycles = 0;
    std::vector<ProfileIntervalRow> intervals;

    /** Fraction of attributed time in @p p (0 when nothing measured). */
    double phaseFrac(ProfPhase p) const;
};

class CycleProfiler
{
  public:
    /** Starts a cycle: the clock starts ticking against Other. */
    void beginCycle(Cycle now)
    {
        nowCycle_ = now;
        if (cycles_ == 0 && intervals_.empty()) {
            intervalStartCycle_ = now;
        }
        last_ = Clock::now();
        cur_ = ProfPhase::Other;
    }

    /** Charges time since the last switch to the current phase, then
     *  switches to @p p. */
    void phase(ProfPhase p)
    {
        Clock::time_point t = Clock::now();
        acc_[static_cast<std::size_t>(cur_)] +=
            std::chrono::duration<double>(t - last_).count();
        last_ = t;
        cur_ = p;
    }

    /** Ends the cycle: charges the trailing segment to the phase that is
     *  still open. */
    void endCycle()
    {
        phase(ProfPhase::Other);
        ++cycles_;
    }

    /** Closes the current interval at the current cycle, charging the
     *  time since the last switch to it. Cpu::cycle() calls this when it
     *  closes a telemetry interval row, so row i of both ends on the same
     *  cycle; without telemetry the window is one interval. */
    void closeInterval();

    /** Resets the measurement window (Cpu::clearStats): the profile
     *  times only the window's cycles. */
    void clearStats();

    /** Copy of the window so far; a trailing partial interval is closed
     *  into the copy without perturbing live state. */
    std::shared_ptr<const ProfileSnapshot> snapshot() const;

    std::uint64_t cycles() const { return cycles_; }

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point last_{};
    ProfPhase cur_ = ProfPhase::Other;
    double acc_[kNumProfPhases] = {};   ///< current (open) interval
    double total_[kNumProfPhases] = {}; ///< whole window
    Cycle intervalStartCycle_ = 0;
    Cycle nowCycle_ = 0;
    std::uint64_t cycles_ = 0;
    std::vector<ProfileIntervalRow> intervals_;
};

} // namespace obs

/** Simulator self-profiling knobs (SimConfig::profile). */
struct ProfileConfig
{
    bool enabled = false;

    bool operator==(const ProfileConfig&) const = default;
};

} // namespace udp

#endif // UDP_OBS_PROFILER_H
