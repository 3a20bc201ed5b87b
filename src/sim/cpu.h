/**
 * @file
 * The top-level simulated CPU: owns all components, attaches the optional
 * UDP, UFTQ and EIP engines, advances the cycle loop, passes retirements
 * to UDP and applies resteers.
 */

#ifndef UDP_SIM_CPU_H
#define UDP_SIM_CPU_H

#include <memory>
#include <string>

#include "sim/simconfig.h"
#include "workload/program.h"
#include "workload/true_stream.h"

namespace udp {

/**
 * The cumulative counters a Report is derived from, read at one cycle.
 * The model never resets them: a measurement window is the difference
 * of two reads (counterDelta(), stats/stats.h), so every member must stay
 * a std::uint64_t.
 */
struct CpuCounters
{
    Cycle cycle = 0;
    std::uint64_t retired = 0;
    MemSysStats mem;
    CacheStats l1i;
    FdipStats fdip;
    FetchStats fetch;
    FrontendStats frontend;
    BpuStats bpu;
    FtqStats ftq;
    /** Zero when UDP is off, like the useful set's below. */
    UdpStats udp;
    UsefulSetStats usefulSet;
};

/** Cycle-level model of the whole system. */
class Cpu
{
  public:
    Cpu(const Program& prog, const SimConfig& cfg);

    /**
     * Advances one cycle. Raises SimHang when the forward-progress
     * watchdog trips (retirement stalled for watchdog.retireStallCycles,
     * or now() exceeded watchdog.maxCycles) and InvariantViolation when a
     * periodic invariant sweep finds corrupted modeled state.
     */
    void cycle();

    /** Runs until retired() reaches @p retire_target. */
    void runUntilRetired(std::uint64_t retire_target);

    /**
     * Multi-component diagnostic snapshot: cycle/retire progress, last
     * resteer, FTQ, decode queue, ROB/LSQ and fill-buffer occupancy with
     * oldest-entry ages. Attached to every SimError.
     */
    std::string dumpState() const;

    /**
     * Starts the measurement window: records counters() as its start,
     * which also opens the first telemetry interval. No model counter is
     * reset. Telemetry and the profiler restart their own windows, and
     * UFTQ restarts its epoch (UftqController::restartEpoch).
     */
    void clearStats();

    /** The cumulative counters as of now. */
    CpuCounters counters() const;
    /** counters() at the last clearStats() (all zero before it). */
    const CpuCounters& windowStart() const { return windowStart_; }

    Cycle now() const { return now_; }
    /** Cycles elapsed since the last clearStats() (measurement window). */
    Cycle cyclesSinceClear() const { return now_ - windowStart_.cycle; }
    /** Instructions retired since the last clearStats(). */
    std::uint64_t retired() const
    {
        return backend_->retired() - windowStart_.retired;
    }

    /** The architectural stream the frontend and backend are scored
     *  against. */
    const TrueStream& stream() const { return *stream_; }
    const MemSystem& mem() const { return *mem_; }
    const Bpu& bpu() const { return *bpu_; }
    const Ftq& ftq() const { return *ftq_; }
    const FdipEngine& fdip() const { return *fdip_; }
    const FetchStage& fetch() const { return *fetch_; }
    const DecoupledFrontend& frontend() const { return *fe_; }
    const Backend& backend() const { return *backend_; }
    const BranchRecordPool& records() const { return records_; }
    const UdpEngine* udp() const { return udp_.get(); }
    const UftqController* uftq() const { return uftq_.get(); }
    const Eip* eip() const { return eip_.get(); }
    /** Telemetry collector (null unless SimConfig::telemetry.enabled). */
    Telemetry* telemetry() const { return telemetry_.get(); }
    /** Cycle-loop self-profiler (null unless SimConfig::profile.enabled). */
    obs::CycleProfiler* profiler() const { return profiler_.get(); }

    const SimConfig& config() const { return cfg; }

  private:
    /** Fault injection perturbs component state through Cpu's internals. */
    friend bool applyFault(Cpu& cpu, const FaultPlan& plan, Cycle now);

    /**
     * One cycle of cycle(). step<true> brackets each section with the
     * profiler's phase switches; step<false> holds no profiler call, so
     * an unprofiled run pays one test per cycle, in cycle().
     */
    template <bool kProfiled>
    void step();

    void applyResteer(const ResteerRequest& req);

    SimConfig cfg;
    const Program& program;

    std::unique_ptr<TrueStream> stream_;
    std::unique_ptr<Bpu> bpu_;
    std::unique_ptr<MemSystem> mem_;
    std::unique_ptr<Ftq> ftq_;
    BranchRecordPool records_;
    std::unique_ptr<DecoupledFrontend> fe_;
    std::unique_ptr<FetchStage> fetch_;
    std::unique_ptr<FdipEngine> fdip_;
    std::unique_ptr<Backend> backend_;
    std::unique_ptr<UdpEngine> udp_;
    std::unique_ptr<UftqController> uftq_;
    std::unique_ptr<Eip> eip_;
    std::unique_ptr<Telemetry> telemetry_;
    std::unique_ptr<obs::CycleProfiler> profiler_;

    Cycle now_ = 0;
    CpuCounters windowStart_;
    /** counters() at the open telemetry interval's start. */
    CpuCounters intervalStart_;

    // Watchdog / diagnostic tracking.
    Cycle lastRetireCycle_ = 0;          ///< cycle retired() last advanced
    std::uint64_t lastRetiredSeen_ = 0;  ///< retired() at that cycle
    Cycle lastResteerCycle_ = kInvalidCycle;
    Addr lastResteerPc_ = kInvalidAddr;
    bool faultApplied_ = false;
};

} // namespace udp

#endif // UDP_SIM_CPU_H
