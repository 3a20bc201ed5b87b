/**
 * @file
 * UFTQ: application-specific dynamic FTQ sizing (paper Section IV-A).
 * Monitors the utility (AUR) and timeliness (ATR) of emitted prefetches in
 * 1000-prefetch epochs and adapts the FTQ depth. Three variants:
 *  - UFTQ-AUR:      utility-only feedback
 *  - UFTQ-ATR:      timeliness-only feedback
 *  - UFTQ-ATR-AUR:  finds QD_AUR then QD_ATR and combines them with the
 *    paper's regression polynomial; always-on to follow phase changes.
 *
 * Hardware cost modelled by the paper: four 10-bit counters + two 32-bit
 * fixed-point ratio registers + a small state machine.
 */

#ifndef UDP_CORE_UFTQ_H
#define UDP_CORE_UFTQ_H

#include <cstdint>
#include <string>

#include "cache/memsys.h"
#include "frontend/ftq.h"

namespace udp {

/** UFTQ variant. */
enum class UftqMode : std::uint8_t { Off, Aur, Atr, AtrAur };

/** Configuration. */
struct UftqConfig
{
    UftqMode mode = UftqMode::Off;
    /** Target utility ratio. The paper trains this globally on its
     *  simulator (0.65); retrained on this simulator's Table III geomean
     *  (see EXPERIMENTS.md). */
    double aur = 0.78;
    /** Target timeliness ratio (paper: 0.75; retrained likewise). */
    double atr = 0.92;
    /** Hold depth when a measurement is within this band of its target
     *  (suppresses oscillation around the converged depth). */
    double deadband = 0.04;
    /** Prefetches per measurement epoch. */
    std::uint64_t epochPrefetches = 1000;
    /** Depth adjustment per epoch. */
    unsigned step = 8;
    unsigned minDepth = 8;
    unsigned initialDepth = 32;
    /** Search epochs per phase in ATR-AUR mode. */
    unsigned searchEpochs = 8;
    /** Epochs the combined depth is held before re-searching. */
    unsigned holdEpochs = 32;

    bool operator==(const UftqConfig&) const = default;
};

/** Statistics. */
struct UftqStats
{
    std::uint64_t epochs = 0;
    std::uint64_t increases = 0;
    std::uint64_t decreases = 0;
    std::uint64_t applies = 0; ///< polynomial applications (ATR-AUR)
};

/** The UFTQ controller; owns the FTQ's dynamic capacity. */
class UftqController
{
  public:
    UftqController(Ftq& ftq, const UftqConfig& cfg);

    /**
     * Feeds the controller the current cumulative hardware counters; call
     * once per cycle. Epoch boundaries are detected internally from the
     * emitted-prefetch count.
     */
    void tick(const MemSysStats& mem, const CacheStats& l1i);

    /** The paper's regression polynomial combining QD_AUR and QD_ATR. */
    static double combine(double qd_aur, double qd_atr);

    unsigned currentDepth() const { return depth; }

    /** Invariant check (sim/invariants.h): the commanded depth stays in
     *  [minDepth, physical] and agrees with the FTQ's dynamic capacity.
     *  Returns the first violation, or "". */
    std::string checkInvariants() const;

    const UftqStats& stats() const { return stats_; }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

    /**
     * Starts a new epoch at the current counters @p mem and @p l1i,
     * discarding the open epoch's progress. tick() calls it at every
     * epoch boundary. Cpu::clearStats also calls it at the
     * measurement-window start, so measuring perturbs UFTQ's epochs;
     * ROADMAP.md, "The model must not read its own statistics", deletes
     * that call.
     */
    void restartEpoch(const MemSysStats& mem, const CacheStats& l1i)
    {
        epochMem = mem;
        epochL1i = l1i;
    }

  private:
    enum class Phase : std::uint8_t { SearchAur, SearchAtr, Hold };

    /** One epoch step of a single-metric rule; returns the new depth. */
    unsigned ruleStep(double measured, double target, bool timeliness_rule);

    void applyDepth(unsigned d);

    Ftq& ftq;
    UftqConfig cfg;
    unsigned depth;
    Telemetry* telem_ = nullptr;

    // The counters at the open epoch's start: an epoch's counts are
    // their counterDelta() from the current ones.
    MemSysStats epochMem;
    CacheStats epochL1i;

    // ATR-AUR state machine.
    Phase phase = Phase::SearchAur;
    unsigned phaseEpochs = 0;
    unsigned qdAur = 0;
    unsigned qdAtr = 0;

    UftqStats stats_;
};

} // namespace udp

#endif // UDP_CORE_UFTQ_H
