/**
 * @file
 * UDP: Utility-Driven instruction Prefetching (the paper's primary
 * contribution). Composes the off-path confidence estimator, the
 * Seniority-FTQ and the Bloom-filter useful-set into the filter FDIP
 * consults before emitting an assumed-off-path prefetch.
 */

#ifndef UDP_CORE_UDP_ENGINE_H
#define UDP_CORE_UDP_ENGINE_H

#include <cstdint>

#include "common/types.h"
#include "core/confidence.h"
#include "core/seniority_ftq.h"
#include "core/useful_set.h"
#include "frontend/ftq.h"

namespace udp {

/** Aggregate UDP configuration (defaults = the paper's 8KB design). */
struct UdpConfig
{
    ConfidenceConfig confidence;
    UsefulSetConfig usefulSet;
    SeniorityFtqConfig seniority;

    bool operator==(const UdpConfig&) const = default;
};

/** FDIP's query result for one candidate. */
struct UdpDecision
{
    bool emit = true;
    /** Matched super-block span in lines (1 when not filtered). */
    unsigned span = 1;
    /** Base address of the span to prefetch. */
    Addr base = kInvalidAddr;
};

/** UDP statistics. */
struct UdpStats
{
    std::uint64_t emittedFiltered = 0; ///< off-path-assumed, set hit
    std::uint64_t droppedFiltered = 0; ///< off-path-assumed, set miss
};

/** The UDP engine. */
class UdpEngine
{
  public:
    explicit UdpEngine(const UdpConfig& cfg);

    // --- frontend-side --------------------------------------------------
    /** A conditional direction was predicted with confidence @p c. */
    void onCondPredicted(Confidence c) { conf.onCondPredicted(c); }
    /** Decode resteered on a taken branch that missed the BTB. */
    void onBtbMissTaken();
    /** Tag for the next block the frontend builds. */
    bool assumedOffPath() const { return conf.assumedOffPath(); }

    // --- FDIP-side -------------------------------------------------------
    /**
     * Evaluates a prefetch candidate (a block in the FTQ whose line is not
     * resident). Uses the assumption tag captured when the block was
     * built. On-path-assumed candidates always emit.
     */
    UdpDecision evaluate(const FtqEntry& entry, Addr line);

    // --- backend-side ----------------------------------------------------
    /** The backend retired the (on-path) instruction at @p pc. */
    void onRetire(Addr pc);

    /** Pipeline flush at @p squash_after_dyn_id. */
    void onFlush(std::uint64_t squash_after_dyn_id);

    /** Periodic upkeep: evaluates the clear policy on the cumulative
     *  emitted-prefetch and unused-eviction counts (UsefulSet::maybeClear). */
    void maintain(std::uint64_t emitted, std::uint64_t unused)
    {
        set.maybeClear(emitted, unused);
    }

    /** Total storage budget in bits (paper: 8KB). */
    std::uint64_t storageBits() const;

    /** Invariant check (sim/invariants.h): Seniority-FTQ consistency.
     *  Returns the first violation, or "". */
    std::string checkInvariants() const { return sftq.checkInvariants(); }

    /** Seniority-FTQ occupancy (diagnostic dumps). */
    std::size_t seniorityOccupancy() const { return sftq.size(); }

    const UdpStats& stats() const { return stats_; }
    const UsefulSetStats& usefulSetStats() const { return set.stats(); }
    const SeniorityFtqStats& seniorityStats() const { return sftq.stats(); }

    /** Telemetry attachment (null = disabled); forwarded to the
     *  useful-set so filter clears surface as trace events. */
    void setTelemetry(Telemetry* t) { set.setTelemetry(t); }

  private:
    UdpConfig cfg;
    OffPathConfidence conf;
    UsefulSet set;
    SeniorityFtq sftq;
    UdpStats stats_;
};

} // namespace udp

#endif // UDP_CORE_UDP_ENGINE_H
