/**
 * @file
 * Fetch + decode stages: consume FTQ blocks, perform demand icache
 * accesses (merging with in-flight FDIP prefetches in the fill buffer),
 * and deliver decoded instructions to the backend. Implements Ishii-style
 * post-fetch correction: a branch decoded without having been predicted
 * (BTB miss) immediately fills the BTB, flushes the FTQ and resteers.
 */

#ifndef UDP_FRONTEND_FETCH_H
#define UDP_FRONTEND_FETCH_H

#include <cstdint>
#include <string>

#include "bpred/bpu.h"
#include "cache/memsys.h"
#include "common/ring.h"
#include "common/types.h"
#include "frontend/decoupled_fe.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "workload/program.h"

namespace udp {

class Eip;

/**
 * A decode-queue entry: the instruction's FTQ slot, as block building
 * filled it (decode correction may add a prediction), and the cycle its
 * decode completes.
 */
struct DecodedInstr
{
    FtqInstr fi;
    /** Cycle at which decode/rename completes (dispatchable). */
    Cycle readyAt = 0;
};

static_assert(sizeof(DecodedInstr) == 56, "keep the decode queue compact");

/** Fetch configuration. */
struct FetchConfig
{
    unsigned fetchWidth = 6;      ///< instructions delivered per cycle
    Cycle decodePipeLat = 4;      ///< fetch-to-dispatch pipeline depth
    unsigned decodeQueueMax = 48; ///< backpressure bound

    bool operator==(const FetchConfig&) const = default;
};

/** Fetch statistics. */
struct FetchStats
{
    /** Delivery slots lost while stalled on an icache miss (Fig. 15). */
    std::uint64_t lostSlotsIcacheMiss = 0;
    std::uint64_t decodeBtbCorrections = 0;
};

/** The fetch + decode pipeline front. */
class FetchStage
{
  public:
    FetchStage(const Program& prog, Bpu& bpu, MemSystem& mem, Ftq& ftq,
               DecoupledFrontend& fe, BranchRecordPool& records,
               const FetchConfig& cfg);

    /** Attaches EIP (nullptr = none), which observes every demand icache
     *  access, wrong path included. */
    void setEip(Eip* eip) { eip_ = eip; }

    /** One cycle of fetch + decode delivery. */
    void tick(Cycle now);

    /** Decode output queue (backend dispatch pulls from here). */
    Ring<DecodedInstr>& decodeQueue() { return decodeQ; }
    const Ring<DecodedInstr>& decodeQueue() const { return decodeQ; }

    /** Instructions of the head FTQ block already delivered to decode. */
    unsigned headDelivered() const { return headConsumed; }

    /** Squashes everything in fetch/decode (execute-stage resteer). */
    void flushAll();

    const FetchStats& stats() const { return stats_; }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

    /** Invariant check (sim/invariants.h): decode-queue bound and head
     *  progress consistency. Returns the first violation, or "". */
    std::string checkInvariants() const;

    /** Decode-queue / head-block summary for diagnostic reports. */
    std::string dumpState(Cycle now) const;

  private:
    /**
     * Post-fetch correction for one delivered instruction. Returns true
     * when a decode resteer happened (stop delivering younger).
     */
    bool postFetchCorrect(FtqInstr& fi, Cycle now);

    const Program& program;
    Bpu& bpu;
    MemSystem& mem;
    Ftq& ftq;
    DecoupledFrontend& frontend;
    BranchRecordPool& records;
    FetchConfig cfg;
    Eip* eip_ = nullptr;

    /** Sized to the bound checkInvariants() enforces: it never grows. */
    Ring<DecodedInstr> decodeQ;

    /** Per-head-block progress. */
    bool headAccessed = false;
    Cycle headReady = 0;
    unsigned headConsumed = 0;

    FetchStats stats_;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_FRONTEND_FETCH_H
