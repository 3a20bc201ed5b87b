/**
 * @file
 * The decoupled frontend: walks the static code image under branch
 * prediction, producing fetch blocks into the FTQ ahead of the fetch
 * engine (FDIP's prefetch source). Tracks ground-truth path alignment
 * against the architectural stream for statistics and recovery, and
 * raises UDP's confidence events when a UdpEngine is attached.
 */

#ifndef UDP_FRONTEND_DECOUPLED_FE_H
#define UDP_FRONTEND_DECOUPLED_FE_H

#include <cstdint>

#include "bpred/bpu.h"
#include "common/types.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "workload/program.h"
#include "workload/true_stream.h"

namespace udp {

/** Frontend configuration. */
struct FrontendConfig
{
    /** Fetch blocks generated per cycle (Table II: 2). */
    unsigned blocksPerCycle = 2;
    /** Redirect bubble after an execute-stage resteer. */
    Cycle execResteerPenalty = 3;
    /** Redirect bubble after a decode-stage (post-fetch) resteer. */
    Cycle decodeResteerPenalty = 4;

    bool operator==(const FrontendConfig&) const = default;
};

/** The predicted outcome of one control-transfer instruction. */
struct Prediction
{
    bool taken = false;
    Addr target = kInvalidAddr;
};

/** Frontend statistics. */
struct FrontendStats
{
    std::uint64_t instrsEmitted = 0;
    std::uint64_t onPathInstrs = 0;
    std::uint64_t offPathInstrs = 0;
    std::uint64_t resteers = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t stallCyclesFtqFull = 0;
};

class UdpEngine;

/** The block-building decoupled frontend. */
class DecoupledFrontend
{
  public:
    DecoupledFrontend(const Program& prog, TrueStream& stream, Bpu& bpu,
                      Ftq& ftq, BranchRecordPool& records,
                      const FrontendConfig& cfg);

    /** Attaches UDP (nullptr = none): it sees every conditional
     *  prediction and decode resteer, and tags each new block. */
    void setUdp(UdpEngine* udp) { udp_ = udp; }

    /** Builds up to blocksPerCycle fetch blocks. */
    void tick(Cycle now);

    /**
     * The one prediction switch, for block building (BTB hit) and
     * post-fetch correction (BTB miss found at decode): predicts the
     * @p kind branch at @p pc into @p rec. Calls push pc+4 on the RAS.
     * The target is @p known_target for direct branches; the ITTAGE's,
     * else @p known_target, else pc+4 for indirect ones; the RAS's, else
     * pc+4, for returns. A conditional's confidence goes to UDP.
     */
    Prediction predict(BranchKind kind, Addr pc, Addr known_target,
                       BranchRecord& rec);

    /**
     * Redirects the frontend (execute- or decode-stage resteer).
     * @param resume_at first cycle block building resumes
     * @param new_pc next fetch address
     * @param aligned the redirect lands on the architectural path
     * @param next_stream_idx TrueStream position of new_pc when aligned
     * @param from_decode a decode resteer, which only a taken branch that
     *        missed the BTB causes: raises UDP's BTB-miss bump
     */
    void resteer(Cycle resume_at, Addr new_pc, bool aligned,
                 std::uint64_t next_stream_idx, bool from_decode);

    const FrontendStats& stats() const { return stats_; }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    /** Builds one fetch block; returns false when the FTQ is full. */
    bool buildBlock(Cycle now);

    /** Clamps a speculative pc into the code image (wrap-around). */
    Addr clampPc(Addr a) const;

    const Program& program;
    TrueStream& stream;
    Bpu& bpu;
    Ftq& ftq;
    BranchRecordPool& records;
    FrontendConfig cfg;
    UdpEngine* udp_ = nullptr;

    Addr pc;
    bool aligned = true;
    std::uint64_t streamIdx = 0;
    Cycle stallUntil = 0;
    std::uint64_t dynIdCounter = 1;
    FrontendStats stats_;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_FRONTEND_DECOUPLED_FE_H
