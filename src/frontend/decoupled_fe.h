/**
 * @file
 * The decoupled frontend: walks the static code image under branch
 * prediction, producing fetch blocks into the FTQ ahead of the fetch
 * engine (FDIP's prefetch source). Tracks ground-truth path alignment
 * against the architectural stream for statistics and recovery.
 */

#ifndef UDP_FRONTEND_DECOUPLED_FE_H
#define UDP_FRONTEND_DECOUPLED_FE_H

#include <cstdint>
#include <functional>

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

/** Hooks the frontend raises towards UDP (optional; may be empty). */
struct FrontendHooks
{
    /** A conditional direction was predicted with this confidence. */
    std::function<void(Confidence)> onCondPredicted;
    /** A predicted-taken branch missed the BTB (decode detected). */
    std::function<void()> onBtbMissTaken;
    /** Current off-path assumption for tagging new blocks. */
    std::function<bool()> assumedOffPath;
};

/** Frontend statistics. */
struct FrontendStats
{
    std::uint64_t blocksBuilt = 0;
    std::uint64_t instrsEmitted = 0;
    std::uint64_t onPathInstrs = 0;
    std::uint64_t offPathInstrs = 0;
    std::uint64_t resteers = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t stallCyclesFtqFull = 0;
    std::uint64_t stallCyclesRedirect = 0;
};

/** The block-building decoupled frontend. */
class DecoupledFrontend
{
  public:
    DecoupledFrontend(const Program& prog, TrueStream& stream, Bpu& bpu,
                      Ftq& ftq, BranchRecordPool& records,
                      const FrontendConfig& cfg);

    /** Builds up to blocksPerCycle fetch blocks. */
    void tick(Cycle now);

    /**
     * Redirects the frontend (execute- or decode-stage resteer).
     * @param resume_at first cycle block building resumes
     * @param new_pc next fetch address
     * @param aligned the redirect lands on the architectural path
     * @param next_stream_idx TrueStream position of new_pc when aligned
     * @param from_decode accounting only
     */
    void resteer(Cycle resume_at, Addr new_pc, bool aligned,
                 std::uint64_t next_stream_idx, bool from_decode);

    Addr specPc() const { return pc; }
    bool isAligned() const { return aligned; }
    std::uint64_t streamIndex() const { return streamIdx; }
    std::uint64_t nextDynId() const { return dynIdCounter; }

    FrontendHooks& hooks() { return hooks_; }

    const FrontendStats& stats() const { return stats_; }
    void clearStats() { stats_ = FrontendStats(); }

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
    FrontendHooks hooks_;

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
