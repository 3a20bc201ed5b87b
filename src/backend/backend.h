/**
 * @file
 * The out-of-order backend: ROB / unified RS / LSQ with event-driven
 * wakeup (per-producer consumer lists feeding a ready bitmap walked
 * oldest first), completion through a cycle-indexed timing wheel,
 * functional-unit constraints, branch resolution (including
 * wrong-path branches, which can re-resteer the wrong path — Scarab's
 * "multiple consequent mispredictions"), recovery, and in-order retirement
 * that trains the predictors and feeds UDP's Seniority-FTQ.
 */

#ifndef UDP_BACKEND_BACKEND_H
#define UDP_BACKEND_BACKEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/bpu.h"
#include "cache/memsys.h"
#include "common/types.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "workload/program.h"
#include "workload/true_stream.h"

namespace udp {

/** Backend configuration (Table II). */
struct BackendConfig
{
    unsigned robSize = 352;
    unsigned rsSize = 125;
    unsigned lqSize = 64;
    unsigned sqSize = 64;
    unsigned dispatchWidth = 6;
    unsigned issueWidth = 6;
    unsigned retireWidth = 6;
    unsigned numAlu = 4;
    unsigned numLoad = 2;
    unsigned numStore = 2;
    /** Issue-to-resolution latency of a branch. */
    Cycle branchExecLat = 2;

    bool operator==(const BackendConfig&) const = default;
};

/** A resteer demand raised by branch resolution. */
struct ResteerRequest
{
    bool valid = false;
    Addr newPc = kInvalidAddr;
    bool aligned = false;
    std::uint64_t nextStreamIdx = 0;
    /** dynId of the resolving branch (squash-younger boundary). */
    std::uint64_t squashAfterDynId = 0;
    /** The resolving branch was on the architectural path. */
    bool fromOnPath = false;
};

/** Backend statistics. */
struct BackendStats
{
    std::uint64_t retired = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashed = 0;
    std::uint64_t branchesResolved = 0;
};

/** The backend pipeline. */
class Backend
{
  public:
    Backend(const Program& prog, TrueStream& stream, MemSystem& mem,
            Bpu& bpu, BranchRecordPool& records, const BackendConfig& cfg);

    /** Room for one more instruction of @p fi's type? */
    bool canDispatch(const FtqInstr& fi) const;

    /** Accepts an instruction (its FTQ slot) from the decode queue. */
    void dispatch(const FtqInstr& fi, Cycle now);

    /**
     * One backend cycle: completion/resolution, recovery selection,
     * retirement, then issue. Returns a resteer request when the oldest
     * mispredicted branch resolved this cycle.
     */
    ResteerRequest tick(Cycle now);

    /** Pcs the last tick() retired, oldest first (at most retireWidth). */
    const std::vector<Addr>& retiredPcs() const { return retiredPcs_; }

    std::uint64_t retired() const { return stats_.retired; }
    std::size_t robOccupancy() const { return robCount; }

    /** The instruction in ROB entry @p i, oldest (0) to youngest. */
    const FtqInstr& robInstr(std::size_t i) const
    {
        return slot(robBasePos + i).fi;
    }

    const BackendStats& stats() const { return stats_; }

    /**
     * Fault-injection hook (sim/faultinject.h): while frozen, retirement
     * makes no progress (the rest of the pipeline keeps running until it
     * backs up behind the full ROB).
     */
    void setRetireFrozen(bool frozen) { retireFrozen = frozen; }

    /**
     * Invariant check (sim/invariants.h): ROB/RS/LSQ occupancy bounds.
     * @p full additionally recomputes the load/store in-flight credits
     * from ROB contents (conservation across dispatch/squash/retire) and
     * checks the scheduler against a fresh dependence scan: wait masks,
     * the ready bitmap, every consumer-list link, the unissued count, and
     * a pending completion-wheel bit for every issued, uncompleted entry.
     * Returns the first violation, or "".
     */
    std::string checkInvariants(bool full) const;

    /** ROB occupancy + oldest-entry summary for diagnostic reports; its
     *  retired= is retired(), counted from cycle 0. */
    std::string dumpState(Cycle now) const;

  private:
    /**
     * A consumer-list link names one source operand of one ROB entry:
     * (dispatch position << 1) | operand. Each producer heads a singly
     * linked list of the operands still waiting on it, youngest first.
     */
    using Link = std::uint64_t;
    static constexpr Link kNoLink = ~Link{0};

    struct RobEntry
    {
        /** The instruction's FTQ slot; its static fields are
         *  program.instrAt(fi.idx) (see instrOf()). */
        FtqInstr fi;
        std::uint64_t pos = 0; ///< dense dispatch position
        bool issued = false;
        bool completed = false;
        bool resolved = false;
        bool resteerHandled = false;
        bool mispredicted = false;
        bool actualTaken = false;
        /** Bit k set: operand k waits on an uncompleted ROB producer. */
        std::uint8_t waiting = 0;
        Addr actualNext = kInvalidAddr;
        Cycle completeAt = kInvalidCycle;
        Cycle dispatchedAt = 0; ///< for age reporting in dumps
        Link consumers = kNoLink; ///< head of this producer's list
        Link next[2] = {kNoLink, kNoLink}; ///< per-operand list successor
    };

    static_assert(sizeof(RobEntry) == 112, "keep dispatch's fill small");

    /** The static instruction of @p e: type, branch kind, latency and
     *  dependence distances. */
    const Instr& instrOf(const RobEntry& e) const
    {
        return program.instrAt(e.fi.idx);
    }

    /** The ROB slot of @p pos (valid only while @p pos is in the ROB). */
    RobEntry& slot(std::uint64_t pos) { return rob[pos & robMask]; }
    const RobEntry& slot(std::uint64_t pos) const
    {
        return rob[pos & robMask];
    }
    bool inRob(std::uint64_t pos) const
    {
        return pos >= robBasePos && pos - robBasePos < robCount;
    }
    RobEntry* entryAt(std::uint64_t pos)
    {
        return inRob(pos) ? &slot(pos) : nullptr;
    }

    static constexpr std::uint64_t kNoPos = ~std::uint64_t{0};

    /** Position of operand @p k's producer if it is in the ROB, or
     *  kNoPos (no such operand, or the producer already retired). */
    std::uint64_t producerPos(const RobEntry& e, unsigned k) const;

    /** Bit of ROB slot @p s in the bitmap that starts at @p bits. */
    static bool testBit(const std::uint64_t* bits, std::size_t s)
    {
        return (bits[s >> 6] >> (s & 63)) & 1u;
    }
    static void setBit(std::uint64_t* bits, std::size_t s)
    {
        bits[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    static void clearBit(std::uint64_t* bits, std::size_t s)
    {
        bits[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }

    /**
     * Calls @p f with each ROB slot whose bit is set in the slot bitmap
     * @p bits, oldest first; stops when @p f returns false. Each word is
     * read before its bits are visited, so @p f may clear the bit it is
     * given.
     */
    template <typename F>
    void forEachRobSlot(const std::uint64_t* bits, F&& f) const;

    /** The wheel bucket (a slot bitmap) of completions due at @p when. */
    std::uint64_t* bucket(Cycle when)
    {
        return &wheel[(when & (kWheelCycles - 1)) * robWords];
    }
    const std::uint64_t* bucket(Cycle when) const
    {
        return &wheel[(when & (kWheelCycles - 1)) * robWords];
    }

    /** Completes @p e: wakes its consumers and resolves a branch. */
    void complete(RobEntry& e);

    /** Resolves the branch in @p e (fills actual outcome/mispredict). */
    void resolveBranch(RobEntry& e);

    /** Squashes all entries younger than @p pos. */
    void squashAfter(std::uint64_t pos);

    /** Completes every entry due by @p now, from the wheel buckets of the
     *  cycles since the previous call (one bucket when ticked each cycle). */
    void completeReady(Cycle now);
    ResteerRequest handleRecovery(Cycle now);
    void retire(Cycle now);
    void issue(Cycle now);

    const Program& program;
    TrueStream& stream;
    MemSystem& mem;
    Bpu& bpu;
    BranchRecordPool& records;
    BackendConfig cfg;

    /** Ring of power-of-two capacity >= robSize, indexed pos & robMask. */
    std::vector<RobEntry> rob;
    std::uint64_t robMask = 0;
    std::uint64_t robBasePos = 0; ///< pos of the oldest entry
    std::size_t robCount = 0;
    /** Words of one slot bitmap: one bit per ROB slot (8 at 512). */
    std::size_t robWords = 0;
    /** Bit per unissued entry with no waiting operand. */
    std::vector<std::uint64_t> readyBits;
    unsigned unissuedCount = 0; ///< RS occupancy

    /**
     * Completion timing wheel: kWheelCycles slot bitmaps, and an entry
     * due at cycle c sets its slot's bit in bucket c & (kWheelCycles - 1).
     * An entry due in a later rotation (a DRAM backlog) keeps its bit
     * until the wheel comes round to its cycle. A squash leaves its
     * victims' bits behind: completeReady() visits the ROB's slots only,
     * and drops a bit whose slot holds no issued, uncompleted entry due
     * in that bucket.
     */
    static constexpr std::size_t kWheelCycles = 64;
    std::vector<std::uint64_t> wheel;
    Cycle lastCompleted = 0; ///< the @p now of the last completeReady()

    /** Positions of resolved-mispredicted branches awaiting recovery. */
    std::vector<std::uint64_t> pendingRecovery;

    /** Reserved to retireWidth up front: filling it never allocates. */
    std::vector<Addr> retiredPcs_;

    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    bool retireFrozen = false; ///< fault-injection: stall retirement

    BackendStats stats_;
};

} // namespace udp

#endif // UDP_BACKEND_BACKEND_H
