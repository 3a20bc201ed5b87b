/**
 * @file
 * The Fetch Target Queue: fetch blocks produced by the decoupled frontend,
 * consumed by the fetch stage and scanned by FDIP. Capacity is dynamic
 * (bounded by the physical size) — the knob UFTQ turns. The queue keeps
 * FDIP's scan cursor, since every pop and flush passes through it.
 */

#ifndef UDP_FRONTEND_FTQ_H
#define UDP_FRONTEND_FTQ_H

#include <array>
#include <cstdint>
#include <string>

#include "common/ring.h"
#include "common/types.h"
#include "workload/isa.h"

namespace udp {

class Telemetry;

/**
 * One instruction slot inside a fetch block: the one record an
 * instruction carries from block building through the decode queue into
 * the ROB. Static fields (type, branch kind, latency, dependences) are
 * not copied in; readers look them up with Program::instrAt(idx).
 */
struct FtqInstr
{
    InstIdx idx = 0;
    /** Pool slot of this branch's prediction record; set exactly when
     *  the frontend predicted the instruction as a branch (a BTB hit, or
     *  decode's post-fetch correction), kNoRecord otherwise. */
    RecordHandle record = kNoRecord;
    Addr pc = kInvalidAddr;
    /** Unique dynamic id assigned by the frontend (key for records). */
    std::uint64_t dynId = 0;
    /** Absolute TrueStream position (valid only when onPath). */
    std::uint64_t streamIdx = 0;
    Addr predTarget = kInvalidAddr;
    /** Ground truth: lies on the architectural path. */
    bool onPath = false;
    bool predTaken = false;
};

static_assert(sizeof(FtqInstr) == 48, "keep the in-flight record compact");

/**
 * One fetch block (32 B aligned region, terminated early by taken CTI).
 * Only instrs[0, numInstrs) are meaningful: a reused FTQ slot keeps stale
 * instructions beyond numInstrs.
 */
struct FtqEntry
{
    std::uint64_t id = 0; ///< monotonically increasing entry id
    Addr startPc = kInvalidAddr;
    std::uint8_t numInstrs = 0;
    std::array<FtqInstr, kInstrsPerFetchBlock> instrs;
    /** Ground truth: the first instruction lies on the architectural path. */
    bool onPath = false;
    /** UDP's confidence counter tagged this block as assumed-off-path. */
    bool assumedOffPath = false;

    /** Cache line containing this block (blocks never straddle lines). */
    Addr line() const { return lineAddr(startPc); }
};

/** FTQ statistics. */
struct FtqStats
{
    std::uint64_t pushes = 0;
    std::uint64_t flushes = 0;
    /** Per-cycle occupancy samples: running sum and count. */
    std::uint64_t occupancySum = 0;
    std::uint64_t occupancySamples = 0;

    /** Mean occupancy over the sampled cycles (0 before any sample). */
    double meanOccupancy() const
    {
        return occupancySamples == 0
                   ? 0.0
                   : static_cast<double>(occupancySum) / occupancySamples;
    }
};

/** The fetch target queue. */
class Ftq
{
  public:
    /**
     * @param physical_capacity hardware limit on entries
     * @param capacity initial (dynamic) capacity, clamped to physical
     */
    Ftq(std::size_t physical_capacity, std::size_t capacity);

    bool full() const { return q.size() >= capacity_; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return capacity_; }
    std::size_t physicalCapacity() const { return physCap; }

    /**
     * Adjusts the dynamic capacity (UFTQ). Clamped to [1, physical].
     * Existing entries are retained even if they exceed a shrunken bound
     * (they drain naturally).
     */
    void setCapacity(std::size_t c);

    /**
     * Returns the slot past the newest block with its header cleared
     * (numInstrs = 0), for the caller to fill in place; commitPush()
     * then appends it. The caller must check full() first.
     */
    FtqEntry& beginPush();

    /** Appends the block filled in since beginPush(). */
    void commitPush();

    /** Oldest block (fetch side). */
    FtqEntry& front() { return q.front(); }
    const FtqEntry& front() const { return q.front(); }

    /**
     * Drops the oldest block after the fetch stage consumed it. The
     * prefetch cursor stays on the same block (an unscanned head is
     * skipped: fetch already demanded its line).
     */
    void
    popFront()
    {
        q.popFront();
        if (cursor > 0) {
            --cursor;
        }
    }

    /** Random access from oldest (0) to newest (size-1). */
    FtqEntry& at(std::size_t i) { return q[i]; }
    const FtqEntry& at(std::size_t i) const { return q[i]; }

    /** Position of the oldest block FDIP has not scanned (0 = head). */
    std::size_t prefetchCursor() const { return cursor; }

    /** The oldest block FDIP has not scanned, moving the cursor past it;
     *  nullptr once every block has been scanned. */
    const FtqEntry*
    nextToPrefetch()
    {
        return cursor < q.size() ? &q[cursor++] : nullptr;
    }

    /** Drops all entries (resteer); FDIP restarts at the new head. */
    void flush();

    /** Records the occupancy sample for this cycle. */
    void sampleOccupancy()
    {
        stats_.occupancySum += q.size();
        ++stats_.occupancySamples;
    }

    const FtqStats& stats() const { return stats_; }

    /**
     * Invariant check (sim/invariants.h): size against the physical
     * bound, capacity against [1, physical], the prefetch cursor against
     * the size and per-entry well-formedness (instruction count, valid
     * addresses). @p full additionally verifies entry-id monotonicity.
     * Returns the first violation, or "".
     */
    std::string checkInvariants(bool full) const;

    /** Occupancy + head/tail summary for diagnostic reports. */
    std::string dumpState() const;

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    Telemetry* telem_ = nullptr;
    std::size_t physCap;
    /** Sized from physCap, which size() never exceeds: it never grows. */
    Ring<FtqEntry> q;
    std::size_t capacity_;
    std::size_t cursor = 0; ///< FDIP's next block, counted from the head
    std::uint64_t nextId = 1;
    FtqStats stats_;

  public:
    /** Allocates the next entry id (used by the frontend). */
    std::uint64_t allocId() { return nextId++; }
};

} // namespace udp

#endif // UDP_FRONTEND_FTQ_H
