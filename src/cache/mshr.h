/**
 * @file
 * Miss status holding registers / fill buffer. For the icache this is the
 * structure whose demand hits define prefetch *untimeliness* in the paper
 * (a demand access merging with an in-flight prefetch means the prefetch
 * was useful but late).
 */

#ifndef UDP_CACHE_MSHR_H
#define UDP_CACHE_MSHR_H

#include <string>
#include <vector>

#include "common/types.h"

namespace udp {

/** One outstanding miss. */
struct MshrEntry
{
    bool valid = false;
    Addr line = kInvalidAddr;
    Cycle ready = kInvalidCycle;
    /** Cycle the miss was allocated (age reporting / leak detection). */
    Cycle allocatedAt = 0;
    /** Installed by a prefetch (vs a demand miss). */
    bool isPrefetch = false;
    /** A demand access merged with this entry while in flight. */
    bool demandMerged = false;
    /** Ground truth: the merging demand access was on the correct path. */
    bool onPathDemandMerged = false;
};

/** Fixed-size MSHR file keyed by line address. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned num_entries) : entries(num_entries) {}

    /** Finds the outstanding entry for @p line, nullptr when absent. */
    MshrEntry* find(Addr line);
    const MshrEntry* find(Addr line) const;

    /**
     * Allocates an entry; returns nullptr when the file is full (caller
     * must stall or drop). @p now stamps the entry's allocation cycle.
     */
    MshrEntry* allocate(Addr line, Cycle ready, bool is_prefetch,
                        Cycle now = 0);

    /**
     * Invokes @p cb (signature void(const MshrEntry&)) for every entry
     * whose fill has arrived by @p now, in file order, then frees it.
     * Returns at once before the earliest outstanding fill is due.
     */
    template <typename F>
    void
    drainReady(Cycle now, F&& cb)
    {
        if (now < earliestReady) {
            return;
        }
        Cycle earliest = kInvalidCycle;
        for (MshrEntry& e : entries) {
            if (!e.valid) {
                continue;
            }
            if (e.ready <= now) {
                cb(const_cast<const MshrEntry&>(e));
                e.valid = false;
            } else if (e.ready < earliest) {
                earliest = e.ready;
            }
        }
        earliestReady = earliest;
    }

    /** Moves @p e's fill to @p ready (fault injection), keeping the
     *  earliest-fill bound drainReady() gates on. */
    void setReady(MshrEntry& e, Cycle ready);

    /** Drops all in-flight entries (pipeline-reset situations in tests). */
    void clear();

    unsigned numFree() const;
    unsigned capacity() const { return static_cast<unsigned>(entries.size()); }
    bool full() const { return numFree() == 0; }

    /** Records a demand merge on @p e (sets its merge flags). */
    void noteDemandMerge(MshrEntry& e, bool on_path);

    /**
     * Invariant check (sim/invariants.h): the earliest-fill bound is at
     * most every valid entry's ready, duplicate outstanding lines, and
     * leaked entries (an entry whose fill never drains — ready sentinel
     * or ready in the past at end-of-cycle @p now). Returns the first
     * violation found, or an empty string.
     */
    std::string checkInvariants(Cycle now) const;

    /** One-line-per-entry occupancy dump for diagnostic reports. */
    std::string dumpState(Cycle now) const;

    /** Fault-injection hook (sim/faultinject.h): the @p nth valid entry
     *  in file order, nullptr when fewer are outstanding. */
    MshrEntry* validEntryForFault(unsigned nth);

  private:
    std::vector<MshrEntry> entries;
    /** At most the earliest ready of the valid entries (kInvalidCycle
     *  when none can drain); exact after each scanning drainReady(). */
    Cycle earliestReady = kInvalidCycle;
};

} // namespace udp

#endif // UDP_CACHE_MSHR_H
