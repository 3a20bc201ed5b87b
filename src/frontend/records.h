/**
 * @file
 * Per-branch prediction records: everything the backend needs to resolve,
 * recover and train a branch instance. They live in a recycled slot pool
 * owned by the Cpu; each in-flight instruction carries its record's handle.
 */

#ifndef UDP_FRONTEND_RECORDS_H
#define UDP_FRONTEND_RECORDS_H

#include <cstdint>
#include <vector>

#include "bpred/bpu.h"
#include "common/types.h"

namespace udp {

/** Prediction-time state of one in-flight branch. */
struct BranchRecord
{
    /** BPU state captured just before this branch was predicted. */
    BpuCheckpoint ckpt;
    /** Direction prediction (CondDirect only). */
    CondPredRecord cond;
    /** Target prediction (indirect kinds only). */
    IbtbPrediction indirect;
};

/**
 * In-flight branch records in slots recycled through a free list, so
 * steady-state allocation and lookup touch no heap and hash nothing.
 * Every slot remembers the dynamic id that owns it, and a lookup or erase
 * names both the handle and that id. A handle whose record was already
 * erased, and perhaps reused for a younger branch, then finds nothing:
 * the semantics of a map keyed by dynamic id.
 */
class BranchRecordPool
{
  public:
    /**
     * Claims a slot holding a default BranchRecord for @p dyn_id and
     * returns its handle. May grow the pool, which invalidates every
     * reference returned by at() or find().
     */
    RecordHandle
    alloc(std::uint64_t dyn_id)
    {
        RecordHandle h;
        if (freeSlots.empty()) {
            h = static_cast<RecordHandle>(slots.size());
            slots.emplace_back();
        } else {
            h = freeSlots.back();
            freeSlots.pop_back();
            slots[h].rec = BranchRecord();
        }
        slots[h].owner = dyn_id;
        slots[h].live = true;
        return h;
    }

    /** The record just claimed by alloc() at @p h, for filling in. */
    BranchRecord& at(RecordHandle h) { return slots[h].rec; }

    /** The record @p dyn_id owns at @p h, or nullptr if it owns none. */
    BranchRecord*
    find(RecordHandle h, std::uint64_t dyn_id)
    {
        return owns(h, dyn_id) ? &slots[h].rec : nullptr;
    }

    /** Frees @p h if @p dyn_id owns it; a no-op otherwise. */
    void
    erase(RecordHandle h, std::uint64_t dyn_id)
    {
        if (owns(h, dyn_id)) {
            slots[h].live = false;
            freeSlots.push_back(h);
        }
    }

    /** Number of live records. */
    std::size_t size() const { return slots.size() - freeSlots.size(); }

    /** Handles range over [0, slotCount()). */
    std::size_t slotCount() const { return slots.size(); }
    bool live(RecordHandle h) const { return slots[h].live; }
    /** Dynamic id of the owner of live slot @p h. */
    std::uint64_t owner(RecordHandle h) const { return slots[h].owner; }

  private:
    struct Slot
    {
        BranchRecord rec;
        std::uint64_t owner = 0;
        bool live = false;
    };

    bool
    owns(RecordHandle h, std::uint64_t dyn_id) const
    {
        return h < slots.size() && slots[h].live && slots[h].owner == dyn_id;
    }

    std::vector<Slot> slots;
    std::vector<RecordHandle> freeSlots;
};

} // namespace udp

#endif // UDP_FRONTEND_RECORDS_H
