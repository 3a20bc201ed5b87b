/**
 * @file
 * EIP: a reimplementation of the Entangling Instruction Prefetcher [49]
 * at the paper's ISO-storage budget (8KB), used as a Fig. 13 baseline.
 *
 * On an icache miss for line D, EIP searches its access history for a
 * "source" line S that was fetched roughly one memory latency earlier and
 * entangles (S -> D); later accesses to S prefetch D. As the paper notes,
 * EIP (1) is metadata-starved at 8KB and (2) trains on *all* icache
 * accesses, including the wrong path — both modelled here.
 */

#ifndef UDP_PREFETCH_EIP_H
#define UDP_PREFETCH_EIP_H

#include <cstdint>
#include <vector>

#include "cache/memsys.h"
#include "common/types.h"

namespace udp {

/** Configuration (defaults ~8KB of metadata). */
struct EipConfig
{
    unsigned numSets = 128;
    unsigned assoc = 4;
    unsigned dstsPerEntry = 2;
    unsigned historyLen = 64;
    /** Desired prefetch lead time (≈ LLC/DRAM latency). */
    Cycle latencyTarget = 120;

    bool operator==(const EipConfig&) const = default;
};

/** Statistics. */
struct EipStats
{
    std::uint64_t trainings = 0;
    std::uint64_t entanglings = 0;
    std::uint64_t prefetchesIssued = 0;
};

/** The entangling prefetcher. */
class Eip
{
  public:
    Eip(MemSystem& mem, const EipConfig& cfg);

    /**
     * Observes an icache access (demand fetch of @p line, hit or miss) —
     * EIP is wrong-path-oblivious, so the caller reports every access.
     */
    void onAccess(Addr line, bool hit, Cycle now);

    /** Metadata budget in bits. */
    std::uint64_t storageBits() const;

    const EipStats& stats() const { return stats_; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr src = 0;
        std::vector<Addr> dsts;
        std::uint64_t lru = 0;
    };

    struct HistorySlot
    {
        Addr line = 0;
        Cycle when = 0;
    };

    Entry* findEntry(Addr src);
    Entry& allocEntry(Addr src);

    MemSystem& mem;
    EipConfig cfg;
    std::vector<Entry> table; ///< numSets * assoc
    std::vector<HistorySlot> history;
    std::size_t histHead = 0;
    std::uint64_t lruClock = 0;
    EipStats stats_;
};

} // namespace udp

#endif // UDP_PREFETCH_EIP_H
