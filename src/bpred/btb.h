/**
 * @file
 * Branch Target Buffer: set-associative, fully tagged, LRU. The decoupled
 * frontend discovers branches through the BTB; a BTB miss makes the
 * frontend run past a taken branch onto the sequential (wrong) path until
 * post-fetch correction or branch resolution.
 */

#ifndef UDP_BPRED_BTB_H
#define UDP_BPRED_BTB_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "workload/isa.h"

namespace udp {

/** One BTB entry as seen by the frontend. */
struct BtbEntry
{
    BranchKind kind = BranchKind::None;
    Addr target = kInvalidAddr; ///< direct target; hint for indirect
};

/** Configuration. */
struct BtbConfig
{
    unsigned numEntries = 8192; ///< total entries
    unsigned assoc = 8;

    bool operator==(const BtbConfig&) const = default;
};

/** Statistics. */
struct BtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
};

/**
 * Set-associative BTB with true-LRU replacement, stored as parallel flat
 * arrays (tags, entries, LRU stamps), so a lookup scans one set's tags
 * from a single contiguous run (64 B at 8 ways).
 */
class Btb
{
  public:
    explicit Btb(const BtbConfig& cfg);

    /** Looks up the branch at @p pc; nullptr on miss. Updates LRU on hit. */
    const BtbEntry* lookup(Addr pc);

    /** Probe without LRU/stat side effects (for tests/oracles). */
    const BtbEntry* probe(Addr pc) const;

    /** Inserts or updates the entry for @p pc. */
    void insert(Addr pc, BranchKind kind, Addr target);

    const BtbStats& stats() const { return stats_; }

    std::uint64_t storageBits() const;

  private:
    /** Tag of an invalid way; tagOf() never yields it (pc >> 2 < 2^62). */
    static constexpr Addr kEmptyTag = ~Addr{0};

    std::size_t setOf(Addr pc) const;
    Addr tagOf(Addr pc) const;
    /** Way index (set-major) holding @p pc, or -1 on a miss. */
    std::ptrdiff_t find(Addr pc) const;

    BtbConfig cfg;
    std::size_t numSets;
    unsigned setBits; ///< log2(numSets)
    // numSets * assoc ways, set-major, in three parallel arrays.
    std::vector<Addr> tags;
    std::vector<BtbEntry> entries;
    std::vector<std::uint64_t> lru;
    std::uint64_t lruClock = 0;
    BtbStats stats_;
};

} // namespace udp

#endif // UDP_BPRED_BTB_H
