/**
 * @file
 * Generic set-associative cache with true-LRU replacement and a per-line
 * prefetch bit (set when a prefetched line is installed, cleared on the
 * first demand hit) — the substrate for the paper's utility accounting.
 */

#ifndef UDP_CACHE_CACHE_H
#define UDP_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace udp {

/** Cache geometry. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    // Line size is global (kLineBytes).
};

/** Counters exported by each cache. */
struct CacheStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /** Demand hits that consumed a line still carrying the prefetch bit. */
    std::uint64_t prefetchHits = 0;
    /** Prefetched lines evicted without any demand hit. */
    std::uint64_t prefetchUnused = 0;
    /** Ground truth: prefetched lines first hit by an ON-PATH demand. */
    std::uint64_t prefetchHitsTrue = 0;
    /** Ground truth: prefetched lines evicted without any on-path hit. */
    std::uint64_t prefetchUnusedTrue = 0;
};

/** Result of a demand access. */
struct CacheAccess
{
    bool hit = false;
    /** The hit line still carried the prefetch bit: the first demand use
     *  of a prefetched line (the bit is cleared by this access). */
    bool prefetched = false;

    explicit operator bool() const { return hit; }
};

/** Result of an insert. */
struct CacheInsertResult
{
    bool evicted = false;
    Addr victimLine = kInvalidAddr;
    /** Victim was a prefetched line never hit by demand (useless). */
    bool victimPrefetchUnused = false;
};

/**
 * Set-associative, fully tagged, true-LRU cache over line addresses.
 * The number of sets must be a power of two; associativity is arbitrary
 * (supports the paper's 40 KiB = 64 sets x 10 ways icache variant).
 * Ways are stored as parallel flat arrays (tags, prefetch bits, LRU
 * stamps), set-major, and the set and tag come from shifts.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig& cfg);

    /** Geometry introspection. */
    unsigned assoc() const { return cfg.assoc; }
    std::size_t numSets() const { return numSets_; }
    std::uint64_t sizeBytes() const
    {
        return std::uint64_t{numSets_} * cfg.assoc * kLineBytes;
    }

    /** True when the line containing @p addr is present (no side effects). */
    bool contains(Addr addr) const;

    /**
     * Demand access: on a hit, touches LRU and clears/accounts the prefetch
     * bit. @p on_path is the ground-truth tag of the accessor (drives the
     * oracle utility counters only, never hardware behaviour).
     * Returns hit/miss and whether the hit consumed the prefetch bit.
     */
    CacheAccess demandAccess(Addr addr, bool on_path = true);

    /** Touch for LRU purposes without demand accounting (e.g. FDIP probe). */
    void touch(Addr addr);

    /**
     * Installs the line containing @p addr. @p is_prefetch sets the
     * prefetch bit. Replaces LRU; reports the victim.
     */
    CacheInsertResult insert(Addr addr, bool is_prefetch);

    /** Removes the line if present; returns true when it was. */
    bool invalidate(Addr addr);

    const CacheStats& stats() const { return stats_; }

    /** Drops all lines (not the stats). */
    void flush();

  private:
    static constexpr unsigned kLineBits = 6;
    static_assert(kLineBytes == 1u << kLineBits);
    /** Tag of an invalid way; tagOf() never yields it (addr >> 6 < 2^58). */
    static constexpr Addr kEmptyTag = ~Addr{0};
    /** Bits of flags[]: the hardware prefetch bit, and the oracle bit
     *  (prefetched and not yet consumed by an on-path demand). */
    static constexpr std::uint8_t kPrefetch = 1;
    static constexpr std::uint8_t kPrefetchTrue = 2;

    std::size_t setOf(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> kLineBits) &
                                        (numSets_ - 1));
    }
    Addr tagOf(Addr addr) const { return addr >> tagShift; }
    /** Way index (set-major) holding @p addr's line, or -1 on a miss. */
    std::ptrdiff_t find(Addr addr) const;

    CacheConfig cfg;
    std::size_t numSets_;
    unsigned tagShift; ///< kLineBits + log2(numSets_)
    // numSets_ * assoc ways, set-major, in three parallel arrays.
    std::vector<Addr> tags;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint64_t> lru;
    std::uint64_t lruClock = 0;
    CacheStats stats_;
};

} // namespace udp

#endif // UDP_CACHE_CACHE_H
