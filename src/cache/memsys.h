/**
 * @file
 * The memory hierarchy of the simulated system (Table II): L1I with a fill
 * buffer (MSHR), L1D with a stream prefetcher, unified L2, shared LLC and
 * bandwidth-limited DRAM. Instruction-side demand fetches, FDIP prefetches
 * and data-side accesses all flow through here; per-line prefetch bits and
 * MSHR merge flags provide the utility/timeliness signals UFTQ and UDP
 * consume.
 */

#ifndef UDP_CACHE_MEMSYS_H
#define UDP_CACHE_MEMSYS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/mshr.h"
#include "cache/stream_prefetcher.h"
#include "common/types.h"
#include "stats/stats.h"
#include "stats/telemetry.h"

namespace udp {

/** Where an instruction demand access was satisfied. */
enum class IFetchWhere : std::uint8_t {
    L1,    ///< icache hit
    Mshr,  ///< merged with an in-flight fill (untimely prefetch or miss)
    Miss,  ///< new outstanding miss allocated
    Stall, ///< MSHR full: retry next cycle
};

/** Result of an instruction demand access. */
struct IFetchResult
{
    IFetchWhere where = IFetchWhere::L1;
    /** Absolute cycle at which the fetch block is available. */
    Cycle ready = 0;
    /** The access consumed a line installed by a prefetch (timely hit). */
    bool hitPrefetchedLine = false;
};

/** Outcome of an instruction prefetch request. */
enum class IPrefStatus : std::uint8_t {
    AlreadyPresent, ///< line already in the icache
    InFlight,       ///< already outstanding in the fill buffer
    Issued,         ///< new prefetch issued
    DemotedL2,      ///< fill buffer busy: prefetched into L2/LLC instead
    NoMshr,         ///< dropped entirely
};

/** Configuration (defaults = Table II). */
struct MemSysConfig
{
    std::uint64_t l1iSize = 32 * 1024;
    unsigned l1iAssoc = 8;
    Cycle l1iLat = 3;
    unsigned l1iMshrs = 16;
    /** Fill-buffer entries prefetches may occupy (the rest are reserved
     *  for demand misses, which always have priority). */
    unsigned l1iMshrsForPrefetch = 16;
    /** When the fill buffer is busy, demote prefetches into L2/LLC
     *  instead of dropping them. */
    bool l1iPrefetchDemoteL2 = true;

    std::uint64_t l1dSize = 48 * 1024;
    unsigned l1dAssoc = 12;
    Cycle l1dLat = 4;

    std::uint64_t l2Size = 512 * 1024;
    unsigned l2Assoc = 8;
    Cycle l2Lat = 13;

    std::uint64_t llcSize = 2 * 1024 * 1024;
    unsigned llcAssoc = 16;
    Cycle llcLat = 36;

    Cycle memLat = 150;
    /** DRAM occupancy per line (DDR4-2400, 1 channel, 3 GHz core). */
    Cycle memCyclesPerLine = 10;

    /** Every instruction access hits L1I (the Fig. 1 oracle). */
    bool perfectIcache = false;
    StreamPrefetcherConfig streamCfg;

    bool operator==(const MemSysConfig&) const = default;
};

/** Aggregated statistics across the hierarchy. */
struct MemSysStats
{
    // Instruction side.
    std::uint64_t ifetchAccesses = 0;
    std::uint64_t ifetchL1Hits = 0;
    std::uint64_t ifetchMshrHits = 0;
    std::uint64_t ifetchMisses = 0;
    std::uint64_t ifetchStalls = 0;
    /** Demand L1I hits on lines still carrying the prefetch bit. */
    std::uint64_t ifetchTimelyPrefetchHits = 0;
    /** Demand fetches that merged with an in-flight *prefetch* (hardware
     *  view: the prefetch was useful but untimely). */
    std::uint64_t pfMshrMergesHw = 0;
    /** Same, but the merging demand access was on the correct path. */
    std::uint64_t pfMshrMergesTrue = 0;

    std::uint64_t iprefIssued = 0;
    std::uint64_t iprefDemotedL2 = 0;

    // Data side.
    std::uint64_t dloads = 0;
    std::uint64_t dloadL1Hits = 0;
};

/**
 * The paper's utility (UFTQ's AUR) of the prefetches a window's counts
 * @p m and @p l1i cover, as the hardware sees it: demand-consumed
 * prefetches (resident hits plus fill-buffer merges) over those plus the
 * prefetched lines evicted unused. 0 when the window resolved none.
 */
inline double
prefetchUtility(const MemSysStats& m, const CacheStats& l1i)
{
    const double useful =
        static_cast<double>(l1i.prefetchHits + m.pfMshrMergesHw);
    return ratio(useful, useful + static_cast<double>(l1i.prefetchUnused));
}

/**
 * The paper's timeliness (UFTQ's ATR) over a window's counts @p m:
 * demand accesses that found a prefetched line resident over those plus
 * the ones that merged with its in-flight fill.
 */
inline double
prefetchTimeliness(const MemSysStats& m)
{
    return ratio(static_cast<double>(m.ifetchTimelyPrefetchHits),
                 static_cast<double>(m.ifetchTimelyPrefetchHits +
                                     m.pfMshrMergesHw));
}

/** The full memory hierarchy. */
class MemSystem
{
  public:
    explicit MemSystem(const MemSysConfig& cfg);

    /**
     * Advances fill completion: drains ready MSHR entries into the icache.
     * Call once per cycle before fetch.
     */
    void tick(Cycle now);

    /**
     * Instruction demand access for the line containing @p pc.
     * @param on_path ground-truth tag of the fetching block (stats only).
     */
    IFetchResult ifetch(Addr pc, Cycle now, bool on_path);

    /** FDIP/EIP prefetch of the line containing @p addr into L1I.
     *  @p src attributes the request in the telemetry lifecycle tracker. */
    IPrefStatus iprefetch(Addr addr, Cycle now,
                          PfSource src = PfSource::Fdip);

    /** True when the line containing @p addr is resident in L1I. */
    bool icacheContains(Addr addr) const;

    /** True when the line is outstanding in the fill buffer. */
    bool icacheLineInFlight(Addr addr) const;

    /** Data load: returns the completion cycle. */
    Cycle dload(Addr addr, Cycle now, bool on_path);

    /** Data store (fire and forget into the store buffer). */
    void dstore(Addr addr, Cycle now);

    const MemSysStats& stats() const { return stats_; }
    const CacheStats& l1iStats() const { return l1i.stats(); }

    SetAssocCache& icache() { return l1i; }
    const SetAssocCache& icache() const { return l1i; }
    MshrFile& fillBuffer() { return l1iMshr; }
    const MshrFile& fillBuffer() const { return l1iMshr; }

    /** Invariant check (sim/invariants.h): fill-buffer consistency,
     *  then the data in-flight list's earliest-fill bound. Returns the
     *  first violation found, or an empty string. */
    std::string checkInvariants(Cycle now) const;

    /** Fill-buffer occupancy dump for diagnostic reports. */
    std::string dumpState(Cycle now) const
    {
        return l1iMshr.dumpState(now);
    }

    const MemSysConfig& config() const { return cfg; }

    /** Telemetry attachment (null = disabled, zero-cost hooks). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    /** Looks up L2/LLC/DRAM; returns the fill latency beyond L1. */
    Cycle lowerHierarchyLatency(Addr line, Cycle now);

    MemSysConfig cfg;
    SetAssocCache l1i;
    SetAssocCache l1d;
    SetAssocCache l2;
    SetAssocCache llc;
    MshrFile l1iMshr;
    StreamPrefetcher streamPf;
    std::vector<Addr> streamOut;

    /** Simple in-flight tracker for data lines (line -> completion). */
    struct DInflight
    {
        Addr line;
        Cycle ready;
    };
    std::vector<DInflight> dInflight;
    /** At most the earliest ready in dInflight (kInvalidCycle when
     *  empty): tick() compacts the list only from that cycle on. */
    Cycle dInflightEarliest = kInvalidCycle;

    Cycle dramNextFree = 0;
    MemSysStats stats_;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_CACHE_MEMSYS_H
