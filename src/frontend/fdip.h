/**
 * @file
 * FDIP: fetch-directed instruction prefetching [47]. Scans FTQ blocks
 * ahead of the fetch engine, probing the icache and issuing prefetches for
 * absent lines. Optionally filtered by UDP (utility-driven dropping of
 * assumed-off-path candidates).
 */

#ifndef UDP_FRONTEND_FDIP_H
#define UDP_FRONTEND_FDIP_H

#include <cstdint>

#include "cache/memsys.h"
#include "common/types.h"
#include "frontend/ftq.h"

namespace udp {

class UdpEngine;

/** FDIP configuration. */
struct FdipConfig
{
    /** Blocks scanned/probed per cycle (icache tag port budget). */
    unsigned blocksPerCycle = 2;
    /** Master enable (off = no instruction prefetching baseline). */
    bool enabled = true;

    bool operator==(const FdipConfig&) const = default;
};

/** FDIP statistics. */
struct FdipStats
{
    std::uint64_t blocksScanned = 0;
    std::uint64_t candidates = 0;       ///< blocks whose line missed L1I
    std::uint64_t emitted = 0;          ///< prefetches issued
    std::uint64_t emittedOnPath = 0;    ///< ground truth
    std::uint64_t emittedOffPath = 0;
};

/** The FDIP scan engine. */
class FdipEngine
{
  public:
    FdipEngine(MemSystem& mem, Ftq& ftq, const FdipConfig& cfg);

    /** Attaches the UDP filter (nullptr = vanilla FDIP). */
    void setUdp(UdpEngine* udp) { udp_ = udp; }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

    /** Scans up to blocksPerCycle FTQ blocks from the FTQ's prefetch
     *  cursor. */
    void tick(Cycle now);

    const FdipStats& stats() const { return stats_; }

  private:
    void probe(const FtqEntry& e, Cycle now);

    MemSystem& mem;
    Ftq& ftq;
    FdipConfig cfg;
    UdpEngine* udp_ = nullptr;
    Telemetry* telem_ = nullptr;
    FdipStats stats_;
};

} // namespace udp

#endif // UDP_FRONTEND_FDIP_H
