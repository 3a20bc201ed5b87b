#include "cache/memsys.h"

#include <algorithm>
#include <cstdio>

namespace udp {

namespace {

CacheConfig
cacheCfg(const char* name, std::uint64_t size, unsigned assoc)
{
    CacheConfig c;
    c.name = name;
    c.sizeBytes = size;
    c.assoc = assoc;
    return c;
}

} // namespace

MemSystem::MemSystem(const MemSysConfig& c)
    : cfg(c),
      l1i(cacheCfg("l1i", c.l1iSize, c.l1iAssoc)),
      l1d(cacheCfg("l1d", c.l1dSize, c.l1dAssoc)),
      l2(cacheCfg("l2", c.l2Size, c.l2Assoc)),
      llc(cacheCfg("llc", c.llcSize, c.llcAssoc)),
      l1iMshr(c.l1iMshrs),
      streamPf(c.streamCfg)
{
    streamOut.reserve(16);
}

Cycle
MemSystem::lowerHierarchyLatency(Addr line, Cycle now)
{
    if (l2.demandAccess(line)) {
        return cfg.l2Lat;
    }
    if (llc.demandAccess(line)) {
        l2.insert(line, false);
        return cfg.l2Lat + cfg.llcLat;
    }
    // DRAM: latency plus single-channel bandwidth occupancy.
    Cycle start = std::max(now + cfg.l2Lat + cfg.llcLat, dramNextFree);
    dramNextFree = start + cfg.memCyclesPerLine;
    Cycle done_delta = (start - now) + cfg.memLat;
    llc.insert(line, false);
    l2.insert(line, false);
    return done_delta;
}

void
MemSystem::tick(Cycle now)
{
    l1iMshr.drainReady(now, [&](const MshrEntry& e) {
        // A prefetched line that a demand access merged with was consumed
        // before installation -> it lands without the (unused) prefetch bit.
        bool still_prefetch = e.isPrefetch && !e.demandMerged;
        // Oracle bit: consumed by on-path demand while in flight?
        CacheInsertResult ins = l1i.insert(e.line, still_prefetch);
        if (telem_) {
            if (ins.victimPrefetchUnused) {
                telem_->onPrefetchEvicted(ins.victimLine);
            }
            if (still_prefetch) {
                telem_->onPrefetchFill(e.line, ins.evicted);
            }
        }
    });

    // Garbage-collect completed data in-flight entries, once one is due.
    if (now >= dInflightEarliest) {
        Cycle earliest = kInvalidCycle;
        std::erase_if(dInflight, [&](const DInflight& d) {
            if (d.ready <= now) {
                return true;
            }
            earliest = std::min(earliest, d.ready);
            return false;
        });
        dInflightEarliest = earliest;
    }
}

std::string
MemSystem::checkInvariants(Cycle now) const
{
    std::string fill = l1iMshr.checkInvariants(now);
    if (!fill.empty()) {
        return fill;
    }
    for (const DInflight& d : dInflight) {
        if (d.ready < dInflightEarliest) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "data line 0x%llx in flight until %llu, before the "
                          "earliest-fill bound %llu (it would not drain)",
                          static_cast<unsigned long long>(d.line),
                          static_cast<unsigned long long>(d.ready),
                          static_cast<unsigned long long>(dInflightEarliest));
            return buf;
        }
    }
    return "";
}

IFetchResult
MemSystem::ifetch(Addr pc, Cycle now, bool on_path)
{
    ++stats_.ifetchAccesses;
    IFetchResult res;
    Addr line = lineAddr(pc);

    if (cfg.perfectIcache) {
        ++stats_.ifetchL1Hits;
        res.where = IFetchWhere::L1;
        res.ready = now + cfg.l1iLat;
        return res;
    }

    CacheAccess hit = l1i.demandAccess(line, on_path);
    if (hit) {
        ++stats_.ifetchL1Hits;
        if (hit.prefetched) {
            ++stats_.ifetchTimelyPrefetchHits;
            if (telem_) {
                telem_->onPrefetchFirstUse(line);
            }
        }
        res.where = IFetchWhere::L1;
        res.ready = now + cfg.l1iLat;
        res.hitPrefetchedLine = hit.prefetched;
        return res;
    }

    if (MshrEntry* e = l1iMshr.find(line)) {
        // Demand merges with the outstanding fill (untimely prefetch).
        if (e->isPrefetch) {
            if (!e->demandMerged) {
                ++stats_.pfMshrMergesHw;
                if (telem_) {
                    telem_->onPrefetchLateMerge(
                        line, e->ready > now ? e->ready - now : 0);
                }
            }
            if (on_path && !e->onPathDemandMerged) {
                ++stats_.pfMshrMergesTrue;
            }
        }
        l1iMshr.noteDemandMerge(*e, on_path);
        ++stats_.ifetchMshrHits;
        res.where = IFetchWhere::Mshr;
        res.ready = std::max(e->ready, now + cfg.l1iLat);
        return res;
    }

    // True demand miss: allocate and go down the hierarchy.
    Cycle fill_delta = lowerHierarchyLatency(line, now);
    MshrEntry* e = l1iMshr.allocate(line, now + cfg.l1iLat + fill_delta,
                                    /*is_prefetch=*/false, now);
    if (!e) {
        ++stats_.ifetchStalls;
        res.where = IFetchWhere::Stall;
        res.ready = now + 1;
        return res;
    }
    e->demandMerged = true;
    e->onPathDemandMerged = on_path;
    ++stats_.ifetchMisses;
    res.where = IFetchWhere::Miss;
    res.ready = e->ready;
    return res;
}

IPrefStatus
MemSystem::iprefetch(Addr addr, Cycle now, PfSource src)
{
    Addr line = lineAddr(addr);
    if (cfg.perfectIcache || l1i.contains(line)) {
        return IPrefStatus::AlreadyPresent;
    }
    if (l1iMshr.find(line)) {
        return IPrefStatus::InFlight;
    }
    // When the fill buffer has no prefetch headroom, demote the prefetch
    // into L2/LLC: it still pulls the line closer (and consumes memory
    // bandwidth) without occupying an L1I MSHR demand misses may need.
    if (l1iMshr.capacity() - l1iMshr.numFree() >= cfg.l1iMshrsForPrefetch) {
        if (!cfg.l1iPrefetchDemoteL2) {
            return IPrefStatus::NoMshr;
        }
        lowerHierarchyLatency(line, now);
        ++stats_.iprefDemotedL2;
        return IPrefStatus::DemotedL2;
    }
    Cycle fill_delta = lowerHierarchyLatency(line, now);
    MshrEntry* e =
        l1iMshr.allocate(line, now + cfg.l1iLat + fill_delta, true, now);
    if (!e) {
        if (!cfg.l1iPrefetchDemoteL2) {
            return IPrefStatus::NoMshr;
        }
        lowerHierarchyLatency(line, now);
        ++stats_.iprefDemotedL2;
        return IPrefStatus::DemotedL2;
    }
    ++stats_.iprefIssued;
    if (telem_) {
        telem_->onPrefetchIssued(line, src);
    }
    return IPrefStatus::Issued;
}

bool
MemSystem::icacheContains(Addr addr) const
{
    return cfg.perfectIcache || l1i.contains(lineAddr(addr));
}

bool
MemSystem::icacheLineInFlight(Addr addr) const
{
    return l1iMshr.find(lineAddr(addr)) != nullptr;
}

Cycle
MemSystem::dload(Addr addr, Cycle now, bool on_path)
{
    ++stats_.dloads;
    Addr line = lineAddr(addr);

    CacheAccess hit = l1d.demandAccess(line, on_path);
    if (hit) {
        ++stats_.dloadL1Hits;
        if (hit.prefetched && telem_) {
            telem_->onPrefetchFirstUse(line);
        }
        return now + cfg.l1dLat;
    }

    // Merge with an in-flight data line if one exists.
    for (const DInflight& d : dInflight) {
        if (d.line == line) {
            return std::max(d.ready, now + cfg.l1dLat);
        }
    }

    Cycle fill_delta = lowerHierarchyLatency(line, now);
    Cycle ready = now + cfg.l1dLat + fill_delta;
    CacheInsertResult ins = l1d.insert(line, false);
    if (telem_ && ins.victimPrefetchUnused) {
        telem_->onPrefetchEvicted(ins.victimLine);
    }
    dInflight.push_back(DInflight{line, ready});
    dInflightEarliest = std::min(dInflightEarliest, ready);

    // Train the stream prefetcher on demand misses.
    streamOut.clear();
    streamPf.observe(line, streamOut);
    for (Addr pf : streamOut) {
        if (!l1d.contains(pf)) {
            // Prefetch fills are modelled as immediate L2-side installs;
            // latency hiding happens via presence.
            lowerHierarchyLatency(pf, now);
            CacheInsertResult pins = l1d.insert(pf, true);
            if (telem_) {
                if (pins.victimPrefetchUnused) {
                    telem_->onPrefetchEvicted(pins.victimLine);
                }
                // Immediate-fill model: issue and fill coincide.
                telem_->onPrefetchIssued(pf, PfSource::Stream);
                telem_->onPrefetchFill(pf, pins.evicted);
            }
        }
    }
    return ready;
}

void
MemSystem::dstore(Addr addr, Cycle now)
{
    (void)now;
    Addr line = lineAddr(addr);
    if (!l1d.contains(line)) {
        // Write-allocate without stalling the pipeline (store buffer).
        CacheInsertResult ins = l1d.insert(line, false);
        if (telem_ && ins.victimPrefetchUnused) {
            telem_->onPrefetchEvicted(ins.victimLine);
        }
    } else {
        l1d.touch(line);
    }
}

} // namespace udp
