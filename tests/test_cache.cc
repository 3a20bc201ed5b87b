/**
 * @file
 * Tests for the cache module: set-associative cache with prefetch bits,
 * MSHR/fill buffer, stream prefetcher and the memory hierarchy.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cache/memsys.h"
#include "common/rng.h"

namespace udp {
namespace {

CacheConfig
smallCache(std::uint64_t size = 4096, unsigned assoc = 4)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.assoc = assoc;
    return c;
}

// ------------------------------------------------------------------ cache

TEST(Cache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.demandAccess(0x1000, true));
    c.insert(0x1000, false);
    EXPECT_TRUE(c.demandAccess(0x1000, true));
    EXPECT_EQ(c.stats().demandMisses, 1u);
    EXPECT_EQ(c.stats().demandHits, 1u);
}

TEST(Cache, SameLineDifferentOffsets)
{
    SetAssocCache c(smallCache());
    c.insert(0x1004, false);
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x103f));
    EXPECT_FALSE(c.contains(0x1040));
}

TEST(Cache, GeometryNonPow2Assoc)
{
    // 40 KiB, 10-way: the Fig. 13 enlarged-icache variant.
    SetAssocCache c(smallCache(40 * 1024, 10));
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.sizeBytes(), 40u * 1024);
}

class CacheLruSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheLruSweep, EvictsLeastRecentlyUsed)
{
    unsigned assoc = GetParam();
    SetAssocCache c(smallCache(Addr{assoc} * 8 * kLineBytes, assoc));
    std::size_t sets = c.numSets();

    // Fill one set, touch all but the first, insert one more.
    std::vector<Addr> lines;
    for (unsigned i = 0; i <= assoc; ++i) {
        lines.push_back(Addr{i} * sets * kLineBytes);
    }
    for (unsigned i = 0; i < assoc; ++i) {
        c.insert(lines[i], false);
    }
    for (unsigned i = 1; i < assoc; ++i) {
        c.demandAccess(lines[i], true);
    }
    CacheInsertResult res = c.insert(lines[assoc], false);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.victimLine, lines[0]);
    EXPECT_FALSE(c.contains(lines[0]));
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheLruSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u));

TEST(Cache, PrefetchBitLifecycle)
{
    SetAssocCache c(smallCache());
    c.insert(0x2000, true);
    CacheAccess first = c.demandAccess(0x2000, true);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetched);
    CacheAccess second = c.demandAccess(0x2000, true);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetched);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
    EXPECT_EQ(c.stats().prefetchHitsTrue, 1u);
}

TEST(Cache, UnusedPrefetchCountedOnEviction)
{
    SetAssocCache c(smallCache(Addr{2} * kLineBytes, 1)); // 2 sets, direct
    c.insert(0x0, true);
    // Conflict: same set (2 sets -> stride 128).
    c.insert(0x80, false);
    EXPECT_EQ(c.stats().prefetchUnused, 1u);
    EXPECT_EQ(c.stats().prefetchUnusedTrue, 1u);
}

TEST(Cache, OffPathDemandDoesNotClearOracleBit)
{
    SetAssocCache c(smallCache());
    c.insert(0x3000, true);
    c.demandAccess(0x3000, /*on_path=*/false);
    // Hardware bit consumed, oracle bit not.
    EXPECT_EQ(c.stats().prefetchHits, 1u);
    EXPECT_EQ(c.stats().prefetchHitsTrue, 0u);
    c.demandAccess(0x3000, /*on_path=*/true);
    EXPECT_EQ(c.stats().prefetchHitsTrue, 1u);
}

TEST(Cache, InsertExistingDoesNotEvict)
{
    SetAssocCache c(smallCache());
    c.insert(0x1000, false);
    CacheInsertResult res = c.insert(0x1000, true);
    EXPECT_FALSE(res.evicted);
    // Re-insert must not set the prefetch bit on a demand line.
    EXPECT_FALSE(c.demandAccess(0x1000).prefetched);
}

TEST(Cache, InvalidateAndFlush)
{
    SetAssocCache c(smallCache());
    c.insert(0x1000, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    c.insert(0x2000, false);
    c.flush();
    EXPECT_FALSE(c.contains(0x2000));
}

/** Property: cache never holds more lines than its capacity. */
TEST(Cache, CapacityInvariant)
{
    SetAssocCache c(smallCache(2048, 4)); // 32 lines
    Rng rng(5);
    std::uint64_t inserted = 0;
    for (int i = 0; i < 1000; ++i) {
        c.insert(rng.next() & 0xffffc0, rng.chance(0.5));
        ++inserted;
    }
    EXPECT_EQ(c.stats().inserts - c.stats().evictions <= 32, true);
}

/**
 * Reference model: the cache as an array of per-way records with a
 * divided set index and tag, the layout the flat SetAssocCache replaced.
 */
class RefCache
{
  public:
    RefCache(std::size_t sets, unsigned assoc)
        : numSets(sets), assoc(assoc), ways(sets * assoc)
    {
    }

    /** Hit/miss and the prefetch bit the hit consumed. */
    std::pair<bool, bool>
    demandAccess(Addr addr, bool on_path)
    {
        ++stats.demandAccesses;
        Way* way = find(addr);
        if (!way) {
            ++stats.demandMisses;
            return {false, false};
        }
        ++stats.demandHits;
        way->lru = ++lruClock;
        bool prefetched = way->prefetch;
        if (way->prefetch) {
            ++stats.prefetchHits;
            way->prefetch = false;
        }
        if (way->prefetchTrue && on_path) {
            ++stats.prefetchHitsTrue;
            way->prefetchTrue = false;
        }
        return {true, prefetched};
    }

    void
    touch(Addr addr)
    {
        if (Way* way = find(addr)) {
            way->lru = ++lruClock;
        }
    }

    CacheInsertResult
    insert(Addr addr, bool is_prefetch)
    {
        CacheInsertResult res;
        if (Way* way = find(addr)) {
            way->lru = ++lruClock;
            return res;
        }
        std::size_t base = setOf(addr) * assoc;
        Way* victim = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            Way& way = ways[base + w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (!victim || way.lru < victim->lru) {
                victim = &way;
            }
        }
        if (victim->valid) {
            res.evicted = true;
            res.victimLine = (victim->tag * numSets + setOf(addr)) * kLineBytes;
            res.victimPrefetchUnused = victim->prefetch;
            ++stats.evictions;
            stats.prefetchUnused += victim->prefetch;
            stats.prefetchUnusedTrue += victim->prefetchTrue;
        }
        *victim = Way{true, tagOf(addr), is_prefetch, is_prefetch, ++lruClock};
        ++stats.inserts;
        return res;
    }

    bool
    invalidate(Addr addr)
    {
        Way* way = find(addr);
        if (!way) {
            return false;
        }
        way->valid = way->prefetch = way->prefetchTrue = false;
        return true;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    CacheStats stats;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        bool prefetch = false;
        bool prefetchTrue = false;
        std::uint64_t lru = 0;
    };

    std::size_t setOf(Addr addr) const
    {
        return static_cast<std::size_t>((addr / kLineBytes) % numSets);
    }
    Addr tagOf(Addr addr) const { return addr / kLineBytes / numSets; }

    Way*
    find(Addr addr)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            Way& way = ways[setOf(addr) * assoc + w];
            if (way.valid && way.tag == tagOf(addr)) {
                return &way;
            }
        }
        return nullptr;
    }

    std::size_t numSets;
    unsigned assoc;
    std::vector<Way> ways;
    std::uint64_t lruClock = 0;
};

TEST(SetAssocCache, MatchesPerWayReferenceModel)
{
    // The 32 KiB L1I, the 40 KiB 10-way L1I variant and the 2 MiB LLC.
    const std::pair<std::size_t, unsigned> geometries[] = {
        {64, 8}, {64, 10}, {2048, 16}};
    for (auto [sets, assoc] : geometries) {
        SCOPED_TRACE(testing::Message() << sets << "x" << assoc);
        SetAssocCache c(smallCache(Addr{sets} * assoc * kLineBytes, assoc));
        ASSERT_EQ(c.numSets(), sets);
        RefCache ref(sets, assoc);

        // assoc + 4 tags in each of six sets (the first, the last and
        // four in between), some with high tag bits, at random offsets
        // within their lines: sets overflow and evict.
        std::vector<Addr> lines;
        for (Addr t = 0; t < assoc + 4; ++t) {
            Addr tag = t % 3 == 2 ? t | (Addr{1} << 40) : t;
            for (Addr set : {Addr{0}, Addr{1}, Addr{2}, Addr{sets / 2},
                             Addr{sets - 2}, Addr{sets - 1}}) {
                lines.push_back((tag * sets + set) * kLineBytes);
            }
        }
        Rng rng(77 + sets + assoc);
        for (int step = 0; step < 20000; ++step) {
            Addr addr = lines[rng.below(lines.size())] + rng.below(kLineBytes);
            std::uint64_t op = rng.below(100);
            if (op < 45) {
                bool on_path = rng.chance(0.7);
                CacheAccess got = c.demandAccess(addr, on_path);
                auto [hit, prefetched] = ref.demandAccess(addr, on_path);
                ASSERT_EQ(got.hit, hit) << "step " << step;
                ASSERT_EQ(got.prefetched, prefetched) << "step " << step;
            } else if (op < 85) {
                bool is_prefetch = rng.chance(0.5);
                CacheInsertResult got = c.insert(addr, is_prefetch);
                CacheInsertResult want = ref.insert(addr, is_prefetch);
                ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
                ASSERT_EQ(got.victimLine, want.victimLine) << "step " << step;
                ASSERT_EQ(got.victimPrefetchUnused, want.victimPrefetchUnused)
                    << "step " << step;
            } else if (op < 93) {
                c.touch(addr);
                ref.touch(addr);
            } else if (op < 97) {
                ASSERT_EQ(c.contains(addr), ref.contains(addr))
                    << "step " << step;
            } else {
                ASSERT_EQ(c.invalidate(addr), ref.invalidate(addr))
                    << "step " << step;
            }
        }
        const CacheStats& got = c.stats();
        const CacheStats& want = ref.stats;
        EXPECT_EQ(got.demandAccesses, want.demandAccesses);
        EXPECT_EQ(got.demandHits, want.demandHits);
        EXPECT_EQ(got.demandMisses, want.demandMisses);
        EXPECT_EQ(got.inserts, want.inserts);
        EXPECT_EQ(got.evictions, want.evictions);
        EXPECT_EQ(got.prefetchHits, want.prefetchHits);
        EXPECT_EQ(got.prefetchUnused, want.prefetchUnused);
        EXPECT_EQ(got.prefetchHitsTrue, want.prefetchHitsTrue);
        EXPECT_EQ(got.prefetchUnusedTrue, want.prefetchUnusedTrue);
        EXPECT_GT(got.evictions, 1000u);
        EXPECT_GT(got.prefetchHits, 500u);
    }
}

// ------------------------------------------------------------------- MSHR

TEST(Mshr, AllocateFindDrain)
{
    MshrFile m(4);
    EXPECT_EQ(m.find(0x1000), nullptr);
    MshrEntry* e = m.allocate(0x1000, 100, true);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(m.find(0x1000), e);
    EXPECT_EQ(m.numFree(), 3u);

    int drained = 0;
    m.drainReady(99, [&](const MshrEntry&) { ++drained; });
    EXPECT_EQ(drained, 0);
    m.drainReady(100, [&](const MshrEntry& entry) {
        ++drained;
        EXPECT_EQ(entry.line, 0x1000u);
        EXPECT_TRUE(entry.isPrefetch);
    });
    EXPECT_EQ(drained, 1);
    EXPECT_EQ(m.numFree(), 4u);
}

TEST(Mshr, FillMovedBeforeTheEarliestDrainsOnTime)
{
    MshrFile m(4);
    MshrEntry* late = m.allocate(0x1000, 100, false);
    MshrEntry* moved = m.allocate(0x2000, 200, true);
    std::vector<Addr> drained;
    auto note = [&](const MshrEntry& e) { drained.push_back(e.line); };
    m.drainReady(50, note); // nothing due before cycle 100
    EXPECT_TRUE(drained.empty());

    // A DelayFill-style move to a cycle before the earliest fill.
    m.setReady(*moved, 60);
    EXPECT_EQ(m.checkInvariants(50), "");
    m.drainReady(59, note);
    EXPECT_TRUE(drained.empty());
    m.drainReady(60, note);
    EXPECT_EQ(drained, std::vector<Addr>{0x2000});
    EXPECT_TRUE(late->valid);
    m.drainReady(100, note);
    EXPECT_EQ(drained, (std::vector<Addr>{0x2000, 0x1000}));
    EXPECT_EQ(m.numFree(), 4u);
}

TEST(Mshr, FullRejects)
{
    MshrFile m(2);
    EXPECT_NE(m.allocate(0x1000, 10, false), nullptr);
    EXPECT_NE(m.allocate(0x2000, 10, false), nullptr);
    EXPECT_EQ(m.allocate(0x3000, 10, false), nullptr);
    EXPECT_TRUE(m.full());
}

TEST(Mshr, DemandMergeFlags)
{
    MshrFile m(4);
    MshrEntry* e = m.allocate(0x1000, 50, true);
    m.noteDemandMerge(*e, false);
    EXPECT_TRUE(e->demandMerged);
    EXPECT_FALSE(e->onPathDemandMerged);
    m.noteDemandMerge(*e, true);
    EXPECT_TRUE(e->onPathDemandMerged);
}

// ------------------------------------------------------------- stream pf

TEST(StreamPrefetcher, DetectsAscendingStream)
{
    StreamPrefetcher pf{StreamPrefetcherConfig{}};
    std::vector<Addr> out;
    for (int i = 0; i < 8; ++i) {
        out.clear();
        pf.observe(0x10000 + Addr(i) * kLineBytes, out);
    }
    EXPECT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x10000 + 8 * Addr{kLineBytes});
}

TEST(StreamPrefetcher, DetectsDescendingStream)
{
    StreamPrefetcher pf{StreamPrefetcherConfig{}};
    std::vector<Addr> out;
    for (int i = 0; i < 8; ++i) {
        out.clear();
        pf.observe(0x40000 - Addr(i) * kLineBytes, out);
    }
    EXPECT_FALSE(out.empty());
    EXPECT_LT(out[0], 0x40000 - 7 * Addr{kLineBytes});
}

TEST(StreamPrefetcher, NoFalseStreamsOnRandom)
{
    StreamPrefetcher pf{StreamPrefetcherConfig{}};
    Rng rng(9);
    std::vector<Addr> out;
    for (int i = 0; i < 200; ++i) {
        pf.observe(lineAddr(rng.next() & 0xfffffff), out);
    }
    EXPECT_LT(out.size(), 20u);
}

// ---------------------------------------------------------------- memsys

TEST(MemSystem, FetchMissThenFillThenHit)
{
    MemSystem mem{MemSysConfig{}};
    IFetchResult r1 = mem.ifetch(0x400000, 10, true);
    EXPECT_EQ(r1.where, IFetchWhere::Miss);
    EXPECT_GT(r1.ready, 10u);

    // Before the fill arrives: demand merges.
    IFetchResult r2 = mem.ifetch(0x400000, 11, true);
    EXPECT_EQ(r2.where, IFetchWhere::Mshr);

    mem.tick(r1.ready);
    IFetchResult r3 = mem.ifetch(0x400000, r1.ready + 1, true);
    EXPECT_EQ(r3.where, IFetchWhere::L1);
}

TEST(MemSystem, PrefetchThenDemandHit)
{
    MemSystem mem{MemSysConfig{}};
    EXPECT_EQ(mem.iprefetch(0x400000, 10), IPrefStatus::Issued);
    EXPECT_EQ(mem.iprefetch(0x400000, 11), IPrefStatus::InFlight);
    EXPECT_TRUE(mem.icacheLineInFlight(0x400000));

    // Let the fill land, then demand-hit the prefetched line.
    for (Cycle t = 10; t < 600; ++t) {
        mem.tick(t);
    }
    IFetchResult r = mem.ifetch(0x400010, 600, true);
    EXPECT_EQ(r.where, IFetchWhere::L1);
    EXPECT_TRUE(r.hitPrefetchedLine);
    EXPECT_EQ(mem.stats().ifetchTimelyPrefetchHits, 1u);
    EXPECT_EQ(mem.iprefetch(0x400000, 601), IPrefStatus::AlreadyPresent);
}

TEST(MemSystem, UntimelyPrefetchCountsAsMshrMerge)
{
    MemSystem mem{MemSysConfig{}};
    mem.iprefetch(0x400000, 10);
    IFetchResult r = mem.ifetch(0x400000, 12, true);
    EXPECT_EQ(r.where, IFetchWhere::Mshr);
    EXPECT_EQ(mem.stats().pfMshrMergesHw, 1u);
    EXPECT_EQ(mem.stats().pfMshrMergesTrue, 1u);
}

TEST(MemSystem, LatencyOrderingAcrossLevels)
{
    MemSystem mem{MemSysConfig{}};
    // Cold: DRAM distance.
    IFetchResult cold = mem.ifetch(0x400000, 100, true);
    Cycle dram_lat = cold.ready - 100;

    // Second line in L2 after eviction from L1I... simpler: data side.
    // A second cold line must queue behind DRAM bandwidth-wise but still
    // be DRAM-latency class; an L2-resident refetch must be much faster.
    MemSysConfig cfg;
    MemSystem mem2(cfg);
    Cycle t1 = mem2.dload(0x10000000, 100, true) - 100;
    Cycle t2 = mem2.dload(0x10000000, 5000, true) - 5000; // L1D hit now
    EXPECT_GT(t1, cfg.llcLat);
    EXPECT_EQ(t2, cfg.l1dLat);
    EXPECT_GT(dram_lat, cfg.memLat);
}

TEST(MemSystem, PerfectIcacheAlwaysHits)
{
    MemSysConfig cfg;
    cfg.perfectIcache = true;
    MemSystem mem(cfg);
    for (int i = 0; i < 100; ++i) {
        IFetchResult r = mem.ifetch(0x400000 + Addr(i) * 4096, 10, true);
        EXPECT_EQ(r.where, IFetchWhere::L1);
        EXPECT_EQ(r.ready, 10 + cfg.l1iLat);
    }
    EXPECT_EQ(mem.stats().ifetchMisses, 0u);
}

TEST(MemSystem, PrefetchDemotesToL2WhenFillBufferBusy)
{
    MemSysConfig cfg;
    cfg.l1iMshrs = 2;
    cfg.l1iMshrsForPrefetch = 2;
    MemSystem mem(cfg);
    EXPECT_EQ(mem.iprefetch(0x400000, 10), IPrefStatus::Issued);
    EXPECT_EQ(mem.iprefetch(0x410000, 10), IPrefStatus::Issued);
    EXPECT_EQ(mem.iprefetch(0x420000, 10), IPrefStatus::DemotedL2);
    EXPECT_EQ(mem.stats().iprefDemotedL2, 1u);

    // The demoted line now fills from L2, much faster than DRAM.
    for (Cycle t = 10; t < 600; ++t) {
        mem.tick(t);
    }
    IFetchResult r = mem.ifetch(0x420000, 600, true);
    EXPECT_EQ(r.where, IFetchWhere::Miss);
    EXPECT_LE(r.ready - 600, cfg.l1iLat + cfg.l2Lat);
}

TEST(MemSystem, DramBandwidthSerializes)
{
    MemSysConfig cfg;
    MemSystem mem(cfg);
    // Two cold lines at the same cycle: the second queues behind the first.
    Cycle r1 = mem.dload(0x10000000, 100, true);
    Cycle r2 = mem.dload(0x20000000, 100, true);
    EXPECT_GE(r2, r1 + cfg.memCyclesPerLine - 1);
}

} // namespace
} // namespace udp
