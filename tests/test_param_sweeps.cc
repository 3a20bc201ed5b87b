/**
 * @file
 * Parameterised property sweeps across component configurations:
 * monotonicity and correctness properties that must hold for *every*
 * geometry, not just the Table II defaults.
 */

#include <gtest/gtest.h>

#include "bpred/tage.h"
#include "cache/memsys.h"
#include "common/rng.h"

namespace udp {
namespace {

// ------------------------------------------------ icache size monotonicity

class IcacheSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IcacheSizeSweep, FixedPatternMissesAreBoundedByCapacity)
{
    MemSysConfig cfg;
    cfg.l1iSize = GetParam();
    MemSystem mem(cfg);

    // Touch a 64 KiB code region round-robin: a cache of size S keeps at
    // most S/64 of those lines.
    const unsigned lines = 1024;
    Cycle t = 1;
    for (int round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < lines; ++i) {
            mem.ifetch(0x400000 + Addr{i} * kLineBytes, t, true);
            for (int k = 0; k < 3; ++k) {
                mem.tick(++t);
            }
        }
    }
    // Fills must never exceed accesses, and hits must be consistent.
    const MemSysStats& s = mem.stats();
    EXPECT_EQ(s.ifetchAccesses, 3u * lines);
    EXPECT_EQ(s.ifetchL1Hits + s.ifetchMshrHits + s.ifetchMisses +
                  s.ifetchStalls,
              s.ifetchAccesses);
    // With a working set 2x..8x the cache, misses must dominate hits
    // after the first round for the smaller caches.
    if (GetParam() <= 32 * 1024) {
        EXPECT_GT(s.ifetchMisses, s.ifetchL1Hits / 4);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IcacheSizeSweep,
                         ::testing::Values(std::uint64_t{16 * 1024},
                                           std::uint64_t{32 * 1024},
                                           std::uint64_t{64 * 1024},
                                           std::uint64_t{128 * 1024}));

// --------------------------------------------------- TAGE geometry sweep

class TageGeometrySweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(TageGeometrySweep, LearnsPatternUnderAnyGeometry)
{
    auto [tables, bits] = GetParam();
    TageConfig cfg;
    cfg.numTables = tables;
    cfg.tableBits = bits;
    cfg.baseBits = 12;
    cfg.maxHist = 128;
    Tage tage(cfg);

    Addr pc = 0x400040;
    int late_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        TagePrediction p = tage.predict(pc);
        bool outcome = (i % 3) == 0; // period-3 pattern
        if (i > 2000 && p.taken != outcome) {
            ++late_misses;
        }
        tage.specUpdateHistory(outcome, pc);
        tage.update(pc, p, outcome);
    }
    EXPECT_LT(late_misses / 2000.0, 0.08)
        << "tables=" << tables << " bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TageGeometrySweep,
    ::testing::Values(std::make_pair(4u, 9u), std::make_pair(6u, 10u),
                      std::make_pair(8u, 11u), std::make_pair(12u, 11u)));

// ---------------------------------------------- MSHR capacity consistency

class MshrCapacitySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MshrCapacitySweep, NeverOverflowsAndAlwaysDrains)
{
    MshrFile m(GetParam());
    Rng rng(42);
    std::uint64_t allocated = 0;
    std::uint64_t drained = 0;
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        ++now;
        if (rng.chance(0.6)) {
            Addr line = lineAddr(rng.next() & 0xfffff);
            if (!m.find(line) &&
                m.allocate(line, now + rng.range(1, 50), rng.chance(0.5))) {
                ++allocated;
            }
        }
        m.drainReady(now, [&](const MshrEntry&) { ++drained; });
        ASSERT_LE(m.capacity() - m.numFree(), m.capacity());
    }
    // Everything allocated eventually drains.
    for (int k = 0; k < 60; ++k) {
        m.drainReady(now + k, [&](const MshrEntry&) { ++drained; });
    }
    EXPECT_EQ(drained, allocated);
    EXPECT_EQ(m.numFree(), m.capacity());
}

INSTANTIATE_TEST_SUITE_P(Capacities, MshrCapacitySweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

// --------------------------------------------- DRAM bandwidth monotonicity

TEST(DramBandwidth, MoreTrafficNeverFinishesEarlier)
{
    MemSysConfig cfg;
    MemSystem a(cfg);
    MemSystem b(cfg);

    // 'b' carries extra competing traffic; the probe load in 'b' must not
    // complete before the identical probe in 'a'.
    for (int i = 0; i < 8; ++i) {
        b.dload(0x40000000 + Addr(i) * 4096, 10, true);
    }
    Cycle probe_a = a.dload(0x7f000000, 10, true);
    Cycle probe_b = b.dload(0x7f000000, 10, true);
    EXPECT_GE(probe_b, probe_a);
}

} // namespace
} // namespace udp
