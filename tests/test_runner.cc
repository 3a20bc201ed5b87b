/**
 * @file
 * Tests for the experiment API helpers: geomean, correlation, environment
 * options, Report flattening and the preset configurations.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/runner.h"
#include "stats/sink.h"
#include "workload/builder.h"

namespace udp {
namespace {

TEST(Runner, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Runner, CorrelationPerfectAndInverse)
{
    EXPECT_NEAR(correlation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
    EXPECT_NEAR(correlation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Runner, CorrelationDegenerateInputs)
{
    EXPECT_DOUBLE_EQ(correlation({1.0}, {2.0}), 0.0);       // too short
    EXPECT_DOUBLE_EQ(correlation({1, 2}, {1, 2, 3}), 0.0);  // size mismatch
    EXPECT_DOUBLE_EQ(correlation({5, 5, 5}, {1, 2, 3}), 0.0); // zero var
}

TEST(Runner, EnvRunOptionsOverride)
{
    setenv("UDP_BENCH_WARMUP", "1234", 1);
    setenv("UDP_BENCH_INSTR", "5678", 1);
    RunOptions o = envRunOptions();
    EXPECT_EQ(o.warmupInstrs, 1234u);
    EXPECT_EQ(o.measureInstrs, 5678u);
    unsetenv("UDP_BENCH_WARMUP");
    unsetenv("UDP_BENCH_INSTR");
    RunOptions d = envRunOptions();
    EXPECT_EQ(d.warmupInstrs, RunOptions{}.warmupInstrs);
}

TEST(Runner, EnvRunOptionsRejectsMalformedValues)
{
    const RunOptions defaults;
    // Non-numeric, trailing junk, zero, negative and overflow values all
    // warn on stderr and keep the default instead of silently wrapping.
    for (const char* bad : {"abc", "", "1e6", "100k", "0", "-5",
                            "99999999999999999999999999"}) {
        setenv("UDP_BENCH_WARMUP", bad, 1);
        setenv("UDP_BENCH_INSTR", bad, 1);
        RunOptions o = envRunOptions();
        EXPECT_EQ(o.warmupInstrs, defaults.warmupInstrs)
            << "accepted UDP_BENCH_WARMUP=\"" << bad << "\"";
        EXPECT_EQ(o.measureInstrs, defaults.measureInstrs)
            << "accepted UDP_BENCH_INSTR=\"" << bad << "\"";
    }
    unsetenv("UDP_BENCH_WARMUP");
    unsetenv("UDP_BENCH_INSTR");
}

TEST(Runner, ParsePositiveEnvContract)
{
    std::uint64_t v = 0;
    unsetenv("UDP_TEST_COUNT");
    EXPECT_FALSE(parsePositiveEnv("UDP_TEST_COUNT", &v)); // unset: silent

    setenv("UDP_TEST_COUNT", "42", 1);
    EXPECT_TRUE(parsePositiveEnv("UDP_TEST_COUNT", &v));
    EXPECT_EQ(v, 42u);

    setenv("UDP_TEST_COUNT", "4x", 1);
    v = 7;
    EXPECT_FALSE(parsePositiveEnv("UDP_TEST_COUNT", &v));
    EXPECT_EQ(v, 7u); // out untouched on failure
    unsetenv("UDP_TEST_COUNT");
}

TEST(Runner, ReportStatSetHasCoreMetrics)
{
    Report r;
    r.ipc = 1.5;
    r.icacheMpki = 3.25;
    StatSet s = r.toStatSet();
    EXPECT_DOUBLE_EQ(s.get("ipc"), 1.5);
    EXPECT_DOUBLE_EQ(s.get("icache_mpki"), 3.25);
    EXPECT_TRUE(s.has("timeliness"));
    EXPECT_TRUE(s.has("usefulness"));
    EXPECT_TRUE(s.has("onpath_ratio"));
    EXPECT_TRUE(s.has("avg_ftq_occupancy"));
}

TEST(Presets, TableIIDefaults)
{
    SimConfig c = presets::fdipBaseline();
    EXPECT_EQ(c.ftqCapacity, 32u);               // Ishii baseline
    EXPECT_EQ(c.mem.l1iSize, 32u * 1024);        // 32 KiB 8-way L1I
    EXPECT_EQ(c.mem.l1iAssoc, 8u);
    EXPECT_EQ(c.mem.l1dSize, 48u * 1024);        // 48 KiB 12-way L1D
    EXPECT_EQ(c.mem.l2Size, 512u * 1024);
    EXPECT_EQ(c.mem.llcSize, 2u * 1024 * 1024);
    EXPECT_EQ(c.bpu.btb.numEntries, 8192u);      // 8K BTB
    EXPECT_EQ(c.backend.robSize, 352u);          // Sunny-Cove-like
    EXPECT_EQ(c.backend.rsSize, 125u);
    EXPECT_EQ(c.backend.numAlu, 4u);
    EXPECT_EQ(c.backend.numLoad, 2u);
    EXPECT_EQ(c.backend.numStore, 2u);
    EXPECT_EQ(c.frontend.blocksPerCycle, 2u);    // FTQ blocks/cycle
}

TEST(Presets, VariantsDiffer)
{
    EXPECT_TRUE(presets::perfectIcache().mem.perfectIcache);
    EXPECT_FALSE(presets::noPrefetch().fdip.enabled);
    EXPECT_TRUE(presets::udp8k().udpEnabled);
    EXPECT_TRUE(presets::udpInfinite().udp.usefulSet.infiniteStorage);
    EXPECT_EQ(presets::bigIcache40k().mem.l1iSize, 40u * 1024);
    EXPECT_EQ(presets::bigIcache40k().mem.l1iAssoc, 10u);
    EXPECT_TRUE(presets::eip8k().eipEnabled);
    EXPECT_EQ(presets::uftq(UftqMode::AtrAur).uftq.mode, UftqMode::AtrAur);
    EXPECT_EQ(presets::fdipWithFtq(96).ftqCapacity, 96u);
    EXPECT_GE(presets::fdipWithFtq(200).ftqPhysical, 200u);
}

TEST(Runner, ProgramCacheGivesSameWorkload)
{
    // Every runSim of a Profile simulates the Program built from that
    // Profile. The cache keys on the whole Profile, so a second run hits
    // the first's Program, and one that differs only in outcome noise
    // gets its own.
    Profile p = profileByName("mediawiki");
    p.codeFootprintKB = 96;
    p.name = "mediawiki-cache-test";
    Profile noisy = p;
    noisy.noise = 0.2;
    RunOptions o;
    o.warmupInstrs = 20'000;
    o.measureInstrs = 30'000;
    const SimConfig cfg = presets::fdipBaseline();
    for (const Profile* q : {&p, &p, &noisy}) {
        const Program prog = ProgramBuilder::build(*q);
        Cpu cpu(prog, cfg);
        cpu.runUntilRetired(o.warmupInstrs);
        cpu.clearStats();
        cpu.runUntilRetired(o.measureInstrs);
        EXPECT_EQ(reportToJsonLine(runSim(*q, cfg, o, "")),
                  reportToJsonLine(collectReport(cpu, q->name, "")))
            << "noise " << q->noise;
    }
}

} // namespace
} // namespace udp
