/**
 * @file
 * End-to-end integration tests: the full Cpu on generated workloads.
 * Checks determinism, cross-configuration orderings that must hold for
 * the paper's experiments to be meaningful, and report invariants.
 */

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "workload/builder.h"

namespace udp {
namespace {

RunOptions
smallRun()
{
    RunOptions o;
    o.warmupInstrs = 60'000;
    o.measureInstrs = 120'000;
    return o;
}

/** A scaled-down profile so integration tests stay fast. */
Profile
testProfile(const char* base_name, std::uint32_t footprint_kb = 192)
{
    Profile p = profileByName(base_name);
    p.name = std::string(base_name) + "-small";
    p.codeFootprintKB = footprint_kb;
    return p;
}

TEST(Integration, DeterministicAcrossRuns)
{
    Profile p = testProfile("mysql");
    Report a = runSim(p, presets::fdipBaseline(), smallRun(), "a");
    Report b = runSim(p, presets::fdipBaseline(), smallRun(), "b");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.prefetchesEmitted, b.prefetchesEmitted);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Integration, RetiresExactlyTheTarget)
{
    Profile p = testProfile("postgres");
    const Program& prog = [&]() -> const Program& {
        static Program pr = ProgramBuilder::build(p);
        return pr;
    }();
    Cpu cpu(prog, presets::fdipBaseline());
    cpu.runUntilRetired(50'000);
    EXPECT_GE(cpu.retired(), 50'000u);
    EXPECT_LT(cpu.retired(), 50'000u + 8); // at most one retire group over
}

TEST(Integration, PerfectIcacheBeatsFdipBeatsNoPrefetch)
{
    for (const char* name : {"mysql", "clang"}) {
        Profile p = testProfile(name);
        Report nopf = runSim(p, presets::noPrefetch(), smallRun(), "no");
        Report fdip = runSim(p, presets::fdipBaseline(), smallRun(), "f");
        Report perf = runSim(p, presets::perfectIcache(), smallRun(), "p");
        EXPECT_GT(fdip.ipc, nopf.ipc) << name;
        EXPECT_GT(perf.ipc, fdip.ipc * 0.999) << name;
        EXPECT_EQ(perf.icacheMpki, 0.0) << name;
    }
}

TEST(Integration, FdipReducesIcacheMisses)
{
    Profile p = testProfile("mysql");
    Report nopf = runSim(p, presets::noPrefetch(), smallRun(), "no");
    Report fdip = runSim(p, presets::fdipBaseline(), smallRun(), "f");
    EXPECT_LT(fdip.icacheMpki, nopf.icacheMpki * 0.7);
    EXPECT_GT(fdip.prefetchesEmitted, 0u);
    EXPECT_EQ(nopf.prefetchesEmitted, 0u);
}

TEST(Integration, WrongPathPrefetchesExist)
{
    Profile p = testProfile("mysql");
    Report r = runSim(p, presets::fdipBaseline(), smallRun(), "f");
    EXPECT_GT(r.onPathRatio, 0.0);
    EXPECT_LT(r.onPathRatio, 1.0);
    EXPECT_GT(r.resteers, 0u);
    EXPECT_GT(r.decodeCorrections, 0u);
}

class IntegrationAllConfigs
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(IntegrationAllConfigs, RunsAndReportsSane)
{
    Profile p = testProfile("tomcat");
    SimConfig cfg;
    std::string which = GetParam();
    if (which == "fdip") {
        cfg = presets::fdipBaseline();
    } else if (which == "noPrefetch") {
        cfg = presets::noPrefetch();
    } else if (which == "perfect") {
        cfg = presets::perfectIcache();
    } else if (which == "udp8k") {
        cfg = presets::udp8k();
    } else if (which == "udpInfinite") {
        cfg = presets::udpInfinite();
    } else if (which == "uftqAur") {
        cfg = presets::uftq(UftqMode::Aur);
    } else if (which == "uftqAtr") {
        cfg = presets::uftq(UftqMode::Atr);
    } else if (which == "uftqAtrAur") {
        cfg = presets::uftq(UftqMode::AtrAur);
    } else if (which == "eip8k") {
        cfg = presets::eip8k();
    } else if (which == "bigIcache") {
        cfg = presets::bigIcache40k();
    } else if (which == "ftq8") {
        cfg = presets::fdipWithFtq(8);
    } else if (which == "ftq128") {
        cfg = presets::fdipWithFtq(128);
    }

    Report r = runSim(p, cfg, smallRun(), which);
    EXPECT_GT(r.ipc, 0.05) << which;
    EXPECT_LT(r.ipc, 6.0) << which;
    EXPECT_GE(r.timeliness, 0.0);
    EXPECT_LE(r.timeliness, 1.0);
    EXPECT_GE(r.usefulness, 0.0);
    EXPECT_LE(r.usefulness, 1.0);
    EXPECT_GE(r.onPathRatio, 0.0);
    EXPECT_LE(r.onPathRatio, 1.0);
    EXPECT_GE(r.condMispredictRate, 0.0);
    EXPECT_LE(r.condMispredictRate, 1.0);
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IntegrationAllConfigs,
    ::testing::Values("fdip", "noPrefetch", "perfect", "udp8k",
                      "udpInfinite", "uftqAur", "uftqAtr", "uftqAtrAur",
                      "eip8k", "bigIcache", "ftq8", "ftq128"));

TEST(Integration, FtqOccupancyBounded)
{
    Profile p = testProfile("mysql");
    for (unsigned depth : {8u, 32u, 64u}) {
        Report r = runSim(p, presets::fdipWithFtq(depth), smallRun(), "");
        EXPECT_LE(r.avgFtqOccupancy, static_cast<double>(depth) + 0.5)
            << depth;
    }
}

TEST(Integration, DeeperFtqEmitsMoreOffPathPrefetches)
{
    // Paper Fig. 5: the on-path ratio shrinks as the FTQ deepens.
    Profile p = testProfile("mysql");
    Report shallow = runSim(p, presets::fdipWithFtq(8), smallRun(), "");
    Report deep = runSim(p, presets::fdipWithFtq(96), smallRun(), "");
    EXPECT_LT(deep.onPathRatio, shallow.onPathRatio);
}

TEST(Integration, DeeperFtqImprovesTimeliness)
{
    // Paper Fig. 4: deeper runahead -> prefetches arrive earlier.
    Profile p = testProfile("verilator", 1024);
    Report shallow = runSim(p, presets::fdipWithFtq(8), smallRun(), "");
    Report deep = runSim(p, presets::fdipWithFtq(64), smallRun(), "");
    EXPECT_GT(deep.timeliness, shallow.timeliness);
}

TEST(Integration, UdpDropsOffPathAssumedCandidates)
{
    Profile p = testProfile("xgboost", 512);
    Report r = runSim(p, presets::udp8k(), smallRun(), "udp");
    EXPECT_GT(r.udpDropped + r.udpFilteredEmits, 0u);
    EXPECT_GT(r.udpLearned, 0u);
}

TEST(Integration, UftqAdjustsDepth)
{
    Profile p = testProfile("clang", 512);
    const Program& prog = [&]() -> const Program& {
        static Program pr = ProgramBuilder::build(p);
        return pr;
    }();
    Cpu cpu(prog, presets::uftq(UftqMode::Aur));
    cpu.runUntilRetired(150'000);
    ASSERT_NE(cpu.uftq(), nullptr);
    EXPECT_GT(cpu.uftq()->stats().epochs, 0u);
    // The depth moved away from the initial 32 at least once overall.
    EXPECT_NE(cpu.uftq()->stats().increases +
                  cpu.uftq()->stats().decreases,
              0u);
}

TEST(Integration, StatsClearGivesCleanWindow)
{
    Profile p = testProfile("drupal");
    const Program& prog = [&]() -> const Program& {
        static Program pr = ProgramBuilder::build(p);
        return pr;
    }();
    Cpu cpu(prog, presets::fdipBaseline());
    cpu.runUntilRetired(50'000);
    const CpuCounters before = cpu.counters();
    cpu.clearStats();
    EXPECT_EQ(cpu.retired(), 0u);
    EXPECT_EQ(cpu.cyclesSinceClear(), 0u);
    // The window starts at a snapshot: every component counter survives.
    EXPECT_EQ(cpu.windowStart().cycle, cpu.now());
    EXPECT_EQ(cpu.backend().stats().retired, before.retired);
    EXPECT_GE(before.retired, 50'000u);
    EXPECT_EQ(cpu.mem().stats().ifetchAccesses, before.mem.ifetchAccesses);
    EXPECT_GT(before.mem.ifetchAccesses, 0u);
    EXPECT_EQ(cpu.fdip().stats().emitted, before.fdip.emitted);
    EXPECT_GT(before.fdip.emitted, 0u);
    EXPECT_EQ(cpu.bpu().stats().condPredictions, before.bpu.condPredictions);
    EXPECT_GT(before.bpu.condPredictions, 0u);
    EXPECT_EQ(cpu.ftq().stats().occupancySamples, before.ftq.occupancySamples);
    EXPECT_EQ(cpu.ftq().stats().occupancySamples, cpu.now());
    cpu.runUntilRetired(10'000);
    Report r = collectReport(cpu, "drupal", "window");
    EXPECT_GE(r.instructions, 10'000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Integration, EipIssuesPrefetchesWithFdipDisabled)
{
    Profile p = testProfile("mysql");
    SimConfig cfg = presets::eip8k();
    cfg.fdip.enabled = false; // EIP standalone
    const Program& prog = [&]() -> const Program& {
        static Program pr = ProgramBuilder::build(p);
        return pr;
    }();
    Cpu cpu(prog, cfg);
    cpu.runUntilRetired(100'000);
    ASSERT_NE(cpu.eip(), nullptr);
    EXPECT_GT(cpu.eip()->stats().trainings, 0u);
}

TEST(Integration, BtbSizeMatters)
{
    // A tiny BTB must cause more decode corrections than the 8K default.
    Profile p = testProfile("mysql");
    SimConfig small = presets::fdipBaseline();
    small.bpu.btb.numEntries = 512;
    Report rs = runSim(p, small, smallRun(), "btb512");
    Report rb = runSim(p, presets::fdipBaseline(), smallRun(), "btb8k");
    EXPECT_GT(rs.decodeCorrections, rb.decodeCorrections);
    EXPECT_LE(rs.ipc, rb.ipc * 1.02);
}

} // namespace
} // namespace udp
