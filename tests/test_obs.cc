/**
 * @file
 * Tests for the cycle-loop self-profiler (src/obs/): its attribution
 * identity (phases sum to the measured loop time), its intervals on
 * telemetry's interval clock, and byte-identical Reports whether
 * profiling is on or off.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "stats/tracefile.h"

namespace udp {
namespace {

/** mediawiki and drupal x fdip32 and udp8k at a 5K/10K window. */
std::vector<SweepJob>
tinyJobs()
{
    RunOptions window;
    window.warmupInstrs = 5'000;
    window.measureInstrs = 10'000;
    std::vector<SweepJob> jobs;
    for (const char* app : {"mediawiki", "drupal"}) {
        jobs.push_back(
            {profileByName(app), presets::fdipBaseline(), window, "fdip32"});
        jobs.push_back(
            {profileByName(app), presets::udp8k(), window, "udp8k"});
    }
    return jobs;
}

// --- cycle-loop self-profiler ----------------------------------------------

TEST(ObsProfiler, AttributionCoversTheLoopByConstruction)
{
    obs::CycleProfiler prof;
    for (Cycle c = 1; c <= 25; ++c) {
        prof.beginCycle(c);
        prof.phase(obs::ProfPhase::Icache);
        prof.phase(obs::ProfPhase::Backend);
        prof.phase(obs::ProfPhase::Fetch);
        if (c % 10 == 0) {
            prof.closeInterval();
        }
        prof.endCycle();
    }
    auto snap = prof.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->cycles, 25u);
    // 2 full 10-cycle intervals + the partial tail closed into the copy.
    EXPECT_EQ(snap->intervals.size(), 3u);
    double phaseSum = 0.0;
    double fracSum = 0.0;
    for (std::size_t p = 0; p < obs::kNumProfPhases; ++p) {
        phaseSum += snap->phaseSec[p];
        fracSum += snap->phaseFrac(static_cast<obs::ProfPhase>(p));
    }
    EXPECT_GT(snap->totalSec, 0.0);
    EXPECT_NEAR(phaseSum, snap->totalSec, 1e-12)
        << "every nanosecond must land in exactly one phase";
    EXPECT_NEAR(fracSum, 1.0, 1e-9);
    double intervalSum = 0.0;
    for (const obs::ProfileIntervalRow& row : snap->intervals) {
        intervalSum += row.totalSec();
    }
    EXPECT_NEAR(intervalSum, snap->totalSec, 1e-12);
}

TEST(ObsProfiler, RunSimAttachesProfileAndKeepsReportsByteIdentical)
{
    // A profiled run takes Cpu::step<true>, a plain one step<false>: the
    // two must agree on every feature path (FDIP, UDP, UFTQ, EIP and
    // telemetry).
    std::vector<SweepJob> jobs = tinyJobs();
    const SweepJob base = jobs[0];
    jobs.push_back({base.profile, presets::uftq(UftqMode::AtrAur),
                    base.opts, "uftq"});
    jobs.push_back({base.profile, presets::eip8k(), base.opts, "eip8k"});
    SweepJob telemetry = jobs[1];
    telemetry.config.telemetry.enabled = true;
    telemetry.config.telemetry.trace = true;
    telemetry.config.telemetry.intervalCycles = 2'000;
    jobs.push_back(telemetry);

    for (const SweepJob& job : jobs) {
        SCOPED_TRACE(job.profile.name + "/" + job.label +
                     (job.config.telemetry.enabled ? "+telemetry" : ""));
        Report plain = runSim(job.profile, job.config, job.opts, job.label);
        EXPECT_EQ(plain.profile, nullptr);

        SimConfig cfg = job.config;
        cfg.profile.enabled = true;
        Report profiled = runSim(job.profile, cfg, job.opts, job.label);
        ASSERT_NE(profiled.profile, nullptr);
        EXPECT_GT(profiled.profile->totalSec, 0.0);
        EXPECT_EQ(profiled.profile->cycles, profiled.cycles)
            << "profiler must cover every measured cycle";
        EXPECT_FALSE(profiled.profile->intervals.empty());
        // Attribution identity: phases account for >= 95% of the measured
        // loop wall time (here exactly 100% by construction).
        double phaseSum = 0.0;
        for (std::size_t p = 0; p < obs::kNumProfPhases; ++p) {
            phaseSum += profiled.profile->phaseSec[p];
        }
        EXPECT_GE(phaseSum, 0.95 * profiled.profile->totalSec);

        EXPECT_EQ(reportToJsonLine(plain), reportToJsonLine(profiled))
            << "profiling must not perturb the report artifact";
        if (job.config.telemetry.enabled) {
            ASSERT_NE(plain.telemetry, nullptr);
            ASSERT_NE(profiled.telemetry, nullptr);
            EXPECT_EQ(telemetrySummaryToJsonLine(job.profile.name, job.label,
                                                 *plain.telemetry),
                      telemetrySummaryToJsonLine(job.profile.name, job.label,
                                                 *profiled.telemetry));
        }
    }
}

TEST(ObsProfiler, IntervalsCloseWithTelemetryRows)
{
    const SweepJob job = tinyJobs()[1];
    SimConfig cfg = job.config;
    cfg.profile.enabled = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.intervalCycles = 2'000;
    Report r = runSim(job.profile, cfg, job.opts, job.label);
    ASSERT_NE(r.profile, nullptr);
    ASSERT_NE(r.telemetry, nullptr);

    // Row i of both ends on the same cycle; the profile adds at most the
    // trailing partial interval, which telemetry does not report.
    const auto& prof = r.profile->intervals;
    const auto& tel = r.telemetry->intervals;
    ASSERT_GE(tel.size(), 5u);
    ASSERT_GE(prof.size(), tel.size());
    ASSERT_LE(prof.size(), tel.size() + 1);
    for (std::size_t i = 0; i < tel.size(); ++i) {
        EXPECT_EQ(prof[i].cycleEnd, tel[i].cycleEnd) << "interval " << i;
    }

    double phaseSum = 0.0;
    for (double sec : r.profile->phaseSec) {
        phaseSum += sec;
    }
    EXPECT_NEAR(phaseSum, r.profile->totalSec, 1e-12);
    double intervalSum = 0.0;
    for (const obs::ProfileIntervalRow& row : prof) {
        intervalSum += row.totalSec();
    }
    EXPECT_NEAR(intervalSum, r.profile->totalSec, 1e-9);
}

// --- chrome-trace + sink rendering of profiles -----------------------------

TEST(ObsProfiler, ChromeTraceAndSummaryRowRenderPhases)
{
    obs::CycleProfiler prof;
    for (Cycle c = 1; c <= 8; ++c) {
        prof.beginCycle(c);
        prof.phase(obs::ProfPhase::Prefetch);
        if (c % 4 == 0) {
            prof.closeInterval();
        }
        prof.endCycle();
    }
    auto snap = prof.snapshot();

    std::string trace = chromeTraceJson({{"mysql/udp8k", nullptr, snap}});
    EXPECT_NE(trace.find("self_profile"), std::string::npos);
    EXPECT_NE(trace.find("host_us_per_phase"), std::string::npos);
    EXPECT_NE(trace.find("\"prefetch\":"), std::string::npos);
    long depth = 0;
    for (char ch : trace) {
        depth += (ch == '{' || ch == '[') ? 1 : 0;
        depth -= (ch == '}' || ch == ']') ? 1 : 0;
    }
    EXPECT_EQ(depth, 0) << "unbalanced trace JSON";

    std::string row = profileSummaryToJsonLine("mysql", "udp8k", *snap);
    EXPECT_EQ(row.find("{\"row_type\":\"profile_summary\""), 0u) << row;
    EXPECT_NE(row.find("\"workload\":\"mysql\""), std::string::npos);
    EXPECT_NE(row.find("\"phase_prefetch_sec\":"), std::string::npos);
    EXPECT_NE(row.find("\"phase_prefetch_pct\":"), std::string::npos);
    EXPECT_NE(row.find("\"cycles\":8"), std::string::npos);
}

} // namespace
} // namespace udp
