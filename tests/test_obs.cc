/**
 * @file
 * Tests for the observability subsystem (src/obs/): the structured event
 * log's JSONL sink, rate limiting and flush-on-error ring, and the
 * cycle-loop self-profiler's attribution identity (phases sum to the
 * measured loop time) with byte-identical Reports whether profiling is
 * on or off.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/eventlog.h"
#include "obs/profiler.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "stats/tracefile.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace udp {
namespace {

std::string
freshDir(const std::string& tag)
{
    namespace fs = std::filesystem;
#ifndef _WIN32
    std::string pid = std::to_string(::getpid());
#else
    std::string pid = "0";
#endif
    fs::path p =
        fs::temp_directory_path() / ("udp_obs_test_" + tag + "_" + pid);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

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

// --- event log -------------------------------------------------------------

TEST(ObsEventLog, SinkSchemaRateLimitAndErrorFlush)
{
    obs::EventLog& log = obs::EventLog::global();
    std::string dir = freshDir("eventlog");
    std::string path = dir + "/events.jsonl";
    // Keep the test's own emissions off the test output.
    log.setStderrLevel(obs::LogLevel::Error);
    ASSERT_TRUE(log.openSink(path));

    obs::Event(obs::LogLevel::Info, "obs-test", "tick")
        .u64("n", 1)
        .str("who", "a\"b")
        .every(3600.0)
        .emit();
    std::uint64_t dropsBefore = log.rateLimitedDrops();
    obs::Event(obs::LogLevel::Info, "obs-test", "tick")
        .u64("n", 2)
        .every(3600.0)
        .emit(); // same key inside the window: dropped
    EXPECT_EQ(log.rateLimitedDrops(), dropsBefore + 1);
    obs::Event(obs::LogLevel::Info, "obs-test", "tick")
        .u64("n", 3)
        .every(3600.0)
        .force()
        .emit(); // force bypasses the window

    // Debug is below the sink threshold — it reaches the file only when
    // the subsequent Error flushes the ring for post-mortem context.
    obs::Event(obs::LogLevel::Debug, "obs-test", "breadcrumb")
        .u64("step", 42)
        .emit();
    obs::Event(obs::LogLevel::Error, "obs-test", "boom").emit();

    log.closeSink();
    log.setStderrLevel(obs::LogLevel::Info);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) {
        lines.push_back(l);
    }
    auto countContaining = [&](const std::string& needle) {
        std::size_t n = 0;
        for (const std::string& l : lines) {
            if (l.find(needle) != std::string::npos) {
                ++n;
            }
        }
        return n;
    };
    EXPECT_EQ(countContaining("\"event\":\"tick\""), 2u)
        << "rate-limited repeat must not reach the sink";
    EXPECT_EQ(countContaining("\"n\":1"), 1u);
    EXPECT_EQ(countContaining("\"n\":3"), 1u);
    EXPECT_EQ(countContaining("\"who\":\"a\\\"b\""), 1u)
        << "field values must be JSON-escaped";
    EXPECT_EQ(countContaining("\"breadcrumb\""), 1u)
        << "error must flush sub-threshold ring context";
    EXPECT_EQ(countContaining("\"level\":\"error\""), 1u);
    for (const std::string& l : lines) {
        EXPECT_EQ(l.find("{\"ts_ms\":"), 0u)
            << "schema-stable leading key, got: " << l;
        EXPECT_NE(l.find("\"source\":"), std::string::npos);
        EXPECT_NE(l.find("\"event\":"), std::string::npos);
    }
    // The ring keeps recent lines for diagnostics.
    bool sawBoom = false;
    for (const std::string& l : obs::EventLog::global().recentLines()) {
        sawBoom = sawBoom || l.find("\"boom\"") != std::string::npos;
    }
    EXPECT_TRUE(sawBoom);
}

// --- cycle-loop self-profiler ----------------------------------------------

TEST(ObsProfiler, AttributionCoversTheLoopByConstruction)
{
    obs::CycleProfiler prof(/*intervalCycles=*/10);
    for (Cycle c = 1; c <= 25; ++c) {
        prof.beginCycle(c);
        prof.phase(obs::ProfPhase::Icache);
        prof.phase(obs::ProfPhase::Backend);
        prof.phase(obs::ProfPhase::Fetch);
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
    std::vector<SweepJob> jobs = tinyJobs();
    const SweepJob& job = jobs[0];

    Report plain = runSim(job.profile, job.config, job.opts, job.label);
    EXPECT_EQ(plain.profile, nullptr);

    SimConfig cfg = job.config;
    cfg.profile.enabled = true;
    cfg.profile.intervalCycles = 5'000;
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
}

// --- chrome-trace + sink rendering of profiles -----------------------------

TEST(ObsProfiler, ChromeTraceAndSummaryRowRenderPhases)
{
    obs::CycleProfiler prof(/*intervalCycles=*/4);
    for (Cycle c = 1; c <= 8; ++c) {
        prof.beginCycle(c);
        prof.phase(obs::ProfPhase::Prefetch);
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
