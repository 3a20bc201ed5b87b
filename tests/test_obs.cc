/**
 * @file
 * Tests for the observability subsystem (src/obs/): the metrics registry
 * under concurrent increments and registration races, log2-histogram
 * bucket/percentile edge cases, the structured event log's JSONL sink,
 * rate limiting and flush-on-error ring, the sweep status JSON round
 * trip, the live status surface of a distributed sweep — including a
 * mid-sweep worker SIGKILL whose per-worker counters and final job
 * states must reconcile with the merged manifest — and the cycle-loop
 * self-profiler's attribution identity (phases sum to the measured loop
 * time) with byte-identical Reports whether profiling is on or off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/status.h"
#include "sim/manifest.h"
#include "sim/procexec.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"
#include "stats/sink.h"
#include "stats/tracefile.h"

#ifndef _WIN32
#include <sys/wait.h>
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

SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "obs-tiny";
    s.warmupInstrs = 5'000;
    s.measureInstrs = 10'000;
    s.workloads = {"mediawiki", "drupal"};
    s.configs = {{"fdip32", "fdip", 0}, {"udp8k", "udp8k", 0}};
    return s;
}

std::vector<SweepJob>
tinyJobs()
{
    std::vector<SweepJob> jobs;
    std::string err;
    EXPECT_TRUE(expandSweepSpec(tinySpec(), &jobs, &err)) << err;
    return jobs;
}

LeasePolicy
fastPolicy()
{
    LeasePolicy p;
    p.leaseTtlSec = 1.0;
    p.maxAttempts = 3;
    p.backoffBaseSec = 0.05;
    p.backoffCapSec = 0.2;
    p.stragglerAfterSec = 0.5;
    p.noWorkRetrySec = 0.02;
    return p;
}

// --- metrics registry ------------------------------------------------------

TEST(ObsMetrics, ConcurrentIncrementsAreLossless)
{
    // Every thread resolves the SAME counter by name, then hammers it;
    // relaxed atomic adds must not lose a single increment (this is the
    // test TSan watches for data races on the hot path).
    const unsigned kThreads = 8;
    const std::uint64_t kPerThread = 50'000;
    obs::Counter& c = obs::counter("test.concurrent_increments");
    std::uint64_t base = c.value();
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            obs::Counter& mine = obs::counter("test.concurrent_increments");
            for (std::uint64_t k = 0; k < kPerThread; ++k) {
                mine.add(1);
            }
        });
    }
    for (auto& t : ts) {
        t.join();
    }
    EXPECT_EQ(c.value() - base, kThreads * kPerThread);
}

TEST(ObsMetrics, RegistrationRaceYieldsOneObject)
{
    // Threads race to register the same (previously unseen) name: all
    // must get the SAME object, and the concurrent observes must all
    // land in it.
    const unsigned kThreads = 8;
    std::vector<obs::Log2Histogram*> got(kThreads, nullptr);
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < kThreads; ++i) {
        ts.emplace_back([&got, i] {
            obs::Log2Histogram& h =
                obs::histogram("test.registration_race");
            h.observe(i);
            got[i] = &h;
        });
    }
    for (auto& t : ts) {
        t.join();
    }
    for (unsigned i = 1; i < kThreads; ++i) {
        EXPECT_EQ(got[i], got[0]) << "registration race forked the metric";
    }
    EXPECT_EQ(got[0]->count(), kThreads);
}

TEST(ObsMetrics, HistogramBucketAndPercentileEdges)
{
    using H = obs::Log2Histogram;
    // Bucket layout: 0 -> bucket 0; [2^(b-1), 2^b) -> bucket b.
    EXPECT_EQ(H::bucketOf(0), 0u);
    EXPECT_EQ(H::bucketOf(1), 1u);
    EXPECT_EQ(H::bucketOf(2), 2u);
    EXPECT_EQ(H::bucketOf(3), 2u);
    EXPECT_EQ(H::bucketOf(4), 3u);
    EXPECT_EQ(H::bucketOf(~0ull), 64u);
    EXPECT_EQ(H::bucketUpper(0), 0u);
    EXPECT_EQ(H::bucketUpper(1), 1u);
    EXPECT_EQ(H::bucketUpper(2), 3u);
    EXPECT_EQ(H::bucketUpper(64), ~0ull);

    H empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.percentile(50.0), 0u) << "empty histogram reads 0";

    H one;
    one.observe(5);
    EXPECT_EQ(one.percentile(0.0), 7u) << "single sample, bucket [4,7]";
    EXPECT_EQ(one.percentile(100.0), 7u);

    // 99 zeros and one huge value: p50 stays in the zero bucket, p100
    // lands in the outlier's bucket.
    H skewed;
    for (int i = 0; i < 99; ++i) {
        skewed.observe(0);
    }
    skewed.observe(1 << 20);
    EXPECT_EQ(skewed.percentile(50.0), 0u);
    EXPECT_EQ(skewed.percentile(99.0), 0u);
    EXPECT_EQ(skewed.percentile(100.0), (1u << 21) - 1);
    EXPECT_EQ(skewed.count(), 100u);
    EXPECT_EQ(skewed.sum(), 1u << 20);
}

TEST(ObsMetrics, SnapshotJsonIsStableAndComplete)
{
    obs::counter("test.snap_counter").add(7);
    obs::gauge("test.snap_gauge").set(-3);
    obs::histogram("test.snap_hist").observe(100);
    std::string json = obs::Registry::global().snapshotJson();
    EXPECT_NE(json.find("\"test.snap_counter\":7"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"test.snap_gauge\":-3"), std::string::npos);
    EXPECT_NE(json.find("\"test.snap_hist.count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"test.snap_hist.sum\":100"), std::string::npos);
    EXPECT_NE(json.find("\"test.snap_hist.p50\""), std::string::npos);
    EXPECT_NE(json.find("\"test.snap_hist.p99\""), std::string::npos);
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

// --- status JSON round trip ------------------------------------------------

TEST(ObsStatus, JsonRoundTripPreservesEveryField)
{
    obs::SweepStatus s;
    s.name = "fig13";
    s.transport = "fs";
    s.tsMs = 1723190400123ull;
    s.total = 40;
    s.done = 12;
    s.failed = 1;
    s.resumed = 4;
    s.pending = 20;
    s.leased = 7;
    s.elapsedSec = 34.5;
    s.etaSec = 81.25;
    s.jobStates = "DDDDDDDDDDDDFLLLLLLLPPPPPPPPPPPPPPPPPPPP";
    obs::WorkerStatusRow w;
    w.name = "w\"1"; // exercises escaping
    w.activeLeases = 2;
    w.claims = 10;
    w.completed = 8;
    w.failed = 1;
    w.retries = 1;
    w.stragglers = 2;
    w.renewals = 14;
    w.expirations = 3;
    w.lastSeenSec = 0.25;
    s.workers.push_back(w);
    s.metricsJson = "{\"sweepd.jobs_final\":13}";

    std::string json = sweepStatusToJson(s);
    obs::SweepStatus r;
    ASSERT_TRUE(sweepStatusFromJson(json, &r)) << json;
    EXPECT_EQ(r.name, s.name);
    EXPECT_EQ(r.transport, s.transport);
    EXPECT_EQ(r.tsMs, s.tsMs);
    EXPECT_EQ(r.total, s.total);
    EXPECT_EQ(r.done, s.done);
    EXPECT_EQ(r.failed, s.failed);
    EXPECT_EQ(r.resumed, s.resumed);
    EXPECT_EQ(r.pending, s.pending);
    EXPECT_EQ(r.leased, s.leased);
    EXPECT_DOUBLE_EQ(r.elapsedSec, s.elapsedSec);
    EXPECT_DOUBLE_EQ(r.etaSec, s.etaSec);
    EXPECT_EQ(r.jobStates, s.jobStates);
    EXPECT_EQ(r.metricsJson, s.metricsJson);
    ASSERT_EQ(r.workers.size(), 1u);
    EXPECT_EQ(r.workers[0].name, w.name);
    EXPECT_EQ(r.workers[0].activeLeases, w.activeLeases);
    EXPECT_EQ(r.workers[0].claims, w.claims);
    EXPECT_EQ(r.workers[0].completed, w.completed);
    EXPECT_EQ(r.workers[0].failed, w.failed);
    EXPECT_EQ(r.workers[0].retries, w.retries);
    EXPECT_EQ(r.workers[0].stragglers, w.stragglers);
    EXPECT_EQ(r.workers[0].renewals, w.renewals);
    EXPECT_EQ(r.workers[0].expirations, w.expirations);
    EXPECT_DOUBLE_EQ(r.workers[0].lastSeenSec, w.lastSeenSec);
    EXPECT_EQ(r.finals(), 13u);

    obs::SweepStatus bad;
    EXPECT_FALSE(sweepStatusFromJson("not json", &bad));
    EXPECT_FALSE(sweepStatusFromJson("{\"total\":", &bad));
}

// --- live status surface of a running sweep --------------------------------

TEST(ObsStatus, FsStatusAnswersMidSweep)
{
    std::vector<SweepJob> jobs = tinyJobs();
    CoordinatorOptions co;
    co.name = "fs-live";
    co.policy = fastPolicy();
    co.endpoint = freshDir("status_live") + "/q";
    co.specJson = sweepSpecToJson(tinySpec());
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    std::thread worker([&] {
        FsWorkQueue q(coord.endpoint());
        std::string werr;
        ASSERT_TRUE(q.connect(&werr)) << werr;
        WorkerOptions wo;
        wo.name = "slow";
        wo.quiet = true;
        wo.jobDelayMs = 100; // keeps the sweep alive while we poll status
        runSweepWorker(q, jobs, wo);
    });

    // status.json is republished by the tick loop inside coord.run(), so
    // poll it concurrently; collect raw snapshots and verify after join.
    std::atomic<bool> done{false};
    std::mutex mtx;
    std::vector<std::string> snapshots;
    std::thread poller([&] {
        while (!done.load()) {
            std::string raw;
            std::string qerr;
            if (queryQueueStatus(coord.endpoint(), &raw, &qerr)) {
                std::lock_guard<std::mutex> lock(mtx);
                snapshots.push_back(std::move(raw));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    std::vector<JobResult> results = coord.run();
    done.store(true);
    worker.join();
    poller.join();

    ASSERT_FALSE(snapshots.empty())
        << "no status snapshot while the sweep was live";
    bool sawWorker = false;
    for (const std::string& raw : snapshots) {
        obs::SweepStatus s;
        ASSERT_TRUE(obs::sweepStatusFromJson(raw, &s)) << raw;
        EXPECT_EQ(s.total, jobs.size());
        EXPECT_EQ(s.transport, "fs");
        EXPECT_EQ(s.name, "fs-live");
        EXPECT_EQ(s.jobStates.size(), jobs.size());
        EXPECT_LE(s.finals(), s.total);
        if (s.finals() < s.total && !s.workers.empty() &&
            s.workers[0].name == "slow" && s.workers[0].claims >= 1) {
            sawWorker = true;
        }
    }
    EXPECT_TRUE(sawWorker)
        << "the live worker never appeared on the mid-sweep status board";
    ASSERT_EQ(results.size(), jobs.size());
    for (const JobResult& r : results) {
        EXPECT_TRUE(r.ok);
    }
}

#ifndef _WIN32

pid_t
forkWorker(const std::string& dir, const std::vector<SweepJob>& jobs,
           const std::string& name, unsigned jobDelayMs)
{
    pid_t pid = ::fork();
    if (pid != 0) {
        return pid;
    }
    FsWorkQueue q(dir);
    std::string err;
    if (!q.connect(&err)) {
        ::_exit(2);
    }
    WorkerOptions wo;
    wo.name = name;
    wo.quiet = true;
    wo.jobDelayMs = jobDelayMs;
    WorkerSummary s = runSweepWorker(q, jobs, wo);
    ::_exit(s.queueLost ? 3 : 0);
}

/**
 * The acceptance scenario: an FS-transport sweep with one worker
 * SIGKILLed mid-job. After the drain, "<dir>/status.json" must
 * reconcile exactly with the merged manifest — every job Done, success
 * count matching, per-worker completions summing to the job count, and
 * the victim's lost lease visible as an expiration.
 */
TEST(ObsStatus, FsStatusAfterWorkerSigkillReconcilesWithManifest)
{
    if (!procIsolationSupported()) {
        GTEST_SKIP() << "no fork() on this platform";
    }
    std::vector<SweepJob> jobs = tinyJobs();
    std::string dir = freshDir("status_chaos");
    std::string manifestPath = dir + "/manifest.jsonl";

    CoordinatorOptions co;
    co.name = "fs-chaos";
    co.policy = fastPolicy(); // 1 s lease TTL
    co.endpoint = dir + "/q";
    co.specJson = sweepSpecToJson(tinySpec());
    co.manifestPath = manifestPath;
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    pid_t victim = forkWorker(coord.endpoint(), jobs, "victim", 10'000);
    ASSERT_GT(victim, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    pid_t survivor = forkWorker(coord.endpoint(), jobs, "survivor", 0);
    ASSERT_GT(survivor, 0);

    std::vector<JobResult> results = coord.run();
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
    ASSERT_EQ(results.size(), jobs.size());
    for (const JobResult& r : results) {
        ASSERT_TRUE(r.ok) << r.error.message;
    }

    // Post-drain status file: the reconciliation surface.
    std::string raw;
    ASSERT_TRUE(queryQueueStatus(co.endpoint, &raw, &err)) << err;
    obs::SweepStatus s;
    ASSERT_TRUE(obs::sweepStatusFromJson(raw, &s)) << raw;
    EXPECT_EQ(s.name, "fs-chaos");
    EXPECT_EQ(s.transport, "fs");
    EXPECT_EQ(s.total, jobs.size());
    EXPECT_EQ(s.done, jobs.size());
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.leased, 0u);
    EXPECT_EQ(s.jobStates, std::string(jobs.size(), obs::kJobDone));

    // Per-worker counters reconcile with the manifest's outcomes.
    std::vector<ManifestEntry> entries = readManifestFile(manifestPath);
    std::size_t okEntries = 0;
    for (const ManifestEntry& e : entries) {
        okEntries += e.ok ? 1 : 0;
        EXPECT_FALSE(e.worker.empty())
            << "manifest rows must attribute their worker";
    }
    EXPECT_EQ(okEntries, s.done);
    std::uint64_t completedSum = 0;
    std::uint64_t recoveries = 0; // expiry, straggler dup or retry
    bool sawVictim = false;
    for (const obs::WorkerStatusRow& w : s.workers) {
        completedSum += w.completed;
        recoveries += w.expirations + w.stragglers + w.retries;
        if (w.name == "victim") {
            sawVictim = true;
            EXPECT_GE(w.claims, 1u);
            EXPECT_EQ(w.completed, 0u);
        }
        EXPECT_EQ(w.activeLeases, 0u) << w.name;
    }
    EXPECT_TRUE(sawVictim) << "SIGKILLed worker must stay on the board";
    EXPECT_EQ(completedSum, s.done)
        << "per-worker completions must sum to the manifest successes";
    // The victim died holding a lease; depending on timing the recovery
    // shows up as a TTL expiration, a straggler re-dispatch or a retry —
    // one of them must be on the board.
    EXPECT_GE(recoveries, 1u)
        << "the victim's lost lease must surface in the worker counters";
}

#endif // !_WIN32

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
