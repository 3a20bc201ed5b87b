/**
 * @file
 * Tests for the distributed sweep service: the sweep-spec round trip and
 * its deterministic expansion (sim/sweepd.h), the shared-directory work
 * queue's lease policy (sim/workqueue.h — renewal, expiry/reclaim,
 * bounded retries with deterministic backoff, straggler duplication with
 * first-completion-wins, idempotent completion), and the
 * coordinator/worker integration: distributed runs — including one with
 * a worker SIGKILLed mid-job — produce Reports byte-identical to a
 * serial in-process run, and a restarted coordinator resumes from its
 * checkpoint manifest without re-running completed jobs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "sim/manifest.h"
#include "sim/procexec.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"
#include "stats/sink.h"

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace udp {
namespace {

// --- helpers ---------------------------------------------------------------

std::string
freshDir(const std::string& tag)
{
    namespace fs = std::filesystem;
#ifndef _WIN32
    std::string pid = std::to_string(::getpid());
#else
    std::string pid = "0";
#endif
    fs::path p = fs::temp_directory_path() /
                 ("udp_sweepd_test_" + tag + "_" + pid);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** The sweep every integration test runs: 2 workloads x 2 configs at a
 *  tiny instruction window, so one serial pass is the byte-identity
 *  reference for every distributed variant. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "tiny";
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

/** Serial in-process reference: one JSON line per job, in job order. */
std::vector<std::string>
serialReference(const std::vector<SweepJob>& jobs)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobResult jr = runJobChecked(jobs[i], i);
        EXPECT_TRUE(jr.ok) << jr.error.message;
        lines.push_back(reportToJsonLine(jr.report));
    }
    return lines;
}

void
expectByteIdentical(const std::vector<SweepJob>& jobs,
                    const std::vector<JobResult>& results,
                    const std::vector<std::string>& reference)
{
    ASSERT_EQ(results.size(), jobs.size());
    ASSERT_EQ(reference.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok)
            << "job " << i << " failed: " << results[i].error.kind << " "
            << results[i].error.message;
        EXPECT_EQ(reportToJsonLine(results[i].report), reference[i])
            << "job " << i << " not byte-identical to serial run";
    }
}

void
sleepMs(std::uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Wall-clock ms since epoch — the queue's own lease clock. */
std::uint64_t
wallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
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

// --- sweep spec ------------------------------------------------------------

TEST(SweepSpec, JsonRoundTripAndDeterministicExpansion)
{
    SweepSpec s = tinySpec();
    std::string json = sweepSpecToJson(s);
    SweepSpec back;
    std::string err;
    ASSERT_TRUE(sweepSpecFromJson(json, &back, &err)) << err;
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.warmupInstrs, s.warmupInstrs);
    EXPECT_EQ(back.measureInstrs, s.measureInstrs);
    EXPECT_EQ(back.workloads, s.workloads);
    ASSERT_EQ(back.configs.size(), s.configs.size());
    for (std::size_t i = 0; i < s.configs.size(); ++i) {
        EXPECT_EQ(back.configs[i].label, s.configs[i].label);
        EXPECT_EQ(back.configs[i].preset, s.configs[i].preset);
        EXPECT_EQ(back.configs[i].ftq, s.configs[i].ftq);
    }

    // The determinism contract the whole protocol rests on: expanding
    // the round-tripped spec yields the identical job hashes, so
    // coordinator and workers agree on job identity.
    std::vector<SweepJob> a;
    std::vector<SweepJob> b;
    ASSERT_TRUE(expandSweepSpec(s, &a, &err)) << err;
    ASSERT_TRUE(expandSweepSpec(back, &b, &err)) << err;
    ASSERT_EQ(a.size(), 4u); // workload-major: mw x 2 configs, drupal x 2
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sweepJobHash(a[i], i), sweepJobHash(b[i], i));
    }
    EXPECT_EQ(a[0].profile.name, "mediawiki");
    EXPECT_EQ(a[0].label, "fdip32");
    EXPECT_EQ(a[1].label, "udp8k");
    EXPECT_EQ(a[2].profile.name, "drupal");
}

TEST(SweepSpec, ParsesHandWrittenJsonWithWhitespace)
{
    // Spec files are hand-written: whitespace and newlines around
    // colons and values must parse identically to the compact form.
    std::string pretty = R"({
        "name": "tiny",
        "warmup_instrs": 5000,
        "measure_instrs": 10000,
        "workloads": ["mediawiki", "drupal"],
        "configs": [
            {"label": "fdip32", "preset": "fdip"},
            {"label": "udp8k",  "preset": "udp8k"}
        ]
    })";
    SweepSpec s;
    std::string err;
    ASSERT_TRUE(sweepSpecFromJson(pretty, &s, &err)) << err;
    EXPECT_EQ(s.name, "tiny");
    EXPECT_EQ(s.warmupInstrs, 5000u);
    EXPECT_EQ(s.measureInstrs, 10000u);
    std::vector<SweepJob> a;
    std::vector<SweepJob> b;
    ASSERT_TRUE(expandSweepSpec(s, &a, &err)) << err;
    ASSERT_TRUE(expandSweepSpec(tinySpec(), &b, &err)) << err;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sweepJobHash(a[i], i), sweepJobHash(b[i], i));
    }
}

TEST(SweepSpec, RejectsUnknownNamesAndMisappliedFtq)
{
    std::string err;
    std::vector<SweepJob> jobs;
    SweepSpec s = tinySpec();
    s.workloads = {"no_such_workload"};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));
    EXPECT_NE(err.find("no_such_workload"), std::string::npos);

    s = tinySpec();
    s.configs = {{"x", "no_such_preset", 0}};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));

    // An FTQ depth override only makes sense for the fdip preset.
    s = tinySpec();
    s.configs = {{"x", "udp8k", 16}};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));

    SweepSpec bad;
    EXPECT_FALSE(sweepSpecFromJson("not json at all", &bad, &err));
}

TEST(SweepSpec, WorkloadsAllExpandsEveryDatacenterProfile)
{
    SweepSpec s = tinySpec();
    s.workloads = {"all"};
    std::vector<SweepJob> jobs;
    std::string err;
    ASSERT_TRUE(expandSweepSpec(s, &jobs, &err)) << err;
    EXPECT_EQ(jobs.size(), datacenterProfiles().size() * s.configs.size());
}

// --- filesystem queue ------------------------------------------------------

std::vector<ManifestEntry>
skeletons(const std::vector<SweepJob>& jobs)
{
    std::vector<ManifestEntry> sk(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        sk[i].hash = sweepJobHash(jobs[i], i);
        sk[i].index = i;
        sk[i].workload = jobs[i].profile.name;
        sk[i].label = jobs[i].label;
    }
    return sk;
}

/** @p skeleton's job delivered as a success or as a failure of @p kind. */
ManifestEntry
resultOf(const ManifestEntry& skeleton, const std::string& kind = "")
{
    ManifestEntry e = skeleton;
    e.ok = kind.empty();
    e.errorKind = kind;
    e.reportJson = e.ok ? "{}" : "";
    return e;
}

/** Seeds @p q with the first tiny job alone; returns its skeleton. */
ManifestEntry
seedOneJob(FsWorkQueue& q, const LeasePolicy& policy)
{
    ManifestEntry job = skeletons(tinyJobs())[0];
    std::string err;
    EXPECT_TRUE(q.seed({job}, "", policy, &err)) << err;
    return job;
}

TEST(FsWorkQueue, DuplicateCompletionIsIdempotent)
{
    std::string dir = freshDir("fsdup");
    std::vector<SweepJob> jobs = tinyJobs();
    FsWorkQueue q(dir);
    std::string err;
    ASSERT_TRUE(
        q.seed(skeletons(jobs), sweepSpecToJson(tinySpec()), fastPolicy(),
               &err))
        << err;
    ASSERT_TRUE(q.connect(&err)) << err;
    EXPECT_EQ(q.totalJobs(), jobs.size());

    JobLease a;
    ASSERT_EQ(q.claim("w1", &a), ClaimOutcome::Granted);
    EXPECT_TRUE(q.renew(a));

    ManifestEntry done;
    done.hash = a.hash;
    done.index = a.index;
    done.workload = jobs[a.index].profile.name;
    done.label = jobs[a.index].label;
    done.ok = true;
    done.reportJson = "{}";
    EXPECT_EQ(q.push(a, done), PushOutcome::Recorded);
    // The same result delivered again — a straggler, or a worker whose
    // lease expired but finished anyway — is discarded, not re-recorded.
    EXPECT_EQ(q.push(a, done), PushOutcome::Duplicate);
    EXPECT_EQ(q.doneCount(), 1u);
}

TEST(FsWorkQueue, ReseedingResumesFromDoneEntries)
{
    std::string dir = freshDir("fsresume");
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<ManifestEntry> sk = skeletons(jobs);
    std::string spec = sweepSpecToJson(tinySpec());
    std::string err;

    {
        FsWorkQueue q(dir);
        ASSERT_TRUE(q.seed(sk, spec, fastPolicy(), &err)) << err;
        JobLease a;
        ASSERT_EQ(q.claim("w1", &a), ClaimOutcome::Granted);
        ManifestEntry done = sk[a.index];
        done.ok = true;
        done.reportJson = "{}";
        EXPECT_EQ(q.push(a, done), PushOutcome::Recorded);
    }

    // A restarted coordinator seeding the same directory keeps the
    // recorded completion and only re-issues the rest.
    FsWorkQueue q2(dir);
    ASSERT_TRUE(q2.seed(sk, spec, fastPolicy(), &err)) << err;
    EXPECT_EQ(q2.doneCount(), 1u);
    std::size_t granted = 0;
    for (;;) {
        JobLease l;
        ClaimOutcome c = q2.claim("w2", &l);
        if (c != ClaimOutcome::Granted) {
            break;
        }
        ++granted;
        ManifestEntry done = sk[l.index];
        done.ok = true;
        done.reportJson = "{}";
        q2.push(l, done);
    }
    EXPECT_EQ(granted, jobs.size() - 1);
    EXPECT_EQ(q2.doneCount(), jobs.size());
    JobLease l;
    EXPECT_EQ(q2.claim("w2", &l), ClaimOutcome::Drained);
}

TEST(FsWorkQueue, RenewExtendsTheLease)
{
    LeasePolicy p = fastPolicy();
    p.leaseTtlSec = 1.0;
    p.maxDuplicates = 0; // the seeding queue must not add a straggler dup
    FsWorkQueue q(freshDir("fsrenew"));
    ManifestEntry job = seedOneJob(q, p);

    JobLease a;
    ASSERT_EQ(q.claim("w1", &a), ClaimOutcome::Granted);
    std::uint64_t firstExpiryMs = q.scanLeases().at(0).expiryMs;
    sleepMs(500);
    ASSERT_TRUE(q.renew(a));
    ASSERT_GT(q.scanLeases().at(0).expiryMs, firstExpiryMs);

    // Past the original expiry, reclaim leaves the renewed lease alone.
    while (wallMs() <= firstExpiryMs + 50) {
        sleepMs(10);
    }
    q.reclaimExpired();
    EXPECT_EQ(q.leasesReclaimed(), 0u);
    ASSERT_EQ(q.scanLeases().size(), 1u);
    EXPECT_EQ(q.scanLeases()[0].token, a.token);
    EXPECT_EQ(q.todoCount(), 0u);
    EXPECT_EQ(q.push(a, resultOf(job)), PushOutcome::Recorded);
    EXPECT_EQ(q.doneCount(), 1u);
}

TEST(FsWorkQueue, FailedPushRequeuesWithBackoffThenFinallyFails)
{
    LeasePolicy p = fastPolicy();
    p.maxAttempts = 2;
    p.backoffBaseSec = 0.5;
    FsWorkQueue q(freshDir("fsfail"));
    ManifestEntry job = seedOneJob(q, p);

    JobLease a;
    ASSERT_EQ(q.claim("w1", &a), ClaimOutcome::Granted);
    EXPECT_EQ(a.attempt, 1u);
    EXPECT_EQ(q.push(a, resultOf(job, "crash")), PushOutcome::Recorded);
    EXPECT_EQ(q.doneCount(), 0u);
    EXPECT_EQ(q.todoCount(), 1u);

    // The retry ticket is gated behind the backoff window.
    JobLease b;
    EXPECT_EQ(q.claim("w1", &b), ClaimOutcome::NoWork);
    sleepMs(static_cast<std::uint64_t>(
        backoffDelaySec(p, 2, a.hash) * 1000.0 + 50.0));
    ASSERT_EQ(q.claim("w1", &b), ClaimOutcome::Granted);
    EXPECT_EQ(b.hash, a.hash);
    EXPECT_EQ(b.attempt, 2u);

    // Exhausting attempts records the pushed error kind as final.
    EXPECT_EQ(q.push(b, resultOf(job, "crash")), PushOutcome::Recorded);
    std::vector<ManifestEntry> done = q.collectDone();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
    EXPECT_EQ(done[0].errorKind, "crash");
    EXPECT_EQ(done[0].workload, job.workload);
    EXPECT_EQ(done[0].label, job.label);
    JobLease c;
    EXPECT_EQ(q.claim("w1", &c), ClaimOutcome::Drained);
}

TEST(FsWorkQueue, ExhaustedExpiriesRecordWorkerLost)
{
    LeasePolicy p = fastPolicy();
    p.leaseTtlSec = 0.05;
    p.maxAttempts = 2;
    p.backoffBaseSec = 0.01;
    FsWorkQueue q(freshDir("fslost"));
    ManifestEntry job = seedOneJob(q, p);

    JobLease a;
    ASSERT_EQ(q.claim("w1", &a), ClaimOutcome::Granted);
    sleepMs(100);
    q.reclaimExpired(); // expiry 1: requeued for attempt 2
    EXPECT_EQ(q.leasesReclaimed(), 1u);
    EXPECT_EQ(q.doneCount(), 0u);
    EXPECT_EQ(q.todoCount(), 1u);

    sleepMs(50); // past the backoff window
    JobLease b;
    ASSERT_EQ(q.claim("w2", &b), ClaimOutcome::Granted);
    EXPECT_EQ(b.attempt, 2u);
    sleepMs(100);
    q.reclaimExpired(); // expiry 2: attempts exhausted
    EXPECT_EQ(q.leasesReclaimed(), 2u);

    std::vector<ManifestEntry> done = q.collectDone();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
    EXPECT_EQ(done[0].errorKind, "worker_lost");
    EXPECT_EQ(done[0].workload, job.workload);
    JobLease c;
    EXPECT_EQ(q.claim("w2", &c), ClaimOutcome::Drained);
}

TEST(FsWorkQueue, StragglerDuplicateFirstCompletionWins)
{
    LeasePolicy p = fastPolicy();
    p.leaseTtlSec = 100.0; // never expires during the test
    p.stragglerAfterSec = 0.05;
    p.maxDuplicates = 1;
    std::string dir = freshDir("fsstraggler");
    FsWorkQueue seeder(dir);
    ManifestEntry job = seedOneJob(seeder, p);
    FsWorkQueue worker(dir);
    std::string err;
    ASSERT_TRUE(worker.connect(&err)) << err;

    JobLease slow;
    ASSERT_EQ(worker.claim("slow", &slow), ClaimOutcome::Granted);
    sleepMs(100); // the lease is now old enough to be a straggler

    // Only the seeding queue issues duplicates, which keeps the
    // per-job bound global.
    worker.reclaimExpired();
    EXPECT_EQ(worker.stragglerTicketsIssued(), 0u);
    EXPECT_EQ(worker.todoCount(), 0u);
    seeder.reclaimExpired();
    EXPECT_EQ(seeder.stragglerTicketsIssued(), 1u);
    EXPECT_EQ(seeder.todoCount(), 1u);

    // The idle worker gets a second lease on the SAME job and attempt.
    JobLease dup;
    ASSERT_EQ(worker.claim("idle", &dup), ClaimOutcome::Granted);
    EXPECT_EQ(dup.hash, slow.hash);
    EXPECT_EQ(dup.index, slow.index);
    EXPECT_EQ(dup.attempt, slow.attempt);
    EXPECT_NE(dup.token, slow.token);

    // maxDuplicates bounds the fan-out.
    seeder.reclaimExpired();
    EXPECT_EQ(seeder.stragglerTicketsIssued(), 1u);

    // First completion wins; the loser is discarded as a duplicate.
    EXPECT_EQ(worker.push(dup, resultOf(job)), PushOutcome::Recorded);
    EXPECT_EQ(worker.push(slow, resultOf(job)), PushOutcome::Duplicate);
    EXPECT_EQ(seeder.doneCount(), 1u);
    JobLease none;
    EXPECT_EQ(worker.claim("idle", &none), ClaimOutcome::Drained);
}

TEST(FsWorkQueue, BackoffBoundsAndDeterminism)
{
    LeasePolicy p;
    p.backoffBaseSec = 0.5;
    p.backoffCapSec = 30.0;
    p.backoffJitterFrac = 0.25;
    for (unsigned attempt = 2; attempt <= 10; ++attempt) {
        double raw = p.backoffBaseSec;
        for (unsigned k = 2; k < attempt; ++k) {
            raw = std::min(p.backoffCapSec, raw * 2.0);
        }
        for (std::uint64_t hash : {0x1234ull, 0xdeadbeefull, 0x1ull}) {
            double d = backoffDelaySec(p, attempt, hash);
            EXPECT_GE(d, raw) << "attempt " << attempt;
            EXPECT_LT(d, raw * (1.0 + p.backoffJitterFrac) + 1e-9)
                << "attempt " << attempt;
            // Deterministic: the retry schedule is reproducible.
            EXPECT_EQ(d, backoffDelaySec(p, attempt, hash));
        }
    }
    // The jitter seed covers (hash, attempt): different jobs retry at
    // different offsets instead of stampeding together.
    EXPECT_NE(backoffDelaySec(p, 3, 42), backoffDelaySec(p, 3, 43));
}

// --- coordinator + worker integration --------------------------------------

TEST(Sweepd, FsDistributedRunIsByteIdenticalToSerial)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);

    CoordinatorOptions co;
    co.policy = fastPolicy();
    co.endpoint = freshDir("fsrun") + "/q";
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
        wo.name = "t1";
        wo.quiet = true;
        runSweepWorker(q, jobs, wo);
    });
    std::vector<JobResult> results = coord.run();
    worker.join();
    expectByteIdentical(jobs, results, reference);
}

TEST(Sweepd, CoordinatorRestartResumesFromManifest)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);
    std::string dir = freshDir("resume");
    std::string manifestPath = dir + "/manifest.jsonl";

    // "First run": two jobs completed before the coordinator died. The
    // manifest is all that survives.
    {
        SweepManifest m;
        ASSERT_TRUE(m.open(manifestPath, false));
        for (std::size_t i = 0; i < 2; ++i) {
            ManifestEntry e;
            e.hash = sweepJobHash(jobs[i], i);
            e.index = i;
            e.workload = jobs[i].profile.name;
            e.label = jobs[i].label;
            e.ok = true;
            e.reportJson = reference[i];
            m.record(e);
        }
        m.close();
    }

    // Restarted coordinator: resumes the two completed jobs and only
    // issues the remaining two to its worker.
    CoordinatorOptions co;
    co.policy = fastPolicy();
    co.endpoint = dir + "/q";
    co.specJson = sweepSpecToJson(tinySpec());
    co.manifestPath = manifestPath;
    co.resume = true;
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    WorkerSummary summary;
    std::thread worker([&] {
        FsWorkQueue q(coord.endpoint());
        std::string werr;
        ASSERT_TRUE(q.connect(&werr)) << werr;
        WorkerOptions wo;
        wo.name = "t1";
        wo.quiet = true;
        summary = runSweepWorker(q, jobs, wo);
    });
    std::vector<JobResult> results = coord.run();
    worker.join();

    EXPECT_EQ(summary.executed, 2u) << "resumed jobs must not re-run";
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_TRUE(results[0].resumed);
    EXPECT_TRUE(results[1].resumed);
    EXPECT_FALSE(results[2].resumed);
    expectByteIdentical(jobs, results, reference);
}

#ifndef _WIN32

/** Forks a worker process draining queue @p dir; returns its pid. */
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
 * The acceptance scenario: a sweep distributed across two worker
 * processes, one SIGKILLed mid-job. The lease expires, the job is
 * reclaimed and retried, the sweep completes every job, and the merged
 * Reports are byte-identical to the serial in-process run.
 */
TEST(Sweepd, SigkilledWorkerIsReclaimedAndRunStaysByteIdentical)
{
    if (!procIsolationSupported()) {
        GTEST_SKIP() << "no fork() on this platform";
    }
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);

    CoordinatorOptions co;
    co.policy = fastPolicy(); // 1 s lease TTL
    co.endpoint = freshDir("chaos") + "/q";
    co.specJson = sweepSpecToJson(tinySpec());
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    // The victim stalls 10 s before every job, so it dies holding an
    // unfinished lease; the survivor runs normally.
    pid_t victim = forkWorker(coord.endpoint(), jobs, "victim", 10'000);
    ASSERT_GT(victim, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    pid_t survivor = forkWorker(coord.endpoint(), jobs, "survivor", 0);
    ASSERT_GT(survivor, 0);

    std::vector<JobResult> results = coord.run();

    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    expectByteIdentical(jobs, results, reference);
}

#endif // !_WIN32

} // namespace
} // namespace udp
