/**
 * @file
 * Tests for process-isolated sweep execution (sim/procexec.h), the
 * checkpoint manifest (sim/manifest.h) and their sweep-runner
 * integration: real child crashes are contained and classified, clean
 * isolated Reports are bit-identical to in-process ones, interrupted
 * sweeps resume to byte-identical artifacts, and graceful shutdown
 * drains in-flight jobs while skipping queued ones.
 *
 * The crash/OOM tests fork children that genuinely SIGSEGV or exhaust
 * an RLIMIT_AS cap — nothing is mocked. They skip under ASan/TSan,
 * which intercept SIGSEGV and pre-reserve address space.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <random>
#include <regex>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/faultinject.h"
#include "sim/manifest.h"
#include "sim/procexec.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/sink.h"

namespace udp {
namespace {

RunOptions
tinyOptions()
{
    RunOptions o;
    o.warmupInstrs = 10'000;
    o.measureInstrs = 20'000;
    return o;
}

Profile
tinyProfile(const std::string& name, std::uint64_t seed)
{
    Profile p = profileByName("mediawiki");
    p.name = name;
    p.seed = seed;
    p.codeFootprintKB = 64;
    return p;
}

void
expectIdenticalReports(const Report& a, const Report& b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.configName, b.configName);
    const StatSet sa = a.toStatSet();
    const StatSet sb = b.toStatSet();
    const auto& ea = sa.entries();
    const auto& eb = sb.entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].first, eb[i].first);
        EXPECT_EQ(ea[i].second, eb[i].second)
            << "stat " << ea[i].first << " differs";
    }
}

SweepJob
cleanJob(const std::string& name, std::uint64_t seed)
{
    return {tinyProfile(name, seed), presets::fdipBaseline(), tinyOptions(),
            "fdip32"};
}

/** A job whose child genuinely segfaults shortly after warmup. */
SweepJob
crashingJob(const std::string& name)
{
    SweepJob j = cleanJob(name, 5);
    j.config.fault.kind = FaultKind::CrashSegv;
    j.config.fault.triggerCycle = 1'000;
    j.label = "segv";
    return j;
}

// --- isolated execution -----------------------------------------------------

TEST(Procexec, IsolatedReportMatchesInProcess)
{
    SweepJob job = cleanJob("isoident", 21);
    Report in_process =
        runSim(job.profile, job.config, job.opts, job.label);

    JobResult isolated = runJobIsolated(job, SweepOptions{});
    ASSERT_TRUE(isolated.ok) << isolated.error.message;
    expectIdenticalReports(in_process, isolated.report);
    // Bit-exact serialization too: the pipe payload IS the JSON line.
    EXPECT_EQ(reportToJsonLine(in_process),
              reportToJsonLine(isolated.report));
}

TEST(Procexec, ContainsRealSegv)
{
    if (procUnderSanitizer()) {
        GTEST_SKIP() << "sanitizers intercept SIGSEGV";
    }
    JobResult jr = runJobIsolated(crashingJob("segvtest"), SweepOptions{});
    ASSERT_FALSE(jr.ok);
    EXPECT_EQ(jr.error.kind, "crash");
    EXPECT_EQ(jr.error.signal, "SIGSEGV");
    EXPECT_NE(jr.error.message.find("SIGSEGV"), std::string::npos);
    // The fault hook announces itself on stderr before raising; the
    // captured tail must carry it back across the process boundary.
    EXPECT_NE(jr.error.stderrTail.find("crash_segv"), std::string::npos);
    EXPECT_GT(jr.error.maxRssKb, 0u);
}

TEST(Procexec, CrashingJobDoesNotPoisonTheBatch)
{
    if (procUnderSanitizer()) {
        GTEST_SKIP() << "sanitizers intercept SIGSEGV";
    }
    std::vector<SweepJob> jobs = {cleanJob("batcha", 1),
                                  crashingJob("batchcrash"),
                                  cleanJob("batchb", 2)};
    SweepOptions o;
    o.numThreads = 2;
    o.quiet = true;
    o.isolate = true;
    std::vector<JobResult> r = runSweepChecked(jobs, o);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_TRUE(r[0].ok);
    EXPECT_FALSE(r[1].ok);
    EXPECT_EQ(r[1].error.kind, "crash");
    EXPECT_EQ(r[1].error.signal, "SIGSEGV");
    EXPECT_TRUE(r[2].ok);

    // The survivors must equal their in-process runs bit for bit.
    expectIdenticalReports(
        runSim(jobs[0].profile, jobs[0].config, jobs[0].opts,
               jobs[0].label),
        r[0].report);
}

TEST(Procexec, IsolatedFailureLinePrintsTheChildRusage)
{
    if (procUnderSanitizer()) {
        GTEST_SKIP() << "sanitizers intercept SIGSEGV";
    }
    SweepOptions o;
    o.numThreads = 1;
    o.isolate = true;
    testing::internal::CaptureStderr();
    std::vector<JobResult> r = runSweepChecked({crashingJob("rusage")}, o);
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_EQ(r.size(), 1u);
    ASSERT_FALSE(r[0].ok);
    EXPECT_GT(r[0].error.maxRssKb, 0u);
    // The stderr line carries the rusage the failure row leaves out.
    const std::regex line(
        R"((^|\n)\[sweep\] warning: job_failed job=0 label=segv )"
        R"(kind=crash max_rss_kb=[1-9][0-9]* user_sec=[0-9.e+-]+ )"
        R"(sys_sec=[0-9.e+-]+ message=[^\n]*SIGSEGV)");
    EXPECT_TRUE(std::regex_search(err, line)) << err;
    EXPECT_EQ(
        failureToJsonLine("rusage", "segv", r[0].error).find("max_rss_kb"),
        std::string::npos);
}

TEST(Procexec, MemLimitTurnsRunawayAllocationIntoMemLimit)
{
    if (procUnderSanitizer()) {
        GTEST_SKIP() << "RLIMIT_AS is not applied under sanitizers";
    }
    SweepJob j = cleanJob("oomtest", 6);
    j.config.fault.kind = FaultKind::OomAlloc;
    j.config.fault.triggerCycle = 1'000;
    j.label = "oom";

    SweepOptions limits;
    limits.memLimitBytes = std::uint64_t{512} << 20;
    JobResult jr = runJobIsolated(j, limits);
    ASSERT_FALSE(jr.ok);
    // The child catches bad_alloc under the cap and reports it
    // structurally over the pipe — no signal involved.
    EXPECT_EQ(jr.error.kind, "mem_limit") << jr.error.message;
    EXPECT_NE(jr.error.stderrTail.find("oom_alloc"), std::string::npos);
}

TEST(Procexec, WallDeadlineKillsAHungChild)
{
    // Retirement freezes and every watchdog is disabled: without the
    // parent-side deadline this child would spin forever.
    SweepJob j = cleanJob("walltest", 7);
    j.config.watchdog.retireStallCycles = 0;
    j.config.watchdog.maxCycles = 0;
    j.config.watchdog.invariantPeriod = 0;
    j.config.fault.kind = FaultKind::FreezeRetire;
    j.config.fault.triggerCycle = 500;
    j.label = "hung";

    SweepOptions limits;
    limits.wallLimitSec = 1.0;
    JobResult jr = runJobIsolated(j, limits);
    ASSERT_FALSE(jr.ok);
    EXPECT_EQ(jr.error.kind, "timeout");
    EXPECT_EQ(jr.error.signal, "SIGKILL");
}

TEST(Procexec, SimErrorCrossesThePipeVerbatim)
{
    // A watchdog-detected hang inside the child must arrive as the same
    // structured error an in-process run produces.
    SweepJob j = cleanJob("relaytest", 8);
    j.config.watchdog.retireStallCycles = 5'000;
    j.config.fault.kind = FaultKind::FreezeRetire;
    j.config.fault.triggerCycle = 500;
    j.label = "stall";

    SweepOptions in_proc;
    in_proc.numThreads = 1;
    in_proc.quiet = true;
    JobResult expect = runSweepChecked({j}, in_proc).front();
    ASSERT_FALSE(expect.ok);

    JobResult jr = runJobIsolated(j, SweepOptions{});
    ASSERT_FALSE(jr.ok);
    EXPECT_TRUE(jr.error.signal.empty());
    EXPECT_GT(jr.error.maxRssKb, 0u);
    // Apart from the stderr tail the parent attaches, the row is the
    // in-process one byte for byte (the rusage is not part of it).
    JobError relayed = jr.error;
    relayed.stderrTail.clear();
    EXPECT_EQ(failureToJsonLine(j.profile.name, j.label, relayed),
              failureToJsonLine(j.profile.name, j.label, expect.error));
    EXPECT_FALSE(relayed.dump.empty());
}

// --- checkpoint manifest ----------------------------------------------------

TEST(Manifest, JobHashIsStableAndDiscriminating)
{
    SweepJob a = cleanJob("hashme", 3);
    EXPECT_EQ(sweepJobHash(a, 0), sweepJobHash(a, 0));

    EXPECT_NE(sweepJobHash(a, 0), sweepJobHash(a, 1));

    SweepJob b = a;
    b.label = "other";
    EXPECT_NE(sweepJobHash(a, 0), sweepJobHash(b, 0));

    SweepJob c = a;
    c.config.ftqCapacity += 1;
    EXPECT_NE(sweepJobHash(a, 0), sweepJobHash(c, 0));

    SweepJob d = a;
    d.profile.seed += 1;
    EXPECT_NE(sweepJobHash(a, 0), sweepJobHash(d, 0));

    SweepJob e = a;
    e.opts.measureInstrs += 1;
    EXPECT_NE(sweepJobHash(a, 0), sweepJobHash(e, 0));
}

/** Job @p id of the manifest tests: app<id> under label cfg<id>. */
SweepJob
manifestJob(unsigned id)
{
    SweepJob j = cleanJob("app" + std::to_string(id), id);
    j.label = "cfg" + std::to_string(id);
    return j;
}

/** A completed result for @p job whose Report carries the job's own
 *  workload and config, distinct per profile seed. */
JobResult
completedResult(const SweepJob& job)
{
    JobResult jr;
    jr.ok = true;
    jr.report.workload = job.profile.name;
    jr.report.configName = job.label;
    jr.report.ipc = 1.0 + 0.001 * static_cast<double>(job.profile.seed);
    return jr;
}

/** The "hash" pair of job @p index, @p job, as a manifest line holds it. */
std::string
hashPair(const SweepJob& job, std::size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"hash\":\"%016llx\"",
                  static_cast<unsigned long long>(sweepJobHash(job, index)));
    return buf;
}

/** A scratch file of the running test's own: ctest runs the cases of
 *  this file as parallel processes that share TempDir(). */
std::string
scratchPath(const std::string& name)
{
    return ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name;
}

/** The line SweepManifest::record() appends for @p result of job
 *  @p index, @p job. */
std::string
journalLine(const SweepJob& job, std::size_t index, const JobResult& result)
{
    const std::string path = scratchPath("line.jsonl");
    SweepManifest m;
    EXPECT_TRUE(m.open(path, /*resume=*/false));
    m.record(job, index, result);
    m.close();
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());
    return line;
}

/** A manifest loaded for resume from a file holding @p text. */
SweepManifest
loadManifest(const std::string& text)
{
    const std::string path = scratchPath("load.jsonl");
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << text;
    }
    SweepManifest m;
    EXPECT_TRUE(m.open(path, /*resume=*/true));
    m.close();
    std::remove(path.c_str());
    return m;
}

/** The replayed Report of job @p index, @p job, as its JSON line; "" when
 *  @p m does not replay it. */
std::string
replayed(const SweepManifest& m, const SweepJob& job, std::size_t index)
{
    const Report* r = m.replay(job, index);
    return r == nullptr ? "" : reportToJsonLine(*r);
}

TEST(Manifest, EntryRoundTrips)
{
    // A line is the job's hash plus its row, byte for byte as the sinks
    // write it: the Report of a completed job, the failure row of a
    // failed one.
    SweepJob job = manifestJob(7);
    job.label = "cfg \"quoted\"";
    const JobResult ok = completedResult(job);
    JobResult failed;
    failed.error.kind = "crash";
    failed.error.signal = "SIGSEGV";
    const std::string okLine = journalLine(job, 0, ok);
    const std::string failedLine = journalLine(job, 1, failed);
    const std::string report = reportToJsonLine(ok.report);
    EXPECT_EQ(okLine, "{" + hashPair(job, 0) + ",\"report\":" + report + "}");
    EXPECT_EQ(failedLine,
              "{" + hashPair(job, 1) + ",\"failure\":" +
                  failureToJsonLine(job.profile.name, job.label,
                                    failed.error) +
                  "}");

    // Loaded back, the completed job replays its Report; the failed one,
    // another index and another job do not.
    SweepManifest m = loadManifest(okLine + "\n" + failedLine + "\n");
    EXPECT_EQ(replayed(m, job, 0), report);
    EXPECT_EQ(m.replay(job, 1), nullptr);
    EXPECT_EQ(m.replay(job, 2), nullptr);
    EXPECT_EQ(m.replay(manifestJob(7), 0), nullptr);

    // Keys the loader does not know are ignored, wherever they stand: a
    // line in the older envelope format, with the "worker" key that
    // distributed workers used to write, still replays.
    const std::string older =
        "{" + hashPair(job, 0) + ",\"index\":0,\"workload\":\"app7\"," +
        "\"config\":\"" + jsonEscape(job.label) +
        "\",\"worker\":\"w1\",\"status\":\"ok\",\"report\":" + report + "}";
    EXPECT_EQ(replayed(loadManifest(older + "\n"), job, 0), report) << older;
    // Keys are read by position in the object: the report may come first.
    EXPECT_EQ(replayed(loadManifest("{\"report\":" + report + "," +
                                    hashPair(job, 0) + "}\n"),
                       job, 0),
              report);

    // A repeated key, as a splice of two records can leave, is malformed,
    // and so is a report that is not a Report line byte for byte.
    for (const std::string& bad :
         {"{" + hashPair(job, 0) + "," + hashPair(job, 0) +
              ",\"report\":" + report + "}",
          "{" + hashPair(job, 0) + ",\"report\":" + report +
              ",\"report\":" + report + "}",
          "{" + hashPair(job, 0) + ",\"report\":{\"workload\":\"app7\"," +
              "\"config\":\"" + jsonEscape(job.label) + "\"}}"}) {
        EXPECT_EQ(loadManifest(bad + "\n").replay(job, 0), nullptr) << bad;
    }
}

TEST(Manifest, TruncatedFinalLineIsSkippedOnLoad)
{
    const std::vector<SweepJob> jobs = {manifestJob(1), manifestJob(2),
                                        manifestJob(3)};
    std::string text;
    for (std::size_t i = 0; i < 2; ++i) {
        text += journalLine(jobs[i], i, completedResult(jobs[i])) + "\n";
    }
    // A crash mid-append leaves a torn line at the tail.
    const std::string last = journalLine(jobs[2], 2, completedResult(jobs[2]));
    text += last.substr(0, last.size() / 2);

    SweepManifest m = loadManifest(text);
    EXPECT_EQ(replayed(m, jobs[0], 0),
              reportToJsonLine(completedResult(jobs[0]).report));
    EXPECT_EQ(replayed(m, jobs[1], 1),
              reportToJsonLine(completedResult(jobs[1]).report));
    EXPECT_EQ(m.replay(jobs[2], 2), nullptr);
}

TEST(Manifest, SplicedLineFromTwoWritersIsRejected)
{
    // The corruption a line-level parser cannot catch: two writers
    // interleaving on one file splice a line that PARSES — writer A's
    // hash joined to writer B's report. Without replay's check of the
    // Report's own workload and config, resume would resurrect B's
    // Report under A's job hash.
    const SweepJob a = manifestJob(1);
    const SweepJob b = manifestJob(2);
    const std::string la = journalLine(a, 0, completedResult(a));
    const std::string lb = journalLine(b, 1, completedResult(b));
    const std::string key = "\"report\":";
    std::size_t ca = la.find(key);
    std::size_t cb = lb.find(key);
    ASSERT_NE(ca, std::string::npos);
    ASSERT_NE(cb, std::string::npos);
    const std::string spliced = la.substr(0, ca) + lb.substr(cb);

    // The splice is supposed to parse — that is the point.
    std::string report;
    ASSERT_TRUE(walkJsonObject(spliced, [&report](const std::string& k,
                                                  const std::string& v,
                                                  JsonKind) {
        report = k == "report" ? v : report;
        return true;
    }));
    Report parsed;
    ASSERT_TRUE(reportFromJsonLine(report, &parsed));
    EXPECT_EQ(parsed.workload, b.profile.name);

    // Neither job replays it, and an intact line of A's still replays.
    SweepManifest alone = loadManifest(spliced + "\n");
    EXPECT_EQ(alone.replay(a, 0), nullptr);
    EXPECT_EQ(alone.replay(b, 1), nullptr);
    SweepManifest m = loadManifest(la + "\n" + spliced + "\n");
    EXPECT_EQ(replayed(m, a, 0),
              reportToJsonLine(completedResult(a).report));
    EXPECT_EQ(m.replay(b, 1), nullptr);
}

TEST(Manifest, ConcurrentWriterFuzzReplaysExactlyTheCompletedSet)
{
    // Fuzz two unsynchronized writers appending to one manifest: records
    // land atomically, interleave mid-line, or truncate at a crash. On
    // every schedule, resume must replay exactly the records that were
    // written intact — never a spliced or truncated one.
    constexpr unsigned kRecordsPerWriter = 6;
    std::vector<SweepJob> jobs;
    std::vector<std::string> lines;
    for (unsigned id = 0; id < 2 * kRecordsPerWriter; ++id) {
        jobs.push_back(manifestJob(id));
        lines.push_back(journalLine(jobs[id], id, completedResult(jobs[id])));
    }

    for (unsigned seed = 0; seed < 25; ++seed) {
        std::mt19937 rng(seed);
        std::unordered_set<unsigned> completed;
        std::string file;
        bool crashed = false;
        std::size_t next[2] = {0, 0};
        while (!crashed && (next[0] < kRecordsPerWriter ||
                            next[1] < kRecordsPerWriter)) {
            unsigned w = rng() % 2;
            if (next[w] >= kRecordsPerWriter) {
                w ^= 1;
            }
            const unsigned id =
                w * kRecordsPerWriter + static_cast<unsigned>(next[w]);
            const std::string& line = lines[id];
            unsigned roll = rng() % 10;
            if (roll < 6) {
                // Atomic append: the only way a record completes.
                file += line + '\n';
                completed.insert(id);
                ++next[w];
            } else if (roll < 9 && next[w ^ 1] < kRecordsPerWriter) {
                // Torn interleave: both writers' bytes splice into one
                // line; both records are lost.
                const std::string& other =
                    lines[(w ^ 1) * kRecordsPerWriter + next[w ^ 1]];
                std::size_t cutA = 1 + rng() % (line.size() - 1);
                std::size_t cutB = rng() % other.size();
                file += line.substr(0, cutA) + other.substr(cutB) + '\n';
                ++next[w];
                ++next[w ^ 1];
            } else {
                // Crash mid-append: a truncated tail ends the file.
                file += line.substr(0, 1 + rng() % (line.size() - 1));
                crashed = true;
            }
        }

        SweepManifest m = loadManifest(file);
        for (unsigned id = 0; id < jobs.size(); ++id) {
            if (completed.count(id) != 0) {
                // Replayed byte-exactly, not merely present.
                EXPECT_EQ(replayed(m, jobs[id], id),
                          reportToJsonLine(completedResult(jobs[id]).report))
                    << "seed " << seed << " job " << id;
            } else {
                EXPECT_EQ(m.replay(jobs[id], id), nullptr)
                    << "seed " << seed << " resurrected torn job " << id;
            }
        }
    }
}

// --- resume determinism -----------------------------------------------------

TEST(Sweep, ResumedSweepReplaysByteIdenticalReports)
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t s : {31u, 32u, 33u}) {
        jobs.push_back(cleanJob("resume" + std::to_string(s), s));
        jobs.back().label = "fdip32-" + std::to_string(s);
    }

    std::string full_path = ::testing::TempDir() + "resume_full.jsonl";
    std::string part_path = ::testing::TempDir() + "resume_part.jsonl";

    SweepOptions o;
    o.numThreads = 2;
    o.quiet = true;
    o.manifestPath = full_path;
    std::vector<JobResult> first = runSweepChecked(jobs, o);
    ASSERT_TRUE(first[0].ok && first[1].ok && first[2].ok);

    // Simulate an interruption: keep only part of the manifest.
    {
        std::ifstream in(full_path);
        std::ofstream out(part_path, std::ios::trunc);
        std::string line;
        ASSERT_TRUE(std::getline(in, line));
        out << line << '\n';
    }

    SweepOptions r;
    r.numThreads = 2;
    r.quiet = true;
    r.manifestPath = part_path;
    r.resume = true;
    std::size_t resumed_seen = 0;
    r.onProgress = [&resumed_seen](const SweepProgress& p) {
        resumed_seen = p.resumed;
    };
    std::vector<JobResult> second = runSweepChecked(jobs, r);

    EXPECT_EQ(resumed_seen, 1u);
    std::size_t replayed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(second[i].ok);
        if (second[i].resumed) {
            ++replayed;
        }
        // Byte-identical whether replayed from the manifest or re-run.
        EXPECT_EQ(reportToJsonLine(first[i].report),
                  reportToJsonLine(second[i].report));
    }
    EXPECT_EQ(replayed, 1u);

    // The resumed manifest now also covers every job: a third run
    // replays everything.
    std::vector<JobResult> third = runSweepChecked(jobs, r);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(third[i].resumed);
    }

    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
}

TEST(Sweep, FailedManifestEntriesAreRerun)
{
    // Both line formats of a failed job: the failure row, and the older
    // envelope with "status":"failed". Neither holds a Report to replay.
    SweepJob job = cleanJob("failrerun", 40);
    JobResult failed;
    failed.error.kind = "crash";
    std::string path = ::testing::TempDir() + "manifest_failed.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << journalLine(job, 0, failed) << '\n'
            << "{" << hashPair(job, 0)
            << ",\"index\":0,\"workload\":\"failrerun\",\"config\":\"fdip32\","
               "\"status\":\"failed\",\"error_kind\":\"crash\"}\n";
    }
    SweepOptions o;
    o.numThreads = 1;
    o.quiet = true;
    o.manifestPath = path;
    o.resume = true;
    std::vector<JobResult> r = runSweepChecked({job}, o);
    ASSERT_TRUE(r[0].ok);
    EXPECT_FALSE(r[0].resumed); // actually ran
    std::remove(path.c_str());
}

// --- graceful shutdown ------------------------------------------------------

TEST(Sweep, GracefulShutdownDrainsInFlightAndSkipsQueued)
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t s = 0; s < 5; ++s) {
        jobs.push_back(cleanJob("shutdown" + std::to_string(s), 50 + s));
    }
    SweepOptions o;
    o.numThreads = 1; // serial: deterministic completion order
    o.quiet = true;
    o.handleSignals = true;
    o.onProgress = [](const SweepProgress& p) {
        if (p.done == 1) {
            // First job just finished: request a graceful stop exactly
            // like a terminal Ctrl-C would.
            std::raise(SIGINT);
        }
    };
    std::vector<JobResult> r = runSweepChecked(jobs, o);

    EXPECT_TRUE(sweepStopRequested());
    EXPECT_EQ(sweepStopSignal(), SIGINT);
    ASSERT_EQ(r.size(), 5u);
    EXPECT_TRUE(r[0].ok);
    for (std::size_t i = 1; i < r.size(); ++i) {
        EXPECT_FALSE(r[i].ok);
        EXPECT_TRUE(r[i].skipped);
    }
}

TEST(Sweep, SkippedJobsAreNotRecordedSoResumeRerunsThem)
{
    std::string path = ::testing::TempDir() + "manifest_skip.jsonl";
    std::vector<SweepJob> jobs = {cleanJob("skipa", 60),
                                  cleanJob("skipb", 61)};
    SweepOptions o;
    o.numThreads = 1;
    o.quiet = true;
    o.handleSignals = true;
    o.manifestPath = path;
    o.onProgress = [](const SweepProgress& p) {
        if (p.done == 1) {
            std::raise(SIGTERM);
        }
    };
    std::vector<JobResult> r = runSweepChecked(jobs, o);
    ASSERT_TRUE(r[0].ok);
    ASSERT_TRUE(r[1].skipped);
    EXPECT_EQ(sweepStopSignal(), SIGTERM);

    // Resume finishes exactly the skipped job.
    SweepOptions res;
    res.numThreads = 1;
    res.quiet = true;
    res.manifestPath = path;
    res.resume = true;
    std::vector<JobResult> r2 = runSweepChecked(jobs, res);
    EXPECT_TRUE(r2[0].resumed);
    ASSERT_TRUE(r2[1].ok);
    EXPECT_FALSE(r2[1].resumed);
    EXPECT_EQ(reportToJsonLine(r2[0].report),
              reportToJsonLine(r[0].report));
    std::remove(path.c_str());
}

// --- fault-kind name round trip ---------------------------------------------

TEST(FaultInject, KindNamesRoundTrip)
{
    for (FaultKind k :
         {FaultKind::None, FaultKind::DropFill, FaultKind::DelayFill,
          FaultKind::LeakMshr, FaultKind::DuplicateMshr,
          FaultKind::CorruptFtqEntry, FaultKind::FreezeRetire,
          FaultKind::CrashSegv, FaultKind::OomAlloc}) {
        FaultKind parsed = FaultKind::None;
        ASSERT_TRUE(faultKindFromName(faultKindName(k), &parsed))
            << faultKindName(k);
        EXPECT_EQ(parsed, k);
    }
    FaultKind out = FaultKind::None;
    EXPECT_FALSE(faultKindFromName("definitely_not_a_fault", &out));
}

} // namespace
} // namespace udp
