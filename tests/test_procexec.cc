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

    JobResult isolated = runJobIsolated(job, ProcLimits{});
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
    JobResult jr = runJobIsolated(crashingJob("segvtest"), ProcLimits{});
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

TEST(Procexec, MemLimitTurnsRunawayAllocationIntoMemLimit)
{
    if (procUnderSanitizer()) {
        GTEST_SKIP() << "RLIMIT_AS is not applied under sanitizers";
    }
    SweepJob j = cleanJob("oomtest", 6);
    j.config.fault.kind = FaultKind::OomAlloc;
    j.config.fault.triggerCycle = 1'000;
    j.label = "oom";

    ProcLimits limits;
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

    ProcLimits limits;
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

    JobResult jr = runJobIsolated(j, ProcLimits{});
    ASSERT_FALSE(jr.ok);
    EXPECT_TRUE(jr.error.signal.empty());
    EXPECT_GT(jr.error.maxRssKb, 0u);
    // Apart from the diagnostics the parent attaches (rusage and the
    // stderr tail), the record is the in-process one field for field.
    JobError relayed = jr.error;
    relayed.stderrTail.clear();
    relayed.maxRssKb = 0;
    relayed.userSec = 0.0;
    relayed.sysSec = 0.0;
    EXPECT_EQ(failureToJsonLine(j.profile.name, j.label, 1, relayed),
              failureToJsonLine(j.profile.name, j.label, 1, expect.error));
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

TEST(Manifest, EntryRoundTrips)
{
    Report r;
    r.workload = "app";
    r.configName = "cfg \"quoted\"";
    r.ipc = 1.25;

    ManifestEntry ok;
    ok.hash = 0x0123456789ABCDEFull;
    ok.index = 7;
    ok.workload = "app";
    ok.label = "cfg \"quoted\"";
    ok.ok = true;
    ok.report = r;

    ManifestEntry parsed;
    ASSERT_TRUE(
        manifestEntryFromJsonLine(manifestEntryToJsonLine(ok), &parsed));
    EXPECT_EQ(parsed.hash, ok.hash);
    EXPECT_EQ(parsed.index, ok.index);
    EXPECT_EQ(parsed.workload, ok.workload);
    EXPECT_EQ(parsed.label, ok.label);
    EXPECT_TRUE(parsed.ok);
    EXPECT_EQ(reportToJsonLine(parsed.report), reportToJsonLine(r));

    ManifestEntry failed;
    failed.hash = 42;
    failed.index = 1;
    failed.workload = "app";
    failed.label = "cfg";
    failed.ok = false;
    failed.errorKind = "crash";
    ASSERT_TRUE(manifestEntryFromJsonLine(manifestEntryToJsonLine(failed),
                                          &parsed));
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.errorKind, "crash");
    EXPECT_EQ(reportToJsonLine(parsed.report), reportToJsonLine(Report{}));

    // A line with the "worker" key that distributed workers used to
    // write still parses, so their manifests still resume.
    std::string line = manifestEntryToJsonLine(ok);
    const std::string status = ",\"status\":";
    line.insert(line.find(status), ",\"worker\":\"w1\"");
    ASSERT_TRUE(manifestEntryFromJsonLine(line, &parsed)) << line;
    EXPECT_EQ(parsed.hash, ok.hash);
    EXPECT_EQ(parsed.index, ok.index);
    EXPECT_EQ(parsed.workload, ok.workload);
    EXPECT_EQ(parsed.label, ok.label);
    EXPECT_TRUE(parsed.ok);
    EXPECT_EQ(reportToJsonLine(parsed.report), reportToJsonLine(r));
    EXPECT_TRUE(manifestEntryIsConsistent(parsed));

    // Keys are read by position in the object, not by the first match in
    // the text: with the report ahead of them, the entry's own workload
    // and config still win over the report's.
    ok.report.workload = "other";
    ok.report.configName = "other cfg";
    std::string reordered = "{\"report\":" + reportToJsonLine(ok.report) +
                            ",\"hash\":\"0123456789abcdef\",\"index\":7,"
                            "\"workload\":\"app\",\"config\":\"cfg\","
                            "\"status\":\"ok\"}";
    ASSERT_TRUE(manifestEntryFromJsonLine(reordered, &parsed)) << reordered;
    EXPECT_EQ(parsed.workload, "app");
    EXPECT_EQ(parsed.label, "cfg");
    EXPECT_EQ(parsed.report.workload, "other");
    EXPECT_FALSE(manifestEntryIsConsistent(parsed));

    // A repeated key, as a splice of two records can leave, is malformed.
    line = manifestEntryToJsonLine(failed);
    line.insert(line.find(status), ",\"hash\":\"000000000000002a\"");
    EXPECT_FALSE(manifestEntryFromJsonLine(line, &parsed)) << line;
}

TEST(Manifest, TruncatedFinalLineIsSkippedOnLoad)
{
    std::string path = ::testing::TempDir() + "manifest_trunc.jsonl";

    Report r;
    r.workload = "app";
    r.configName = "cfg";
    ManifestEntry e;
    e.hash = 1;
    e.index = 0;
    e.workload = "app";
    e.label = "cfg";
    e.ok = true;
    e.report = r;

    std::string full = manifestEntryToJsonLine(e);
    {
        std::ofstream out(path, std::ios::trunc);
        out << full << '\n';
        e.hash = 2;
        out << manifestEntryToJsonLine(e) << '\n';
        // A crash mid-append leaves a torn line at the tail.
        e.hash = 3;
        out << manifestEntryToJsonLine(e).substr(0, full.size() / 2);
    }

    SweepManifest m;
    ASSERT_TRUE(m.open(path, /*resume=*/true));
    EXPECT_EQ(m.loadedCompleted(), 2u);
    EXPECT_NE(m.findCompleted(1), nullptr);
    EXPECT_NE(m.findCompleted(2), nullptr);
    EXPECT_EQ(m.findCompleted(3), nullptr);
    m.close();
    std::remove(path.c_str());
}

/** A distinct, internally consistent ok entry for torn-line tests. */
ManifestEntry
fuzzEntry(std::uint64_t hash, unsigned id)
{
    Report r;
    r.workload = "app" + std::to_string(id);
    r.configName = "cfg" + std::to_string(id);
    r.ipc = 1.0 + 0.001 * static_cast<double>(id);

    ManifestEntry e;
    e.hash = hash;
    e.index = id;
    e.workload = r.workload;
    e.label = r.configName;
    e.ok = true;
    e.report = r;
    return e;
}

TEST(Manifest, SplicedLineFromTwoWritersIsRejected)
{
    // The corruption a line-level parser cannot catch: two writers
    // interleaving on one file splice a line that PARSES — writer A's
    // prefix (hash, workload, label) joined to writer B's report value.
    // Without the deep consistency check, resume would resurrect B's
    // Report under A's job hash.
    ManifestEntry a = fuzzEntry(0xAAAA, 1);
    ManifestEntry b = fuzzEntry(0xBBBB, 2);
    std::string la = manifestEntryToJsonLine(a);
    std::string lb = manifestEntryToJsonLine(b);
    const std::string key = "\"report\":";
    std::size_t ca = la.find(key);
    std::size_t cb = lb.find(key);
    ASSERT_NE(ca, std::string::npos);
    ASSERT_NE(cb, std::string::npos);
    std::string spliced = la.substr(0, ca) + lb.substr(cb);

    ManifestEntry parsed;
    ASSERT_TRUE(manifestEntryFromJsonLine(spliced, &parsed))
        << "the splice is supposed to parse — that is the point";
    EXPECT_EQ(parsed.hash, a.hash);
    EXPECT_EQ(reportToJsonLine(parsed.report), reportToJsonLine(b.report));
    EXPECT_FALSE(manifestEntryIsConsistent(parsed));

    // Untampered entries pass.
    EXPECT_TRUE(manifestEntryIsConsistent(a));
    EXPECT_TRUE(manifestEntryIsConsistent(b));

    std::string path = ::testing::TempDir() + "manifest_splice.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << la << '\n' << spliced << '\n';
    }
    SweepManifest m;
    ASSERT_TRUE(m.open(path, /*resume=*/true));
    EXPECT_EQ(m.loadedCompleted(), 1u);
    EXPECT_NE(m.findCompleted(a.hash), nullptr);
    m.close();
    std::remove(path.c_str());
}

TEST(Manifest, ConcurrentWriterFuzzReplaysExactlyTheCompletedSet)
{
    // Fuzz two unsynchronized writers appending to one manifest: records
    // land atomically, interleave mid-line, or truncate at a crash. On
    // every schedule, resume must replay exactly the records that were
    // written intact — never a spliced or truncated one.
    std::string path = ::testing::TempDir() + "manifest_fuzz.jsonl";
    constexpr unsigned kRecordsPerWriter = 6;

    for (unsigned seed = 0; seed < 25; ++seed) {
        std::mt19937 rng(seed);
        std::vector<std::string> pending[2];
        std::unordered_set<std::uint64_t> allHashes;
        std::vector<ManifestEntry> entries;
        for (unsigned w = 0; w < 2; ++w) {
            for (unsigned i = 0; i < kRecordsPerWriter; ++i) {
                unsigned id = w * kRecordsPerWriter + i;
                ManifestEntry e = fuzzEntry(1000 + id, id);
                entries.push_back(e);
                pending[w].push_back(manifestEntryToJsonLine(e));
                allHashes.insert(e.hash);
            }
        }

        std::unordered_set<std::uint64_t> completed;
        std::string file;
        bool crashed = false;
        std::size_t next[2] = {0, 0};
        while (!crashed && (next[0] < pending[0].size() ||
                            next[1] < pending[1].size())) {
            unsigned w = rng() % 2;
            if (next[w] >= pending[w].size()) {
                w ^= 1;
            }
            const std::string& line = pending[w][next[w]];
            std::uint64_t hash = entries[w * kRecordsPerWriter +
                                         next[w]].hash;
            unsigned roll = rng() % 10;
            if (roll < 6) {
                // Atomic append: the only way a record completes.
                file += line + '\n';
                completed.insert(hash);
                ++next[w];
            } else if (roll < 9 && next[w ^ 1] < pending[w ^ 1].size()) {
                // Torn interleave: both writers' bytes splice into one
                // line; both records are lost.
                const std::string& other = pending[w ^ 1][next[w ^ 1]];
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
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out << file;
        }

        SweepManifest m;
        ASSERT_TRUE(m.open(path, /*resume=*/true));
        EXPECT_EQ(m.loadedCompleted(), completed.size())
            << "seed " << seed;
        for (std::uint64_t h : allHashes) {
            const ManifestEntry* hit = m.findCompleted(h);
            if (completed.count(h) != 0) {
                ASSERT_NE(hit, nullptr) << "seed " << seed << " hash " << h;
                // Replayed byte-exactly, not merely present.
                EXPECT_EQ(reportToJsonLine(hit->report),
                          reportToJsonLine(
                              entries[static_cast<std::size_t>(h - 1000)]
                                  .report))
                    << "seed " << seed;
            } else {
                EXPECT_EQ(hit, nullptr)
                    << "seed " << seed << " resurrected torn hash " << h;
            }
        }
        m.close();
    }
    std::remove(path.c_str());
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
            EXPECT_EQ(second[i].attempts, 0u);
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
    SweepJob job = cleanJob("failrerun", 40);
    std::string path = ::testing::TempDir() + "manifest_failed.jsonl";
    {
        ManifestEntry e;
        e.hash = sweepJobHash(job, 0);
        e.index = 0;
        e.workload = job.profile.name;
        e.label = job.label;
        e.ok = false;
        e.errorKind = "crash";
        std::ofstream out(path, std::ios::trunc);
        out << manifestEntryToJsonLine(e) << '\n';
    }
    SweepOptions o;
    o.numThreads = 1;
    o.quiet = true;
    o.manifestPath = path;
    o.resume = true;
    std::vector<JobResult> r = runSweepChecked({job}, o);
    ASSERT_TRUE(r[0].ok);
    EXPECT_FALSE(r[0].resumed); // actually ran
    EXPECT_EQ(r[0].attempts, 1u);
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
        EXPECT_EQ(r[i].attempts, 0u);
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
