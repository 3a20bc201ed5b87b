/**
 * @file
 * Tests for the parallel experiment engine (sim/sweep.h) and the
 * structured report sinks (stats/sink.h): serial-vs-parallel
 * determinism, result ordering, progress reporting, the thread count,
 * program-cache stress (ThreadSanitizer-friendly) and schema stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

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

/** A small workload so each sweep job is fast. */
Profile
tinyProfile(const std::string& name, std::uint64_t seed)
{
    Profile p = profileByName("mediawiki");
    p.name = name;
    p.seed = seed;
    p.codeFootprintKB = 64;
    return p;
}

/** Every Report field the sinks serialize, compared exactly. */
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
        // Bit-identical, not approximately equal: determinism invariant.
        EXPECT_EQ(ea[i].second, eb[i].second)
            << "stat " << ea[i].first << " differs for " << a.workload
            << "/" << a.configName;
    }
}

/** Runs @p jobs through runSweepChecked; every job must succeed. */
std::vector<Report>
reportsOf(const std::vector<SweepJob>& jobs, const SweepOptions& opts)
{
    std::vector<Report> reports;
    for (JobResult& jr : runSweepChecked(jobs, opts)) {
        EXPECT_TRUE(jr.ok) << jr.error.kind << ": " << jr.error.message;
        reports.push_back(std::move(jr.report));
    }
    return reports;
}

/** Four configs on each of two Programs, "<stem>11" and a larger
 *  "<stem>22". */
std::vector<SweepJob>
eightJobs(const std::string& stem = "sweeptest")
{
    RunOptions o = tinyOptions();
    std::vector<SweepJob> jobs;
    for (std::uint64_t seed : {11u, 22u}) {
        Profile p = tinyProfile(stem + std::to_string(seed), seed);
        p.codeFootprintKB += seed == 22 ? 32 : 0;
        jobs.push_back({p, presets::fdipBaseline(), o, "fdip32"});
        jobs.push_back({p, presets::fdipWithFtq(64), o, "ftq64"});
        jobs.push_back({p, presets::udp8k(), o, "udp8k"});
        jobs.push_back({p, presets::noPrefetch(), o, "nopf"});
    }
    return jobs;
}

TEST(Sweep, SerialAndParallelReportsAreIdentical)
{
    SweepOptions serial;
    serial.numThreads = 1;
    serial.quiet = true;
    SweepOptions parallel;
    parallel.numThreads = 4;
    parallel.quiet = true;

    // Warm: the serial side builds both Programs, the parallel side finds
    // them cached. Cold: Programs no other test builds and the parallel
    // side first, so its queued builds race the points they gate.
    for (bool cold : {false, true}) {
        SCOPED_TRACE(cold ? "cold cache" : "warm cache");
        std::vector<SweepJob> jobs = eightJobs(cold ? "sweepcold"
                                                    : "sweeptest");
        std::vector<Report> a, b;
        if (cold) {
            b = reportsOf(jobs, parallel);
            a = reportsOf(jobs, serial);
        } else {
            a = reportsOf(jobs, serial);
            b = reportsOf(jobs, parallel);
        }

        ASSERT_EQ(a.size(), jobs.size());
        ASSERT_EQ(b.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            expectIdenticalReports(a[i], b[i]);
        }
    }
}

TEST(Sweep, ResultsKeepJobOrder)
{
    std::vector<SweepJob> jobs = eightJobs();
    SweepOptions opts;
    opts.numThreads = 4;
    opts.quiet = true;
    std::vector<Report> r = reportsOf(jobs, opts);
    ASSERT_EQ(r.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r[i].configName, jobs[i].label);
        EXPECT_EQ(r[i].workload, jobs[i].profile.name);
    }
}

TEST(Sweep, ProgressCallbackSeesEveryCompletion)
{
    std::vector<SweepJob> jobs = eightJobs();
    jobs.resize(3);

    std::vector<SweepProgress> seen;
    SweepOptions opts;
    opts.numThreads = 2;
    opts.onProgress = [&seen](const SweepProgress& p) {
        seen.push_back(p); // serialized by the runner's progress lock
    };
    reportsOf(jobs, opts);

    ASSERT_EQ(seen.size(), jobs.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].done, i + 1);
        EXPECT_EQ(seen[i].total, jobs.size());
        EXPECT_GE(seen[i].elapsedSec, 0.0);
        EXPECT_GE(seen[i].etaSec, 0.0);
    }
    EXPECT_EQ(seen.back().done, seen.back().total);
    EXPECT_DOUBLE_EQ(seen.back().etaSec, 0.0);
}

/** Threads of this process, or 0 without /proc/self/task. */
std::size_t
threadCount()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    return ec ? 0
              : static_cast<std::size_t>(std::distance(
                    it, std::filesystem::directory_iterator{}));
}

TEST(Sweep, StartsNoMoreThreadsThanItHasTasks)
{
    const std::size_t before = threadCount();
    if (before == 0) {
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    }
    // One build and two points: the caller and at most two helpers.
    std::vector<SweepJob> jobs = eightJobs();
    jobs.resize(2);
    SweepOptions opts;
    opts.numThreads = 8;
    std::size_t most = 0;
    opts.onProgress = [&most](const SweepProgress&) {
        most = std::max(most, threadCount());
    };
    reportsOf(jobs, opts);
    EXPECT_GT(most, 0u);
    EXPECT_LE(most, before + 2);
}

TEST(Sweep, SharedProgramCacheStress)
{
    // 8 concurrent jobs on one never-seen profile race to build its
    // Program: exactly one build must win and every job must simulate
    // the identical image. Run under -DUDP_SANITIZE=thread to verify.
    Profile p = tinyProfile("sweepstress-unique", 777);
    RunOptions o;
    o.warmupInstrs = 2'000;
    o.measureInstrs = 5'000;
    std::vector<SweepJob> jobs(8, SweepJob{p, presets::fdipBaseline(), o,
                                           "stress"});
    SweepOptions opts;
    opts.numThreads = 8;
    opts.quiet = true;
    std::vector<Report> r = reportsOf(jobs, opts);
    ASSERT_EQ(r.size(), jobs.size());
    for (std::size_t i = 1; i < r.size(); ++i) {
        expectIdenticalReports(r[0], r[i]);
    }
}

TEST(Sweep, EmptyBatchReturnsEmpty)
{
    SweepOptions opts;
    opts.quiet = true;
    EXPECT_TRUE(runSweepChecked({}, opts).empty());
}

TEST(Sweep, DefaultJobsHonoursEnv)
{
    setenv("UDP_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    setenv("UDP_JOBS", "garbage", 1);
    EXPECT_GE(defaultJobs(), 1u); // warns, falls back to hw
    unsetenv("UDP_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Sink, SchemaKeysMatchStatSetOrder)
{
    // Both sinks carry "workload", "config", then every toStatSet() key in
    // order, and toStatSet() walks kReportFields.
    const StatSet stats = Report{}.toStatSet();
    const auto& entries = stats.entries();
    ASSERT_EQ(entries.size(), std::size(kReportFields));
    std::vector<std::string> keys = {"workload", "config"};
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].first, kReportFields[i].key);
        keys.push_back(entries[i].first);
    }

    std::string header;
    for (const std::string& key : keys) {
        header += (header.empty() ? "" : ",") + key;
    }
    EXPECT_EQ(reportCsvHeader(), header);

    std::vector<std::string> jsonKeys;
    ASSERT_TRUE(walkJsonObject(
        reportToJsonLine(Report{}),
        [&jsonKeys](const std::string& key, const std::string&, JsonKind) {
            jsonKeys.push_back(key);
            return true;
        }));
    EXPECT_EQ(jsonKeys, keys);
}

TEST(Sink, JsonLineAndCsvRowCarryTheValues)
{
    Report r;
    r.workload = "mysql";
    r.configName = "udp8k";
    r.instructions = 400'000;
    r.ipc = 1.5;

    std::string json = reportToJsonLine(r);
    EXPECT_NE(json.find("\"workload\":\"mysql\""), std::string::npos);
    EXPECT_NE(json.find("\"config\":\"udp8k\""), std::string::npos);
    EXPECT_NE(json.find("\"instructions\":400000"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":1.5"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');

    std::string row = reportToCsvRow(r);
    EXPECT_EQ(row.substr(0, 12), "mysql,udp8k,");
    // Same comma count as the header: schema-stable columns.
    auto commas = [](const std::string& s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(row), commas(reportCsvHeader()));
}

TEST(Sink, ReportJsonLineRoundTripsExactly)
{
    // A real simulation Report: every stat populated with non-trivial
    // doubles, the hard case for exact round-tripping.
    Profile p = tinyProfile("roundtrip", 9);
    Report r = runSim(p, presets::udp8k(), tinyOptions(), "udp8k");

    std::string line = reportToJsonLine(r);
    Report parsed;
    ASSERT_TRUE(reportFromJsonLine(line, &parsed));
    expectIdenticalReports(r, parsed);
    // Re-serializing reproduces the input byte for byte (shortest
    // round-trip float rendering) — the invariant the checkpoint
    // manifest's replay path and the isolation pipe rely on.
    EXPECT_EQ(reportToJsonLine(parsed), line);
}

TEST(Sink, ReportParserRejectsMalformedAndForeignLines)
{
    Report out;
    EXPECT_FALSE(reportFromJsonLine("", &out));
    EXPECT_FALSE(reportFromJsonLine("not json", &out));
    EXPECT_FALSE(reportFromJsonLine("{\"workload\":\"a\"", &out));
    // Failure rows share the stream but must not parse as Reports.
    JobError e;
    e.kind = "crash";
    EXPECT_FALSE(reportFromJsonLine(failureToJsonLine("app", "cfg", e),
                                    &out));
    // Exactly one object: trailing bytes are rejected.
    Report r;
    r.workload = "app";
    EXPECT_TRUE(reportFromJsonLine(reportToJsonLine(r), &out));
    EXPECT_FALSE(reportFromJsonLine(reportToJsonLine(r) + "x", &out));
    // Unknown keys are a schema mismatch, not silently dropped data.
    EXPECT_FALSE(reportFromJsonLine(
        "{\"workload\":\"a\",\"config\":\"b\",\"bogus\":1}", &out));
}

TEST(Sink, RowsAreDurableWithoutClose)
{
    // Crash-safety: every row is flushed as one complete line the moment
    // it is written, so a sink whose process dies (SIGKILL — no
    // destructors) leaves parseable artifacts. Read the files back while
    // the sink is still open.
    Report r;
    r.workload = "app";
    r.configName = "cfg";
    r.cycles = 99;

    std::string json_path = ::testing::TempDir() + "durable.jsonl";
    std::string csv_path = ::testing::TempDir() + "durable.csv";
    ReportSink sink;
    ASSERT_TRUE(sink.openJson(json_path));
    ASSERT_TRUE(sink.openCsv(csv_path));
    sink.write(r);

    std::ifstream jf(json_path);
    std::string line;
    ASSERT_TRUE(std::getline(jf, line));
    EXPECT_EQ(line, reportToJsonLine(r));

    std::ifstream cf(csv_path);
    std::string header;
    std::string row;
    ASSERT_TRUE(std::getline(cf, header));
    ASSERT_TRUE(std::getline(cf, row));
    EXPECT_EQ(row, reportToCsvRow(r));

    sink.close();
    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

TEST(Sink, TruncatedArtifactStillYieldsEveryCompleteLine)
{
    // Simulate a crash mid-append: two complete lines plus a torn third.
    Report r1;
    r1.workload = "app1";
    r1.configName = "cfg";
    Report r2;
    r2.workload = "app2";
    r2.configName = "cfg";
    Report r3;
    r3.workload = "app3";
    r3.configName = "cfg";

    std::string path = ::testing::TempDir() + "truncated.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << reportToJsonLine(r1) << '\n' << reportToJsonLine(r2) << '\n';
        std::string torn = reportToJsonLine(r3);
        out << torn.substr(0, torn.size() / 2);
    }

    std::ifstream in(path);
    std::string line;
    std::vector<Report> recovered;
    Report parsed;
    while (std::getline(in, line)) {
        if (reportFromJsonLine(line, &parsed)) {
            recovered.push_back(parsed);
        }
    }
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].workload, "app1");
    EXPECT_EQ(recovered[1].workload, "app2");
    std::remove(path.c_str());
}

TEST(Sink, JsonEscapeRoundTrips)
{
    for (const std::string& s :
         {std::string("plain"), std::string("quote\"back\\slash"),
          std::string("line\nbreak\ttab\rcr"),
          std::string("ctrl\x01\x1f"), std::string("")}) {
        std::string unescaped;
        ASSERT_TRUE(jsonUnescape(jsonEscape(s), &unescaped));
        EXPECT_EQ(unescaped, s);
    }
    std::string out;
    EXPECT_FALSE(jsonUnescape("bad\\", &out));
    EXPECT_FALSE(jsonUnescape("bad\\q", &out));
}

TEST(Sink, WritesJsonlAndCsvFiles)
{
    Report r;
    r.workload = "app";
    r.configName = "cfg";
    r.cycles = 123;

    std::string json_path = ::testing::TempDir() + "sink_test.jsonl";
    std::string csv_path = ::testing::TempDir() + "sink_test.csv";
    ReportSink sink;
    ASSERT_TRUE(sink.openJson(json_path));
    ASSERT_TRUE(sink.openCsv(csv_path));
    EXPECT_TRUE(sink.active());
    sink.writeAll({r, r});
    sink.close();

    std::ifstream jf(json_path);
    std::string l1;
    std::string l2;
    ASSERT_TRUE(std::getline(jf, l1));
    ASSERT_TRUE(std::getline(jf, l2));
    EXPECT_EQ(l1, l2);
    EXPECT_EQ(l1, reportToJsonLine(r));

    std::ifstream cf(csv_path);
    std::string header;
    ASSERT_TRUE(std::getline(cf, header));
    EXPECT_EQ(header, reportCsvHeader());
    std::string row;
    ASSERT_TRUE(std::getline(cf, row));
    EXPECT_EQ(row, reportToCsvRow(r));

    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

} // namespace
} // namespace udp
