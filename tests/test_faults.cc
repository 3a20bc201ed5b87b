/**
 * @file
 * Tests for the simulation-hardening layer: the forward-progress watchdog
 * (sim/cpu.cc), the cross-component invariant checker (sim/invariants.h),
 * deterministic fault injection (sim/faultinject.h) and fault-tolerant
 * sweeps (runSweepChecked + failure-row sinks). Every injectable
 * fault class must be detected with the right structured SimError kind
 * and a non-empty multi-component diagnostic dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "sim/cpu.h"
#include "sim/faultinject.h"
#include "sim/invariants.h"
#include "sim/simerror.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "workload/builder.h"

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

/** A small workload so each run is fast. */
Profile
tinyProfile(const std::string& name, std::uint64_t seed)
{
    Profile p = profileByName("mediawiki");
    p.name = name;
    p.seed = seed;
    p.codeFootprintKB = 64;
    return p;
}

/** Baseline config with fast watchdog/invariant cadences for tests. */
SimConfig
hardenedConfig()
{
    SimConfig c = presets::fdipBaseline();
    c.watchdog.retireStallCycles = 5'000;
    c.watchdog.invariantPeriod = 64;
    return c;
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

/**
 * Runs the faulty config and returns the SimError subclass it must raise.
 * A completed run or a wrong exception type fails the test (the rethrow
 * is reported by gtest as the failure cause).
 */
template <typename ErrorT>
ErrorT
expectSimError(const SimConfig& cfg, const char* label)
{
    Profile p = tinyProfile("faulttest", 7);
    try {
        runSim(p, cfg, tinyOptions(), label);
    } catch (const ErrorT& e) {
        return e;
    } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": wrong exception type: " << e.what();
        throw;
    }
    ADD_FAILURE() << label << ": expected a SimError, run completed";
    throw std::runtime_error("expected SimError");
}

// --- watchdog --------------------------------------------------------------

TEST(Watchdog, FreezeRetireTripsRetireStallWithinBudget)
{
    SimConfig c = hardenedConfig();
    c.fault.kind = FaultKind::FreezeRetire;
    c.fault.triggerCycle = 500;

    SimHang e = expectSimError<SimHang>(c, "freeze");
    EXPECT_EQ(e.kind(), SimErrorKind::RetireStall);
    EXPECT_STREQ(e.kindName(), "retire_stall");
    EXPECT_EQ(e.component(), "backend");
    // The deliberately deadlocked sim must terminate within the watchdog
    // window of the freeze (plus one window of slack for the last retire
    // before the freeze landed).
    EXPECT_GE(e.cycle(), c.fault.triggerCycle);
    EXPECT_LE(e.cycle(),
              c.fault.triggerCycle + 2 * c.watchdog.retireStallCycles);
    // Multi-component diagnostic dump.
    EXPECT_NE(e.dump().find("[cpu]"), std::string::npos);
    EXPECT_NE(e.dump().find("[ftq]"), std::string::npos);
    EXPECT_NE(e.dump().find("[fetch]"), std::string::npos);
    EXPECT_NE(e.dump().find("[rob]"), std::string::npos);
    EXPECT_NE(e.dump().find("[mshr]"), std::string::npos);
    EXPECT_NE(e.dump().find("frozen=1"), std::string::npos);
}

TEST(Watchdog, CycleBudgetTrips)
{
    SimConfig c = presets::fdipBaseline();
    c.watchdog.maxCycles = 2'000; // far below what 30k instructions need

    SimHang e = expectSimError<SimHang>(c, "budget");
    EXPECT_EQ(e.kind(), SimErrorKind::CycleBudget);
    EXPECT_STREQ(e.kindName(), "cycle_budget");
    EXPECT_EQ(e.cycle(), c.watchdog.maxCycles);
    EXPECT_NE(e.dump().find("[rob]"), std::string::npos);
}

/** The cycle at which a healthy run of @p prog finishes its warmup. */
Cycle
windowStartCycle(const Program& prog, const SimConfig& c)
{
    Cpu cpu(prog, c);
    cpu.runUntilRetired(tinyOptions().warmupInstrs);
    return cpu.now();
}

/** Runs a warmup, starts the window, and returns the SimHang it raises. */
SimHang
hangInWindow(Cpu& cpu)
{
    cpu.runUntilRetired(tinyOptions().warmupInstrs);
    cpu.clearStats();
    try {
        cpu.runUntilRetired(tinyOptions().measureInstrs);
    } catch (const SimHang& e) {
        return e;
    }
    ADD_FAILURE() << "expected a SimHang, run completed";
    throw std::runtime_error("expected SimHang");
}

std::uint64_t
field(const std::smatch& m, std::size_t i)
{
    return std::stoull(m[i].str());
}

TEST(Watchdog, DumpCountsFromCycleZeroAndNamesTheWindow)
{
    Profile p = tinyProfile("dumpclock", 7);
    Program prog = ProgramBuilder::build(p);
    SimConfig c = hardenedConfig();
    c.fault.triggerCycle = windowStartCycle(prog, c) + 2'000;
    c.fault.kind = FaultKind::FreezeRetire;

    Cpu cpu(prog, c);
    SimHang e = hangInWindow(cpu);
    ASSERT_EQ(e.kind(), SimErrorKind::RetireStall);
    const std::uint64_t retired = cpu.backend().retired();
    const CpuCounters& start = cpu.windowStart();
    ASSERT_GT(start.retired, 0u);
    ASSERT_GT(retired, start.retired);

    std::smatch m;
    const std::string dump = e.dump();
    ASSERT_TRUE(std::regex_search(
        dump, m,
        std::regex("\\[cpu\\] cycle=(\\d+) retired=(\\d+) "
                   "last_retire_cycle=(\\d+) \\((\\d+) ago\\) "
                   "window_start_cycle=(\\d+) window_retired=(\\d+)\n")))
        << dump;
    EXPECT_EQ(field(m, 1), cpu.now());
    EXPECT_EQ(field(m, 2), retired);
    EXPECT_EQ(field(m, 3) + field(m, 4), cpu.now());
    // The last retirement lies inside the window, before the freeze.
    EXPECT_GT(field(m, 3), start.cycle);
    EXPECT_LT(field(m, 3), c.fault.triggerCycle);
    EXPECT_EQ(field(m, 5), start.cycle);
    EXPECT_EQ(field(m, 6), cpu.retired());

    ASSERT_TRUE(std::regex_search(
        dump, m,
        std::regex("\\[rob\\] occupancy=\\d+/\\d+ retired=(\\d+) frozen=1")))
        << dump;
    EXPECT_EQ(field(m, 1), retired);
}

TEST(Watchdog, CycleBudgetMessageCountsFromCycleZero)
{
    Profile p = tinyProfile("budgetclock", 7);
    Program prog = ProgramBuilder::build(p);
    SimConfig c = presets::fdipBaseline();
    c.watchdog.maxCycles = windowStartCycle(prog, c) + 2'000;

    Cpu cpu(prog, c);
    SimHang e = hangInWindow(cpu);
    ASSERT_EQ(e.kind(), SimErrorKind::CycleBudget);
    const std::uint64_t retired = cpu.backend().retired();
    const std::string expected =
        "exhausted with " + std::to_string(retired) +
        " instructions retired, " +
        std::to_string(retired - cpu.windowStart().retired) +
        " of them in the measurement window";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
}

TEST(Watchdog, DelayFillWedgesFetchAndTripsRetireStall)
{
    SimConfig c = hardenedConfig();
    c.watchdog.invariantPeriod = 0; // a delayed fill is not an invariant
    c.fault.kind = FaultKind::DelayFill;
    c.fault.triggerCycle = 200;

    SimHang e = expectSimError<SimHang>(c, "delay");
    EXPECT_EQ(e.kind(), SimErrorKind::RetireStall);
    EXPECT_NE(e.dump().find("[mshr]"), std::string::npos);
}

// --- invariant checker -----------------------------------------------------

TEST(Invariants, DropFillTripsMshrLeak)
{
    SimConfig c = hardenedConfig();
    c.fault.kind = FaultKind::DropFill;
    c.fault.triggerCycle = 200;

    InvariantViolation e = expectSimError<InvariantViolation>(c, "drop");
    EXPECT_EQ(e.kind(), SimErrorKind::InvariantViolation);
    EXPECT_STREQ(e.kindName(), "invariant");
    EXPECT_EQ(e.component(), "mshr");
    EXPECT_NE(std::string(e.what()).find("leaked"), std::string::npos);
    EXPECT_FALSE(e.dump().empty());
}

TEST(Invariants, LeakMshrTripsMshrLeak)
{
    SimConfig c = hardenedConfig();
    c.fault.kind = FaultKind::LeakMshr;
    c.fault.triggerCycle = 200;

    InvariantViolation e = expectSimError<InvariantViolation>(c, "leak");
    EXPECT_EQ(e.component(), "mshr");
    EXPECT_NE(std::string(e.what()).find("leaked"), std::string::npos);
}

TEST(Invariants, DuplicateMshrTripsDuplicateLine)
{
    SimConfig c = hardenedConfig();
    c.fault.kind = FaultKind::DuplicateMshr;
    c.fault.triggerCycle = 200;

    InvariantViolation e = expectSimError<InvariantViolation>(c, "dup");
    EXPECT_EQ(e.component(), "mshr");
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
}

TEST(Invariants, CorruptFtqEntryTripsWellFormedness)
{
    SimConfig c = hardenedConfig();
    c.fault.kind = FaultKind::CorruptFtqEntry;
    c.fault.triggerCycle = 200;

    InvariantViolation e = expectSimError<InvariantViolation>(c, "corrupt");
    EXPECT_EQ(e.component(), "ftq");
    EXPECT_NE(std::string(e.what()).find("invalid startPc"),
              std::string::npos);
    EXPECT_NE(e.dump().find("[ftq]"), std::string::npos);
}

TEST(Invariants, CleanRunIsUnaffectedByChecking)
{
    // Same run with aggressive checking vs checking disabled: the checks
    // must be observation-only, so the Reports are bit-identical.
    Profile p = tinyProfile("cleantest", 3);
    SimConfig checked = hardenedConfig();
    checked.watchdog.invariantPeriod = 16;

    SimConfig unchecked = presets::fdipBaseline();
    unchecked.watchdog.retireStallCycles = 0;
    unchecked.watchdog.invariantPeriod = 0;

    Report a = runSim(p, checked, tinyOptions(), "cfg");
    Report b = runSim(p, unchecked, tinyOptions(), "cfg");
    expectIdenticalReports(a, b);
}

TEST(Invariants, HealthyCpuCollectsNoFailures)
{
    Profile p = tinyProfile("collect", 5);
    Program prog = ProgramBuilder::build(p);
    SimConfig c = presets::udp8k();
    c.uftq.mode = UftqMode::AtrAur;
    Cpu cpu(prog, c);
    cpu.runUntilRetired(5'000);
    EXPECT_TRUE(collectInvariantFailures(cpu, /*full=*/false).empty());
    EXPECT_TRUE(collectInvariantFailures(cpu, /*full=*/true).empty());
    // The dump is well-formed even on a healthy machine.
    std::string dump = cpu.dumpState();
    EXPECT_NE(dump.find("[cpu]"), std::string::npos);
    EXPECT_NE(dump.find("[uftq]"), std::string::npos);
    EXPECT_NE(dump.find("[udp]"), std::string::npos);
}

// --- fault-tolerant sweeps -------------------------------------------------

/** Three healthy jobs + one deadlocking job at index 1. */
std::vector<SweepJob>
mixedJobs()
{
    RunOptions o = tinyOptions();
    Profile p = tinyProfile("sweepfault", 11);
    SimConfig bad = hardenedConfig();
    bad.fault.kind = FaultKind::FreezeRetire;
    bad.fault.triggerCycle = 500;

    std::vector<SweepJob> jobs;
    jobs.push_back({p, presets::fdipBaseline(), o, "fdip32"});
    jobs.push_back({p, bad, o, "frozen"});
    jobs.push_back({p, presets::fdipWithFtq(64), o, "ftq64"});
    jobs.push_back({p, presets::noPrefetch(), o, "nopf"});
    return jobs;
}

TEST(SweepChecked, OneCrashingJobStillYieldsEveryOtherReport)
{
    std::vector<SweepJob> jobs = mixedJobs();

    std::vector<SweepProgress> seen;
    SweepOptions opts;
    opts.numThreads = 2;
    opts.quiet = true;
    opts.onProgress = [&seen](const SweepProgress& p) { seen.push_back(p); };
    std::vector<JobResult> results = runSweepChecked(jobs, opts);

    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_TRUE(results[3].ok);
    ASSERT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].error.kind, "retire_stall");
    EXPECT_EQ(results[1].error.component, "backend");
    EXPECT_GT(results[1].error.cycle, 0u);
    EXPECT_FALSE(results[1].error.dump.empty());

    // The healthy jobs' Reports are exactly what a clean sweep produces.
    std::vector<SweepJob> clean = {jobs[0], jobs[2], jobs[3]};
    SweepOptions serial;
    serial.numThreads = 1;
    serial.quiet = true;
    std::vector<JobResult> ref = runSweepChecked(clean, serial);
    ASSERT_TRUE(ref[0].ok && ref[1].ok && ref[2].ok);
    expectIdenticalReports(results[0].report, ref[0].report);
    expectIdenticalReports(results[2].report, ref[1].report);
    expectIdenticalReports(results[3].report, ref[2].report);

    // Progress: a failed job still counts, so done reaches total and the
    // failure is visible in the snapshots (the satellite fix).
    ASSERT_EQ(seen.size(), jobs.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].done, i + 1);
        EXPECT_EQ(seen[i].total, jobs.size());
    }
    EXPECT_EQ(seen.back().failed, 1u);
    EXPECT_DOUBLE_EQ(seen.back().etaSec, 0.0);
}

TEST(SweepChecked, StderrLinesAreWholeAndEndWithTheFinalProgress)
{
    std::vector<SweepJob> jobs = mixedJobs();
    SweepOptions opts;
    opts.numThreads = 2;
    testing::internal::CaptureStderr();
    std::vector<JobResult> results = runSweepChecked(jobs, opts);
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_FALSE(results[1].ok);

    // Every line is one of the sweep's two forms, whole: no line is cut
    // short or shares its bytes with another.
    ASSERT_FALSE(err.empty());
    EXPECT_EQ(err.back(), '\n');
    const std::regex progress(
        R"(\[sweep\] progress done=[1-4] total=4 failed=[01] )"
        R"(elapsed_sec=[0-9.e+-]+ eta_sec=[0-9.e+-]+)");
    const std::string failed =
        "[sweep] warning: job_failed job=1 label=frozen "
        "kind=retire_stall message=" +
        results[1].error.message;
    std::vector<std::string> lines;
    std::istringstream in(err);
    for (std::string l; std::getline(in, l);) {
        lines.push_back(l);
    }
    std::size_t failedLines = 0;
    for (const std::string& l : lines) {
        if (l == failed) {
            ++failedLines;
        } else {
            EXPECT_TRUE(std::regex_match(l, progress)) << l;
        }
    }
    EXPECT_EQ(failedLines, 1u);

    // The last line is the final progress line, printed even inside the
    // 0.25 s throttle window.
    EXPECT_TRUE(std::regex_match(
        lines.back(),
        std::regex(R"(\[sweep\] progress done=4 total=4 failed=1 )"
                   R"(elapsed_sec=[0-9.e+-]+ eta_sec=0)")))
        << lines.back();
}

TEST(SweepChecked, JobCycleBudgetBoundsAHangingJob)
{
    // The stall watchdog and the invariant sweeps are off: without its
    // cycle budget this job would hang the batch forever.
    RunOptions o = tinyOptions();
    SimConfig bad = presets::fdipBaseline();
    bad.watchdog.retireStallCycles = 0;
    bad.watchdog.invariantPeriod = 0;
    bad.watchdog.maxCycles = 20'000;
    bad.fault.kind = FaultKind::FreezeRetire;
    bad.fault.triggerCycle = 500;

    std::vector<SweepJob> jobs = {
        {tinyProfile("budget", 13), bad, o, "frozen"}};
    SweepOptions opts;
    opts.numThreads = 1;
    opts.quiet = true;
    std::vector<JobResult> results = runSweepChecked(jobs, opts);
    ASSERT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error.kind, "cycle_budget");
    EXPECT_EQ(results[0].error.cycle, 20'000u);
}

TEST(SweepChecked, FailedRowCarriesTheDump)
{
    std::vector<SweepJob> jobs = mixedJobs();
    SweepOptions opts;
    opts.numThreads = 1;
    opts.quiet = true;
    std::vector<JobResult> results = runSweepChecked(jobs, opts);
    ASSERT_FALSE(results[1].ok);
    const std::string row = failureToJsonLine(
        jobs[1].profile.name, jobs[1].label, results[1].error);
    std::string workload;
    std::string config;
    JobError e;
    ASSERT_TRUE(failureFromJsonLine(row, &workload, &config, &e));
    // The row carries the watchdog's message and the component dump.
    EXPECT_EQ(e.kind, "retire_stall");
    EXPECT_NE(e.message.find("retire_stall"), std::string::npos);
    EXPECT_NE(e.dump.find("[rob]"), std::string::npos);
    EXPECT_EQ(e.dump, results[1].error.dump);
}

// --- failure rows ------------------------------------------------------------

JobError
sampleFailure()
{
    JobError e;
    e.kind = "retire_stall";
    e.component = "backend";
    e.message = "no instruction retired for 5000 cycles";
    e.dump = "[rob] head=3 \"stalled\"\n[mshr] C:\\path\ttab\x01\x1f end\n";
    e.cycle = 12'345;
    e.signal = "SIGSEGV";
    e.stderrTail = "[fault] crash_segv: raising SIGSEGV\n";
    e.maxRssKb = 61'440;
    e.userSec = 0.25;
    e.sysSec = 0.1;
    return e;
}

TEST(Sink, FailureRowSerialization)
{
    std::string json = failureToJsonLine("mysql", "udp8k", sampleFailure());
    EXPECT_EQ(json.rfind("{\"workload\":\"mysql\",\"config\":\"udp8k\","
                         "\"error_kind\":\"retire_stall\","
                         "\"component\":\"backend\",\"cycle\":12345,"
                         "\"message\":",
                         0),
              0u)
        << json;
    // Isolation diagnostics and the dump ride along, one physical line.
    EXPECT_NE(json.find("\"dump\":\"[rob] head=3 \\\"stalled\\\"\\n"),
              std::string::npos);
    EXPECT_NE(json.find("\"signal\":\"SIGSEGV\""), std::string::npos);
    EXPECT_NE(json.find("\"stderr_tail\":\"[fault] crash_segv"),
              std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
    // The child's rusage differs from run to run and stays out of the
    // row, so two runs of one failure write the same row.
    JobError rerun = sampleFailure();
    rerun.maxRssKb = 70'212;
    rerun.userSec = 0.31;
    rerun.sysSec = 0.02;
    EXPECT_EQ(failureToJsonLine("mysql", "udp8k", rerun), json);
    EXPECT_EQ(json.find("max_rss_kb"), std::string::npos);
    // Report lines never carry "error_kind": the discriminator key.
    EXPECT_EQ(reportToJsonLine(Report{}).find("error_kind"),
              std::string::npos);
}

TEST(Sink, FailureJsonLineRoundTripsEveryField)
{
    const JobError in = sampleFailure();
    const std::string line = failureToJsonLine("my\"sql", "udp\\8k", in);
    std::string workload;
    std::string config;
    JobError out;
    ASSERT_TRUE(failureFromJsonLine(line, &workload, &config, &out));
    EXPECT_EQ(workload, "my\"sql");
    EXPECT_EQ(config, "udp\\8k");
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.component, in.component);
    EXPECT_EQ(out.message, in.message);
    EXPECT_EQ(out.dump, in.dump);
    EXPECT_EQ(out.cycle, in.cycle);
    EXPECT_EQ(out.signal, in.signal);
    EXPECT_EQ(out.stderrTail, in.stderrTail);
    EXPECT_EQ(failureToJsonLine(workload, config, out), line);
}

TEST(Sink, FailureParserRejectsTruncatedJunkAndReportLines)
{
    const std::string line =
        failureToJsonLine("mysql", "udp8k", sampleFailure());
    std::string workload;
    std::string config;
    JobError out;
    auto parses = [&](const std::string& l) {
        return failureFromJsonLine(l, &workload, &config, &out);
    };
    ASSERT_TRUE(parses(line));
    for (std::size_t cut : {std::size_t{0}, std::size_t{1}, line.size() / 2,
                            line.size() - 2, line.size() - 1}) {
        EXPECT_FALSE(parses(line.substr(0, cut))) << "cut at " << cut;
    }
    EXPECT_FALSE(parses(line + "x"));
    EXPECT_FALSE(parses(line + "\n"));
    EXPECT_FALSE(parses(line + line));
    Report r;
    r.workload = "mysql";
    r.configName = "udp8k";
    EXPECT_FALSE(parses(reportToJsonLine(r)));
    EXPECT_FALSE(parses("{\"workload\":\"a\",\"config\":\"b\"}"));
}

TEST(Sink, WriteFailureAppendsATaggedJsonLineOnly)
{
    std::string json_path = ::testing::TempDir() + "fault_sink.jsonl";
    std::string csv_path = ::testing::TempDir() + "fault_sink.csv";
    std::string fail_path = ::testing::TempDir() + "fault_sink.failures.csv";
    std::remove(fail_path.c_str());

    Report r;
    r.workload = "app";
    r.configName = "cfg";
    const std::string row = failureToJsonLine("app", "cfg", sampleFailure());

    ReportSink sink;
    ASSERT_TRUE(sink.openJson(json_path));
    ASSERT_TRUE(sink.openCsv(csv_path));
    sink.write(r);
    sink.writeFailure(row);
    sink.close();

    // JSONL: report line then failure line, in the same stream.
    std::ifstream jf(json_path);
    std::string l1;
    std::string l2;
    std::string l3;
    ASSERT_TRUE(std::getline(jf, l1));
    ASSERT_TRUE(std::getline(jf, l2));
    EXPECT_FALSE(std::getline(jf, l3));
    EXPECT_EQ(l1, reportToJsonLine(r));
    EXPECT_EQ(l2, row);

    // The CSV holds the Report only, and no failure CSV appears.
    std::ifstream cf(csv_path);
    std::string header;
    std::string data;
    ASSERT_TRUE(std::getline(cf, header));
    ASSERT_TRUE(std::getline(cf, data));
    EXPECT_EQ(data, reportToCsvRow(r));
    EXPECT_FALSE(std::getline(cf, l3));
    EXPECT_FALSE(std::filesystem::exists(fail_path));

    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

// --- error-type plumbing ---------------------------------------------------

TEST(SimErrorTypes, KindNamesAreStable)
{
    EXPECT_STREQ(simErrorKindName(SimErrorKind::RetireStall),
                 "retire_stall");
    EXPECT_STREQ(simErrorKindName(SimErrorKind::CycleBudget),
                 "cycle_budget");
    EXPECT_STREQ(simErrorKindName(SimErrorKind::InvariantViolation),
                 "invariant");
    EXPECT_STREQ(faultKindName(FaultKind::DropFill), "drop_fill");
    EXPECT_STREQ(faultKindName(FaultKind::FreezeRetire), "freeze_retire");
}

TEST(SimErrorTypes, WhatCombinesTheStructuredFields)
{
    SimError e(SimErrorKind::RetireStall, "backend", 42, "stalled", "dump");
    EXPECT_STREQ(e.what(), "[retire_stall] cycle 42, backend: stalled");
    EXPECT_EQ(e.dump(), "dump");
    // SimError is catchable as std::runtime_error (sweep fallback path).
    try {
        throw InvariantViolation("ftq", 7, "bad entry", "");
    } catch (const std::runtime_error& re) {
        EXPECT_NE(std::string(re.what()).find("invariant"),
                  std::string::npos);
    }
}

} // namespace
} // namespace udp
