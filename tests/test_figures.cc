/**
 * @file
 * Tests for the figure catalog (bench/catalog.h): the dedupe key (the
 * defaulted operator== of SimConfig, Profile and RunOptions), the point
 * union, deduplicated-vs-reference table equality, and the `figures`
 * driver's rejection of malformed command lines and UDP_BENCH_FAULT
 * specs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog.h"

namespace udp {
namespace {

using bench::Figure;
using bench::PointUnion;

TEST(DedupeKey, EqualPresetsCompareEqual)
{
    EXPECT_TRUE(presets::fdipWithFtq(32) == presets::fdipBaseline());
    SimConfig udp = presets::udp8k();
    udp.bpu.btb.numEntries = 8192;
    EXPECT_TRUE(udp == presets::udp8k());
    EXPECT_TRUE(profileByName("mysql") == profileByName("mysql"));
    EXPECT_TRUE(RunOptions{} == RunOptions{});
}

TEST(DedupeKey, EveryKnobTheCatalogVariesBreaksEquality)
{
    const std::vector<std::pair<const char*, std::function<void(SimConfig&)>>>
        knobs = {
            {"btb.numEntries",
             [](SimConfig& c) { c.bpu.btb.numEntries = 1024; }},
            {"ftqCapacity", [](SimConfig& c) { c.ftqCapacity = 16; }},
            {"ftqPhysical", [](SimConfig& c) { c.ftqPhysical = 256; }},
            {"uftq.mode", [](SimConfig& c) { c.uftq.mode = UftqMode::Atr; }},
            {"udpEnabled", [](SimConfig& c) { c.udpEnabled = true; }},
            {"usefulSet.infiniteStorage",
             [](SimConfig& c) { c.udp.usefulSet.infiniteStorage = true; }},
            {"usefulSet.bits1",
             [](SimConfig& c) { c.udp.usefulSet.bits1 = 18 * 1024; }},
            {"usefulSet.bits2",
             [](SimConfig& c) { c.udp.usefulSet.bits2 = 64; }},
            {"usefulSet.bits4",
             [](SimConfig& c) { c.udp.usefulSet.bits4 = 64; }},
            {"usefulSet.coalesceBufferSize",
             [](SimConfig& c) { c.udp.usefulSet.coalesceBufferSize = 1; }},
            {"confidence.threshold",
             [](SimConfig& c) { c.udp.confidence.threshold = 4; }},
            {"seniority.flushPolicy",
             [](SimConfig& c) {
                 c.udp.seniority.flushPolicy = SftqFlushPolicy::DropYounger;
             }},
            {"l1iPrefetchDemoteL2",
             [](SimConfig& c) { c.mem.l1iPrefetchDemoteL2 = false; }},
            {"l1iSize", [](SimConfig& c) { c.mem.l1iSize = 40 * 1024; }},
            {"l1iAssoc", [](SimConfig& c) { c.mem.l1iAssoc = 10; }},
            {"perfectIcache",
             [](SimConfig& c) { c.mem.perfectIcache = true; }},
            {"eipEnabled", [](SimConfig& c) { c.eipEnabled = true; }},
        };
    for (const auto& [name, change] : knobs) {
        SimConfig c = presets::fdipBaseline();
        change(c);
        EXPECT_FALSE(c == presets::fdipBaseline()) << name;
    }
}

TEST(DedupeKey, ProfilesDifferingOnlyInSeedAreUnequal)
{
    Profile a = profileByName("clang");
    Profile b = a;
    b.seed += 1;
    EXPECT_FALSE(a == b);
}

TEST(FigureCatalog, UnionDedupesTheRequestedPoints)
{
    RunOptions o;
    o.warmupInstrs = 300;
    o.measureInstrs = 600;
    const std::vector<Figure> figs = bench::figureCatalog(o);
    ASSERT_EQ(figs.size(), 15u);
    const PointUnion u = bench::unionOf(figs);

    std::size_t requested = 0;
    for (std::size_t f = 0; f < figs.size(); ++f) {
        ASSERT_EQ(u.jobOf[f].size(), figs[f].points.size());
        for (std::size_t k = 0; k < figs[f].points.size(); ++k) {
            const SweepJob& p = figs[f].points[k];
            const SweepJob& j = u.jobs.at(u.jobOf[f][k]);
            EXPECT_TRUE(p.profile == j.profile && p.config == j.config &&
                        p.opts == j.opts)
                << figs[f].name << " point " << k;
        }
        requested += figs[f].points.size();
    }
    EXPECT_EQ(requested, 1115u);
    EXPECT_EQ(u.jobs.size(), 295u);
    for (std::size_t i = 0; i < u.jobs.size(); ++i) {
        for (std::size_t j = i + 1; j < u.jobs.size(); ++j) {
            EXPECT_FALSE(u.jobs[i].profile == u.jobs[j].profile &&
                         u.jobs[i].config == u.jobs[j].config &&
                         u.jobs[i].opts == u.jobs[j].opts)
                << "jobs " << i << " and " << j;
        }
    }
}

TEST(FigureCatalog, RunAllFigsListsEveryFigureInCatalogOrder)
{
    std::ifstream in(UDP_RUN_ALL_FIGS);
    ASSERT_TRUE(in) << UDP_RUN_ALL_FIGS;
    std::stringstream text;
    text << in.rdbuf();
    const std::string script = text.str();
    const std::string key = "FIGURES=\"";
    const std::size_t begin = script.find(key);
    ASSERT_NE(begin, std::string::npos);
    const std::size_t end = script.find('"', begin + key.size());
    std::istringstream list(
        script.substr(begin + key.size(), end - begin - key.size()));

    std::vector<std::string> listed;
    for (std::string name; list >> name;) {
        listed.push_back(name);
    }
    std::vector<std::string> catalog;
    for (const Figure& f : bench::figureCatalog(RunOptions{})) {
        catalog.push_back(f.name);
    }
    EXPECT_EQ(listed, catalog);
}

TEST(FigureCatalog, DedupedTablesMatchUndedupedRuns)
{
    RunOptions o;
    o.warmupInstrs = 300;
    o.measureInstrs = 600;
    const std::vector<Figure> figs = bench::figureCatalog(o);
    const PointUnion u = bench::unionOf(figs);
    SweepOptions quiet;
    quiet.quiet = true;
    const std::vector<JobResult> results = runSweepChecked(u.jobs, quiet);

    // Reference: every requested point run on its own, under its own
    // label, with no deduplication.
    for (std::size_t f = 0; f < figs.size(); ++f) {
        const Figure& fig = figs[f];
        const std::vector<JobResult> ref =
            runSweepChecked(fig.points, quiet);
        for (const JobResult& r : ref) {
            ASSERT_TRUE(r.ok) << fig.name << ": " << r.error.message;
        }
        const std::vector<JobResult> deduped =
            bench::figureResults(fig, u.jobOf[f], results);
        EXPECT_EQ(fig.render(deduped), fig.render(ref)) << fig.name;
        if (fig.artifacts) {
            const std::vector<Report> a = fig.artifacts(deduped);
            const std::vector<Report> b = fig.artifacts(ref);
            ASSERT_EQ(a.size(), b.size()) << fig.name;
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(reportToJsonLine(a[i]), reportToJsonLine(b[i]))
                    << fig.name;
            }
        }
        for (std::size_t k = 0; k < ref.size(); ++k) {
            EXPECT_EQ(reportToJsonLine(deduped[k].report),
                      reportToJsonLine(ref[k].report))
                << fig.name << " point " << k;
        }
    }
}

/** Runs the `figures` driver on @p args: {exit code, stdout, stderr}. */
std::tuple<int, std::string, std::string>
runDriver(std::vector<std::string> args)
{
    args.insert(args.begin(), "figures");
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = bench::figuresMain(static_cast<int>(argv.size()), argv.data());
    std::string out = testing::internal::GetCapturedStdout();
    return {rc, out, testing::internal::GetCapturedStderr()};
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) {
        lines.push_back(l);
    }
    return lines;
}

TEST(FiguresCli, OutDirWritesEveryFigureAndOneOutcomeLineEach)
{
    setenv("UDP_BENCH_WARMUP", "300", 1);
    setenv("UDP_BENCH_INSTR", "600", 1);
    const std::string dir = ::testing::TempDir() + "udp_figures_out";
    std::filesystem::remove_all(dir);
    // Selected out of catalog order: they still run in catalog order.
    auto [rc, out, err] =
        runDriver({"fig13_udp", "fig01_perfect_icache", "--out-dir", dir});
    unsetenv("UDP_BENCH_WARMUP");
    unsetenv("UDP_BENCH_INSTR");

    EXPECT_EQ(rc, 0) << err;
    EXPECT_EQ(out, "=== fig01_perfect_icache ===\n"
                   "ok       fig01_perfect_icache\n"
                   "=== fig13_udp ===\n"
                   "ok       fig13_udp\n");
    EXPECT_NE(err.find("70 points requested, 60 distinct"),
              std::string::npos)
        << err;
    const std::vector<std::string> table =
        readLines(dir + "/fig13_udp.txt");
    // Banner, header and rule, ten apps, geomean.
    ASSERT_EQ(table.size(), 4u + 2u + 11u);
    EXPECT_EQ(table[1], "Figure 13 — UDP speedup (%) over FDIP baseline vs "
                        "ISO-storage baselines");
    EXPECT_EQ(table[2], "warmup=300 measured=600 instructions per point "
                        "(override: UDP_BENCH_WARMUP / UDP_BENCH_INSTR)");
    EXPECT_EQ(table.back().substr(0, 7), "geomean");
    // Every point under the requesting figure's own label: fig13's
    // baseline is the same job as fig01's.
    const std::vector<std::string> fig13 =
        readLines(dir + "/fig13_udp.jsonl");
    ASSERT_EQ(fig13.size(), 50u);
    EXPECT_NE(fig13[1].find("\"config\":\"udp8k\""), std::string::npos);
    EXPECT_EQ(readLines(dir + "/fig13_udp.csv").size(), 51u);
    EXPECT_EQ(readLines(dir + "/fig01_perfect_icache.jsonl").size(), 20u);
    EXPECT_EQ(readLines(dir + "/figures.manifest.jsonl").size(), 60u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/fig13_udp.failures.csv"));
    std::filesystem::remove_all(dir);
}

TEST(FiguresCli, UnwritableTelemetryOrProfileFileExitsOne)
{
    setenv("UDP_BENCH_WARMUP", "300", 1);
    setenv("UDP_BENCH_INSTR", "600", 1);
    const std::string dir = ::testing::TempDir() + "udp_figures_unwritable";
    std::filesystem::remove_all(dir);
    // A directory where the profile rows go: fopen fails even for root,
    // which ignores permission bits.
    std::filesystem::create_directories(dir + "/figures.profile.jsonl");
    const std::string missing = dir + "/no/such/dir";
    auto [rc, out, err] = runDriver(
        {"fig01_perfect_icache", "--out-dir", dir, "--profile",
         "--interval-stats", missing + "/i.csv", "--trace-out",
         missing + "/t.json"});
    unsetenv("UDP_BENCH_WARMUP");
    unsetenv("UDP_BENCH_INSTR");

    EXPECT_EQ(rc, 1) << err;
    // Every figure file was written; only the telemetry and profile
    // files were not, and each says so.
    EXPECT_NE(out.find("ok       fig01_perfect_icache"), std::string::npos)
        << out;
    EXPECT_NE(err.find("cannot open telemetry CSV"), std::string::npos)
        << err;
    EXPECT_NE(err.find("failed to write trace " + missing + "/t.json"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("cannot open profile rows " + dir +
                       "/figures.profile.jsonl"),
              std::string::npos)
        << err;
    std::filesystem::remove_all(dir);
}

void
expectRejected(const std::vector<std::string>& args, const std::string& why)
{
    auto [rc, out, err] = runDriver(args);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find(why), std::string::npos) << err;
    EXPECT_NE(err.find("usage: figures"), std::string::npos) << err;
}

TEST(FiguresCli, RejectsUnknownFlag)
{
    expectRejected({"fig13_udp", "--jsn", "x.jsonl"},
                   "unknown option '--jsn'");
    expectRejected({"fig13_udp", "--coordinator", "q"},
                   "unknown option '--coordinator'");
    expectRejected({"fig13_udp", "--worker-of", "w"},
                   "unknown option '--worker-of'");
}

TEST(FiguresCli, RejectsUnknownFigure)
{
    expectRejected({"fig13_udp", "fig99_missing"},
                   "unknown figure 'fig99_missing'");
}

TEST(FiguresCli, RejectsFlagMissingItsValue)
{
    expectRejected({"fig13_udp", "--out-dir"}, "--out-dir needs a value");
    expectRejected({"--out-dir", "--isolate"}, "--out-dir needs a value");
}

TEST(FiguresCli, RejectsNonNumericNumber)
{
    expectRejected({"fig13_udp", "--wall-sec", "abc"},
                   "malformed number 'abc' for --wall-sec");
    expectRejected({"fig13_udp", "--cpu-sec", "-5"},
                   "malformed number '-5' for --cpu-sec");
    expectRejected({"fig13_udp", "--telemetry-interval", "0"},
                   "--telemetry-interval must be at least 1 cycle");
}

TEST(FiguresCli, RejectsTrailingJunkInNumber)
{
    expectRejected({"fig13_udp", "--mem-mb", "4g"},
                   "malformed number '4g' for --mem-mb");
    expectRejected({"fig13_udp", "--telemetry-interval", "500x"},
                   "malformed number '500x' for --telemetry-interval");
}

TEST(FiguresCli, RejectsIsolateWithTelemetryOrProfile)
{
    setenv("UDP_BENCH_WARMUP", "300", 1);
    setenv("UDP_BENCH_INSTR", "600", 1);
    const std::string dir = ::testing::TempDir() + "udp_figures_isolate";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // An earlier run's files at every path the flags name.
    const std::vector<std::string> files = {"i.csv", "i.jsonl", "t.json",
                                            "figures.profile.jsonl"};
    for (const std::string& f : files) {
        std::ofstream(dir + "/" + f) << "earlier " << f << "\n";
    }
    const std::string why = "--interval-stats, --trace-out and --profile "
                            "are rejected with --isolate";
    for (const std::vector<std::string>& flags :
         std::vector<std::vector<std::string>>{
             {"--interval-stats", dir + "/i.csv"},
             {"--trace-out", dir + "/t.json"},
             {"--profile"}}) {
        std::vector<std::string> args = {"fig01_perfect_icache", "--isolate",
                                         "--out-dir", dir};
        args.insert(args.end(), flags.begin(), flags.end());
        expectRejected(args, why);
    }
    unsetenv("UDP_BENCH_WARMUP");
    unsetenv("UDP_BENCH_INSTR");
    for (const std::string& f : files) {
        std::ifstream in(dir + "/" + f);
        std::stringstream bytes;
        bytes << in.rdbuf();
        EXPECT_EQ(bytes.str(), "earlier " + f + "\n") << f;
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/figures.manifest.jsonl"));
    std::filesystem::remove_all(dir);
}

/** Parses @p args (after the program name) into @p s and @p names. */
void
parseArgs(std::vector<std::string> args, bench::SinkArgs* s,
          std::vector<std::string>* names)
{
    args.insert(args.begin(), "figures");
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    std::string error;
    ASSERT_TRUE(bench::parseSinkArgs(static_cast<int>(argv.size()),
                                     argv.data(), s, names, &error))
        << error;
}

TEST(FiguresCli, ParsesEveryFlag)
{
    // The isolation flags, and then the telemetry and profile flags that
    // --isolate rejects.
    bench::SinkArgs s;
    std::vector<std::string> names;
    parseArgs({"fig03_ftq_sweep", "--out-dir", "out", "--isolate",
               "--resume", "--mem-mb", "2048", "--cpu-sec", "60",
               "--wall-sec", "1.5", "fig13_udp"},
              &s, &names);
    EXPECT_EQ(names, (std::vector<std::string>{"fig03_ftq_sweep",
                                               "fig13_udp"}));
    EXPECT_EQ(s.outDir, "out");
    EXPECT_EQ(s.manifestPath(), "out/figures.manifest.jsonl");
    EXPECT_TRUE(s.isolate && s.resume);
    EXPECT_EQ(s.memLimitMb, 2048u);
    EXPECT_EQ(s.cpuLimitSec, 60u);
    EXPECT_DOUBLE_EQ(s.wallLimitSec, 1.5);

    bench::SinkArgs t;
    parseArgs({"--interval-stats", "i.csv", "--trace-out", "t.json",
               "--telemetry-interval", "500", "--profile"},
              &t, &names);
    EXPECT_TRUE(t.profile);
    EXPECT_EQ(t.intervalPath, "i.csv");
    EXPECT_EQ(t.tracePath, "t.json");
    EXPECT_EQ(t.telemetryInterval, 500u);
}

/**
 * Applies UDP_BENCH_FAULT=@p spec to three fault-free jobs. Returns the
 * index of the job that got a fault (3 when none did), its trigger cycle
 * in @p cycle and the hook's stderr in @p err.
 */
std::size_t
faultedJob(const char* spec, Cycle* cycle, std::string* err)
{
    std::vector<SweepJob> jobs(
        3, SweepJob{profileByName("mysql"), presets::fdipBaseline(), {}, "p"});
    setenv("UDP_BENCH_FAULT", spec, 1);
    testing::internal::CaptureStderr();
    bench::applyEnvFault(&jobs);
    *err = testing::internal::GetCapturedStderr();
    unsetenv("UDP_BENCH_FAULT");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].config.fault.kind != FaultKind::None) {
            EXPECT_EQ(jobs[i].config.fault.kind, FaultKind::FreezeRetire);
            *cycle = jobs[i].config.fault.triggerCycle;
            return i;
        }
    }
    return jobs.size();
}

TEST(BenchFault, EnvSpecInjectsTheNamedJobAtTheNamedCycle)
{
    Cycle cycle = 0;
    std::string err;
    EXPECT_EQ(faultedJob("freeze_retire", &cycle, &err), 0u);
    EXPECT_EQ(cycle, 10'000u);
    EXPECT_EQ(faultedJob("freeze_retire:2", &cycle, &err), 2u);
    EXPECT_EQ(cycle, 10'000u);
    EXPECT_EQ(faultedJob("freeze_retire:1:500", &cycle, &err), 1u);
    EXPECT_EQ(cycle, 500u);
    EXPECT_NE(err.find("injecting freeze_retire into job 1"),
              std::string::npos)
        << err;
}

TEST(BenchFault, MalformedOrOutOfRangeSpecInjectsNothing)
{
    Cycle cycle = 0;
    std::string err;
    for (const char* spec :
         {"freeze_retire:abc:xyz", "freeze_retire:-1", "freeze_retire:",
          "freeze_retire:1:", "freeze_retire:1:9x", "freeze_retire: 1"}) {
        EXPECT_EQ(faultedJob(spec, &cycle, &err), 3u) << spec;
        EXPECT_NE(err.find("malformed number"), std::string::npos)
            << spec << ": " << err;
    }
    EXPECT_EQ(faultedJob("freeze_retire:3", &cycle, &err), 3u);
    EXPECT_NE(err.find("past the last job"), std::string::npos) << err;
    EXPECT_EQ(faultedJob("no_such_kind:1", &cycle, &err), 3u);
    EXPECT_NE(err.find("unknown kind"), std::string::npos) << err;
}

} // namespace
} // namespace udp
