/**
 * @file
 * In-process half of the repository benchmark (perfbench/README.md).
 *
 * Each subcommand does one unit of a workload's fixed work and prints one
 * JSON object per line on stdout; perfbench/run.py times the process,
 * checks the Report lines against committed digests and derives the
 * metrics. Layers are timed from outside, around calls into their public
 * functions, so nothing in the simulator is patched for measurement.
 *
 *   perfbench_driver setup      --seed S --reps K
 *       ProgramBuilder::build for all ten profiles, once untimed, then K
 *       timed times.
 *   perfbench_driver cycle_loop --seed S [--profile-pairs] [--perturb]
 *                               [--limit N]
 *       ten profiles x {fdip32, udp8k, uftq} at 40K/40K, serially, with
 *       timers around Cpu::Cpu, runUntilRetired and collectReport.
 *   perfbench_driver artifacts  --seed S --out DIR [--perturb]
 *       fig13's 50 points at a tiny window on kJobs threads: an isolated
 *       sweep with a manifest and JSONL+CSV sinks, an in-process pass
 *       with interval stats and a Chrome trace, then a --resume replay.
 *
 * --seed offsets every Profile::seed, so a claim can be checked on
 * Programs not used while writing it. --perturb changes the fdip32
 * configuration so the digest check must report failed operations.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "stats/tracefile.h"
#include "workload/builder.h"
#include "workload/profile.h"

namespace {

using namespace udp;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCycleWarmup = 40'000;
constexpr std::uint64_t kCycleMeasure = 40'000;
constexpr std::uint64_t kArtifactWarmup = 2'000;
constexpr std::uint64_t kArtifactMeasure = 4'000;
/** Interval-row period for the artifacts pass: a tiny window still
 *  yields several rows per point. */
constexpr Cycle kArtifactIntervalCycles = 1'000;
/** Sweep threads / children of the artifacts passes, fixed so runs
 *  compare across hosts. */
constexpr unsigned kJobs = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string command;
    std::uint64_t seed = 0;
    unsigned reps = 5;
    std::size_t limit = 0; ///< 0 = every point
    bool profilePairs = false;
    bool perturb = false;
    std::string outDir;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver setup --seed S --reps K\n"
                 "       perfbench_driver cycle_loop --seed S "
                 "[--profile-pairs] [--perturb] [--limit N]\n"
                 "       perfbench_driver artifacts --seed S --out DIR "
                 "[--perturb]\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char* text)
{
    char* end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        usage();
    }
    return v;
}

Args
parseArgs(int argc, char** argv)
{
    if (argc < 2) {
        usage();
    }
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        bool hasValue = i + 1 < argc;
        if (arg == "--seed" && hasValue) {
            a.seed = parseUnsigned(argv[++i]);
        } else if (arg == "--reps" && hasValue) {
            a.reps = static_cast<unsigned>(parseUnsigned(argv[++i]));
        } else if (arg == "--limit" && hasValue) {
            a.limit = parseUnsigned(argv[++i]);
        } else if (arg == "--out" && hasValue) {
            a.outDir = argv[++i];
        } else if (arg == "--profile-pairs") {
            a.profilePairs = true;
        } else if (arg == "--perturb") {
            a.perturb = true;
        } else {
            usage();
        }
    }
    if (a.reps == 0) {
        usage();
    }
    return a;
}

/** The ten datacenter profiles with every seed offset by @p seed. */
std::vector<Profile>
seededProfiles(std::uint64_t seed)
{
    std::vector<Profile> out = datacenterProfiles();
    for (Profile& p : out) {
        p.seed += seed;
    }
    return out;
}

struct NamedConfig
{
    const char* label;
    SimConfig cfg;
};

/** The fdip32 baseline, nudged off its committed value by --perturb. */
SimConfig
baselineConfig(bool perturb)
{
    SimConfig c = presets::fdipBaseline();
    if (perturb) {
        c.ftqCapacity = 31;
    }
    return c;
}

/** Emits {"kind": ..., <fields>} as one line. */
void
emitLine(const std::string& kind, const std::string& fields)
{
    std::string line = "{\"kind\": \"" + kind + "\"" + fields + "}\n";
    std::fwrite(line.data(), 1, line.size(), stdout);
}

std::string
num(const char* key, double v)
{
    return std::string(", \"") + key + "\": " + formatNumber(v);
}

std::string
str(const char* key, const std::string& v)
{
    return std::string(", \"") + key + "\": \"" + jsonEscape(v) + "\"";
}

int
runSetup(const Args& a)
{
    std::vector<Profile> profiles = seededProfiles(a.seed);
    std::string reps;
    // Rep 0 is untimed: a process's first build pays first-touch page
    // faults, which would double it and swing with the host's memory.
    for (unsigned r = 0; r <= a.reps; ++r) {
        Clock::time_point t0 = Clock::now();
        std::size_t instrs = 0;
        for (const Profile& p : profiles) {
            Program prog = ProgramBuilder::build(p);
            instrs += prog.numInstrs();
        }
        double sec = secondsSince(t0);
        if (instrs == 0) {
            std::fprintf(stderr, "perfbench_driver: empty programs\n");
            return 1;
        }
        if (r > 0) {
            reps += (r == 1 ? "" : ", ") + formatNumber(sec);
        }
    }
    emitLine("setup", ", \"build_s\": [" + reps + "]");
    return 0;
}

/** One cycle_loop point, timed around each public call. */
void
runCyclePoint(const Program& prog, const Profile& p, const NamedConfig& nc,
              bool profiled)
{
    SimConfig cfg = nc.cfg;
    cfg.profile.enabled = profiled;

    Clock::time_point t0 = Clock::now();
    Cpu cpu(prog, cfg);
    double initSec = secondsSince(t0);

    t0 = Clock::now();
    cpu.runUntilRetired(kCycleWarmup);
    double warmupSec = secondsSince(t0);
    std::uint64_t warmupInstr = cpu.retired();
    cpu.clearStats();

    t0 = Clock::now();
    cpu.runUntilRetired(kCycleMeasure);
    double measureSec = secondsSince(t0);

    t0 = Clock::now();
    Report r = collectReport(cpu, p.name, nc.label);
    double collectSec = secondsSince(t0);

    std::string f = str("workload", p.name) + str("config", nc.label) +
                    num("profiled", profiled ? 1 : 0) +
                    num("cpu_init_s", initSec) +
                    num("warmup_s", warmupSec) +
                    num("measure_s", measureSec) +
                    num("collect_s", collectSec) +
                    num("warmup_instr", static_cast<double>(warmupInstr)) +
                    num("measure_instr",
                        static_cast<double>(r.instructions)) +
                    str("report", reportToJsonLine(r));
    if (r.profile) {
        f += num("prof_cycles", static_cast<double>(r.profile->cycles));
        f += num("prof_total_s", r.profile->totalSec);
        std::string phases;
        for (std::size_t ph = 0; ph < obs::kNumProfPhases; ++ph) {
            phases += std::string(ph == 0 ? "" : ", ") + "\"" +
                      obs::profPhaseName(static_cast<obs::ProfPhase>(ph)) +
                      "\": " + formatNumber(r.profile->phaseSec[ph]);
        }
        f += ", \"prof_phase_s\": {" + phases + "}";
    }
    emitLine("point", f);
}

int
runCycleLoop(const Args& a)
{
    std::vector<Profile> profiles = seededProfiles(a.seed);
    const NamedConfig configs[] = {
        {"fdip32", baselineConfig(a.perturb)},
        {"udp8k", presets::udp8k()},
        {"uftq", presets::uftq(UftqMode::AtrAur)},
    };

    Clock::time_point t0 = Clock::now();
    std::vector<Program> programs;
    programs.reserve(profiles.size());
    for (const Profile& p : profiles) {
        programs.push_back(ProgramBuilder::build(p));
    }
    emitLine("build", num("build_s", secondsSince(t0)) +
                          num("warmup_target", kCycleWarmup) +
                          num("measure_target", kCycleMeasure));

    std::size_t done = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (const NamedConfig& nc : configs) {
            if (a.limit != 0 && done == a.limit) {
                return 0;
            }
            runCyclePoint(programs[i], profiles[i], nc, false);
            if (a.profilePairs) {
                runCyclePoint(programs[i], profiles[i], nc, true);
            }
            std::fflush(stdout);
            ++done;
        }
    }
    return 0;
}

/** Writes the Reports of @p results to DIR/<stem>.jsonl and .csv. */
bool
writeReports(const std::string& stem, const std::vector<JobResult>& results)
{
    ReportSink sink;
    if (!sink.openJson(stem + ".jsonl") || !sink.openCsv(stem + ".csv")) {
        return false;
    }
    for (const JobResult& jr : results) {
        if (jr.ok) {
            sink.write(jr.report);
        }
    }
    sink.close();
    return true;
}

int
runArtifacts(const Args& a)
{
    if (a.outDir.empty()) {
        usage();
    }
    RunOptions window;
    window.warmupInstrs = kArtifactWarmup;
    window.measureInstrs = kArtifactMeasure;

    // fig13's five configurations per app, in the bench's job order.
    std::vector<SweepJob> jobs;
    for (const Profile& p : seededProfiles(a.seed)) {
        jobs.push_back({p, baselineConfig(a.perturb), window, "fdip32"});
        jobs.push_back({p, presets::udp8k(), window, "udp8k"});
        jobs.push_back({p, presets::udpInfinite(), window, "inf"});
        jobs.push_back({p, presets::bigIcache40k(), window, "ic40k"});
        jobs.push_back({p, presets::eip8k(), window, "eip"});
    }
    const std::string dir = a.outDir + "/";
    const std::string manifest = dir + "fig13.manifest.jsonl";

    // Pass 1: isolated sweep, checkpointed, with report sinks.
    SweepOptions iso;
    iso.numThreads = kJobs;
    iso.quiet = true;
    iso.isolate = true;
    iso.memLimitBytes = std::uint64_t{4096} << 20;
    iso.manifestPath = manifest;
    Clock::time_point t0 = Clock::now();
    std::vector<JobResult> fresh = runSweepChecked(jobs, iso);
    double sweepSec = secondsSince(t0);
    t0 = Clock::now();
    bool sinkOk = writeReports(dir + "fig13", fresh);
    double sinkSec = secondsSince(t0);

    // Pass 2: in process, with interval stats and a Chrome trace
    // (telemetry snapshots do not cross the fork).
    std::vector<SweepJob> traced = jobs;
    for (SweepJob& j : traced) {
        j.config.telemetry.enabled = true;
        j.config.telemetry.trace = true;
        j.config.telemetry.intervalCycles = kArtifactIntervalCycles;
    }
    SweepOptions inproc;
    inproc.numThreads = kJobs;
    inproc.quiet = true;
    t0 = Clock::now();
    std::vector<JobResult> tel = runSweepChecked(traced, inproc);
    double telSweepSec = secondsSince(t0);

    t0 = Clock::now();
    TelemetrySink tsink;
    bool telOk = tsink.openCsv(dir + "intervals.csv") &&
                 tsink.openJson(dir + "intervals.jsonl");
    std::vector<TraceJob> traceJobs;
    std::size_t intervalRows = 0;
    std::size_t traceEvents = 0;
    for (std::size_t i = 0; i < tel.size(); ++i) {
        if (!tel[i].ok || !tel[i].report.telemetry) {
            continue;
        }
        const TelemetrySnapshot& snap = *tel[i].report.telemetry;
        tsink.writeRun(jobs[i].profile.name, jobs[i].label, snap);
        intervalRows += snap.intervals.size();
        traceEvents += snap.events.size();
        traceJobs.push_back({jobs[i].profile.name + "/" + jobs[i].label,
                             tel[i].report.telemetry, nullptr});
    }
    tsink.close();
    double telWriteSec = secondsSince(t0);
    t0 = Clock::now();
    bool traceOk = writeChromeTrace(dir + "trace.json", traceJobs);
    double traceWriteSec = secondsSince(t0);

    // Pass 3: --resume replay of pass 1's manifest through the same sinks.
    SweepOptions resume = iso;
    resume.resume = true;
    t0 = Clock::now();
    std::vector<JobResult> replay = runSweepChecked(jobs, resume);
    double replaySec = secondsSince(t0);
    bool replaySinkOk = writeReports(dir + "fig13.resume", replay);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        auto line = [](const JobResult& jr) {
            return jr.ok ? reportToJsonLine(jr.report) : std::string();
        };
        emitLine("point",
                 str("workload", jobs[i].profile.name) +
                     str("config", jobs[i].label) +
                     str("fresh", line(fresh[i])) +
                     str("error", fresh[i].ok ? "" : fresh[i].error.kind) +
                     str("telemetry", line(tel[i])) +
                     str("replay", line(replay[i])) +
                     num("resumed", replay[i].resumed ? 1 : 0));
    }
    emitLine("artifacts",
             num("warmup_target", kArtifactWarmup) +
                 num("measure_target", kArtifactMeasure) +
                 num("jobs", kJobs) + num("sweep_s", sweepSec) +
                 num("sink_write_s", sinkSec) +
                 num("telemetry_sweep_s", telSweepSec) +
                 num("telemetry_write_s", telWriteSec) +
                 num("trace_write_s", traceWriteSec) +
                 num("replay_s", replaySec) +
                 num("interval_rows", static_cast<double>(intervalRows)) +
                 num("trace_events", static_cast<double>(traceEvents)) +
                 num("writes_ok",
                     sinkOk && telOk && traceOk && replaySinkOk ? 1 : 0));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a = parseArgs(argc, argv);
    try {
        if (a.command == "setup") {
            return runSetup(a);
        }
        if (a.command == "cycle_loop") {
            return runCycleLoop(a);
        }
        if (a.command == "artifacts") {
            return runArtifacts(a);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    usage();
}
