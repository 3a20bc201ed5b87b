/**
 * @file
 * Shared helpers for the per-figure benchmark binaries.
 *
 * Every binary regenerates one table/figure of the paper and prints the
 * same rows/series. Data points run through the parallel sweep runner
 * (sim/sweep.h): instruction counts scale via UDP_BENCH_WARMUP /
 * UDP_BENCH_INSTR, worker count via UDP_JOBS, and `--json out.jsonl` /
 * `--csv out.csv` write machine-readable artifacts (stats/sink.h). See
 * docs/EXPERIMENT_GUIDE.md for the full workflow.
 */

#ifndef UDP_BENCH_BENCH_UTIL_H
#define UDP_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

#include "obs/eventlog.h"
#include "sim/faultinject.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"
#include "stats/sink.h"
#include "stats/table.h"
#include "stats/tracefile.h"

namespace udp::bench {

/** Default measurement window (kept modest; scale via env for fidelity). */
inline RunOptions
defaultOptions()
{
    RunOptions o;
    o.warmupInstrs = 250'000;
    o.measureInstrs = 400'000;
    return envRunOptions(o);
}

/** FTQ depths used by the Section III sweeps. */
inline const std::vector<unsigned>&
sweepDepths()
{
    static const std::vector<unsigned> d = {8, 16, 24, 32, 48, 64, 96, 128};
    return d;
}

/** Coarser sweep for finding each app's optimal (OPT oracle) depth. */
inline const std::vector<unsigned>&
optSearchDepths()
{
    static const std::vector<unsigned> d = {8, 16, 24, 32, 48, 64, 96, 128};
    return d;
}

/** Directory bench binaries write failure diagnostic dumps into. */
inline const char* kFailureDumpDir = "failure_dumps";

/**
 * Artifact destinations and execution-mode flags shared by every bench:
 *   --json PATH / --csv PATH    machine-readable artifacts (stats/sink.h)
 *   --isolate                   run each point in a forked child process
 *   --mem-mb N / --cpu-sec N /  per-child rlimits and wall-clock deadline
 *   --wall-sec X                (isolate only; mem defaults to 4096 MB)
 *   --manifest PATH             checkpoint manifest (default: derived from
 *                               the CSV/JSON path)
 *   --resume                    skip points the manifest records as done
 *   --interval-stats PATH       telemetry interval rows as CSV (a sibling
 *                               ".jsonl" with interval + summary rows is
 *                               written next to it; docs/TELEMETRY.md)
 *   --trace-out PATH            Chrome-trace JSON of every job (open in
 *                               chrome://tracing or ui.perfetto.dev)
 *   --telemetry-interval N      interval-row period in cycles
 */
struct SinkArgs
{
    std::string jsonPath;
    std::string csvPath;
    bool isolate = false;
    bool resume = false;
    std::string manifestPath;
    std::uint64_t memLimitMb = 0;  ///< 0 = default (4096 when isolating)
    std::uint64_t cpuLimitSec = 0; ///< 0 = no RLIMIT_CPU
    double wallLimitSec = 0.0;     ///< 0 = no wall deadline

    std::string intervalPath;      ///< --interval-stats CSV destination
    std::string tracePath;         ///< --trace-out Chrome-trace destination
    std::uint64_t telemetryInterval = 0; ///< 0 = TelemetryConfig default

    /** --profile: enable the cycle-loop self-profiler on every job and
     *  emit per-component host-time attribution (stdout summary + a
     *  "<artifact-stem>.profile.jsonl" sidecar of profile_summary rows;
     *  Report/CSV artifacts stay byte-identical). */
    bool profile = false;

    // --- distributed execution (docs/ROBUSTNESS.md §10) ----------------
    /** --coordinator DIR: serve this bench's batch as a distributed
     *  sweep through the shared queue directory DIR instead of running
     *  it in-process. Artifacts are written by this process exactly as
     *  in local mode. */
    std::string coordinator;
    /** --worker-of DIR: run as a worker for a coordinator started
     *  from the SAME bench binary with the SAME arguments/environment
     *  (both sides must expand an identical job list). The process
     *  exits when the sweep drains. */
    std::string workerOf;

    /** Telemetry is on whenever any telemetry artifact was requested. */
    bool telemetryEnabled() const
    {
        return !intervalPath.empty() || !tracePath.empty();
    }
};

/**
 * Extracts the shared flags from argv; other arguments are left for the
 * binary's own positional parsing via @p positional.
 */
inline SinkArgs
parseSinkArgs(int argc, char** argv,
              std::vector<std::string>* positional = nullptr)
{
    SinkArgs s;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            s.jsonPath = argv[++i];
        } else if (a == "--csv" && i + 1 < argc) {
            s.csvPath = argv[++i];
        } else if (a == "--isolate") {
            s.isolate = true;
        } else if (a == "--resume") {
            s.resume = true;
        } else if (a == "--manifest" && i + 1 < argc) {
            s.manifestPath = argv[++i];
        } else if (a == "--mem-mb" && i + 1 < argc) {
            s.memLimitMb = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--cpu-sec" && i + 1 < argc) {
            s.cpuLimitSec = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--wall-sec" && i + 1 < argc) {
            s.wallLimitSec = std::strtod(argv[++i], nullptr);
        } else if (a == "--interval-stats" && i + 1 < argc) {
            s.intervalPath = argv[++i];
        } else if (a == "--trace-out" && i + 1 < argc) {
            s.tracePath = argv[++i];
        } else if (a == "--telemetry-interval" && i + 1 < argc) {
            s.telemetryInterval = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--profile") {
            s.profile = true;
        } else if (a == "--coordinator" && i + 1 < argc) {
            s.coordinator = argv[++i];
        } else if (a == "--worker-of" && i + 1 < argc) {
            s.workerOf = argv[++i];
        } else if (positional != nullptr) {
            positional->push_back(std::move(a));
        }
    }
    return s;
}

/**
 * The checkpoint manifest path for @p args: explicit --manifest wins,
 * else it is derived from the CSV (or JSON) artifact path by replacing
 * the extension with ".manifest.jsonl". "" when no artifact is requested
 * (there is nothing durable to resume into).
 */
inline std::string
defaultManifestPath(const SinkArgs& args)
{
    if (!args.manifestPath.empty()) {
        return args.manifestPath;
    }
    std::string base = !args.csvPath.empty() ? args.csvPath : args.jsonPath;
    if (base.empty()) {
        return "";
    }
    for (const char* ext : {".csv", ".jsonl", ".json"}) {
        std::string e = ext;
        if (base.size() > e.size() &&
            base.compare(base.size() - e.size(), e.size(), e) == 0) {
            base.erase(base.size() - e.size());
            break;
        }
    }
    return base + ".manifest.jsonl";
}

/**
 * Test hook: UDP_BENCH_FAULT="kind[:index[:cycle]]" injects the named
 * fault (sim/faultinject.h) into one job of the batch — job @c index
 * (default 0) at trigger cycle @c cycle (default 10000). Lets CI and the
 * docs demonstrate crash containment on a real bench without patching it.
 */
inline void
applyEnvFault(std::vector<SweepJob>* jobs)
{
    const char* spec = std::getenv("UDP_BENCH_FAULT");
    if (spec == nullptr || *spec == '\0' || jobs->empty()) {
        return;
    }
    std::string kind = spec;
    std::size_t index = 0;
    Cycle cycle = 10'000;
    std::size_t colon = kind.find(':');
    if (colon != std::string::npos) {
        std::string rest = kind.substr(colon + 1);
        kind.erase(colon);
        std::size_t colon2 = rest.find(':');
        if (colon2 != std::string::npos) {
            cycle = std::strtoull(rest.c_str() + colon2 + 1, nullptr, 10);
            rest.erase(colon2);
        }
        index = std::strtoull(rest.c_str(), nullptr, 10);
    }
    FaultKind fk = FaultKind::None;
    if (!faultKindFromName(kind, &fk)) {
        std::fprintf(stderr, "[bench] UDP_BENCH_FAULT: unknown kind \"%s\"\n",
                     kind.c_str());
        return;
    }
    if (index >= jobs->size()) {
        index = jobs->size() - 1;
    }
    SweepJob& job = (*jobs)[index];
    job.config.fault.kind = fk;
    job.config.fault.triggerCycle = cycle;
    std::fprintf(stderr,
                 "[bench] UDP_BENCH_FAULT: injecting %s into job %zu "
                 "(\"%s\") at cycle %llu\n",
                 faultKindName(fk), index, job.label.c_str(),
                 static_cast<unsigned long long>(cycle));
}

/**
 * Enables telemetry (stats/telemetry.h) on every job when @p args
 * requested a telemetry artifact. Process-isolated sweeps only ship the
 * serialized Report over the result pipe, so snapshots cannot cross the
 * fork boundary: --isolate wins and telemetry is skipped with a warning.
 */
inline void
applyTelemetry(std::vector<SweepJob>* jobs, const SinkArgs& args)
{
    if (!args.telemetryEnabled()) {
        return;
    }
    if (args.isolate) {
        std::fprintf(stderr,
                     "[bench] --interval-stats/--trace-out ignored with "
                     "--isolate: telemetry snapshots do not cross the "
                     "process boundary\n");
        return;
    }
    for (SweepJob& job : *jobs) {
        job.config.telemetry.enabled = true;
        job.config.telemetry.trace = !args.tracePath.empty();
        if (args.telemetryInterval != 0) {
            job.config.telemetry.intervalCycles = args.telemetryInterval;
        }
    }
}

/**
 * Enables the cycle-loop self-profiler (obs/profiler.h) on every job when
 * --profile was passed. Same fork-boundary caveat as telemetry: snapshots
 * cannot cross the --isolate result pipe, so isolation wins.
 */
inline void
applyProfile(std::vector<SweepJob>* jobs, const SinkArgs& args)
{
    if (!args.profile) {
        return;
    }
    if (args.isolate) {
        std::fprintf(stderr,
                     "[bench] --profile ignored with --isolate: profiler "
                     "snapshots do not cross the process boundary\n");
        return;
    }
    for (SweepJob& job : *jobs) {
        job.config.profile.enabled = true;
    }
}

/**
 * Fault-tolerant sweep used by every bench: a crashing or hanging point
 * never aborts the figure. Failed points get diagnostic dumps under
 * kFailureDumpDir and surface through writeArtifactsChecked()'s exit
 * code and failure rows. With @p args, the shared execution-mode flags
 * apply: --isolate forks each point (default 4096 MB RLIMIT_AS),
 * --resume replays completed points from the checkpoint manifest, and
 * SIGINT/SIGTERM drain in-flight points before exiting.
 */
/** Shard-manifest directory paired with the checkpoint manifest. */
inline std::string
shardDirOf(const SinkArgs& args)
{
    std::string m = defaultManifestPath(args);
    return m.empty() ? std::string() : m + ".shards";
}

/**
 * --worker-of: the worker half of a distributed bench run. Claims jobs
 * from the coordinator, executes them through the same per-job path as
 * the in-process engine, and exits the process when the sweep drains
 * (0), the queue is lost after flushing locally (3), or the queue
 * directory cannot be read (2). Never returns.
 */
[[noreturn]] inline void
runBenchWorker(const std::vector<SweepJob>& jobs, const SinkArgs& args)
{
    FsWorkQueue q(args.workerOf);
    std::string err;
    if (!q.connect(&err)) {
        std::fprintf(stderr, "[bench] --worker-of %s: %s\n",
                     args.workerOf.c_str(), err.c_str());
        std::exit(2);
    }
    WorkerOptions wo;
    wo.name = "w" + std::to_string(
                        std::chrono::steady_clock::now()
                            .time_since_epoch()
                            .count() %
                        1'000'000);
    if (const char* n = std::getenv("UDP_WORKER_NAME")) {
        wo.name = n;
    }
    wo.shardDir = shardDirOf(args);
    wo.exec.dumpDir = kFailureDumpDir;
    wo.exec.isolate = args.isolate;
    if (args.isolate) {
        wo.exec.memLimitBytes =
            (args.memLimitMb == 0 ? 4096 : args.memLimitMb) << 20;
        wo.exec.cpuLimitSec = args.cpuLimitSec;
        wo.exec.wallLimitSec = args.wallLimitSec;
    }
    if (const char* d = std::getenv("UDP_WORKER_DELAY_MS")) {
        wo.jobDelayMs =
            static_cast<unsigned>(std::strtoul(d, nullptr, 10));
    }
    WorkerSummary s = runSweepWorker(q, jobs, wo);
    if (s.executed != 0 || s.flushedLocal != 0) {
        obs::Event(obs::LogLevel::Info, wo.name, "worker_summary")
            .u64("executed", s.executed)
            .u64("recorded", s.completed)
            .u64("duplicates", s.duplicates)
            .u64("flushed_local", s.flushedLocal)
            .emit();
    }
    std::exit(s.queueLost ? 3 : 0);
}

/** --coordinator: serve the batch to workers; returns ordered results. */
inline std::vector<JobResult>
runBenchCoordinated(std::vector<SweepJob> jobs, const SinkArgs& args)
{
    CoordinatorOptions co;
    if (const char* n = std::getenv("UDP_SWEEP_NAME")) {
        co.name = n;
    } else {
        co.name = "bench";
    }
    co.endpoint = args.coordinator;
    co.manifestPath = defaultManifestPath(args);
    co.resume = args.resume && !co.manifestPath.empty();
    co.shardDir = shardDirOf(args);
    if (const char* s = std::getenv("UDP_LEASE_SEC")) {
        co.policy.leaseTtlSec = std::strtod(s, nullptr);
    }
    if (const char* s = std::getenv("UDP_MAX_ATTEMPTS")) {
        co.policy.maxAttempts =
            static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    }
    SweepCoordinator coord(std::move(jobs), std::move(co));
    std::string err;
    if (!coord.start(&err)) {
        std::fprintf(stderr, "[bench] --coordinator %s: %s\n",
                     args.coordinator.c_str(), err.c_str());
        std::exit(2);
    }
    obs::Event(obs::LogLevel::Info, "bench", "coordinating")
        .u64("jobs", coord.totalJobs())
        .str("endpoint", args.coordinator)
        .str("hint", "re-run this binary with --worker-of " +
                         args.coordinator)
        .emit();
    return coord.run();
}

inline std::vector<JobResult>
runBenchSweep(std::vector<SweepJob> jobs, const SinkArgs& args)
{
    applyEnvFault(&jobs);
    applyTelemetry(&jobs, args);
    applyProfile(&jobs, args);
    if (!args.workerOf.empty()) {
        runBenchWorker(jobs, args); // exits the process
    }
    if (!args.coordinator.empty()) {
        return runBenchCoordinated(std::move(jobs), args);
    }
    SweepOptions o;
    o.dumpDir = kFailureDumpDir;
    o.isolate = args.isolate;
    if (args.isolate) {
        o.memLimitBytes =
            (args.memLimitMb == 0 ? 4096 : args.memLimitMb) << 20;
        o.cpuLimitSec = args.cpuLimitSec;
        o.wallLimitSec = args.wallLimitSec;
    }
    o.manifestPath = defaultManifestPath(args);
    o.resume = args.resume && !o.manifestPath.empty();
    if (args.resume && o.manifestPath.empty()) {
        std::fprintf(stderr, "[bench] --resume ignored: no manifest path "
                             "(need --csv, --json or --manifest)\n");
    }
    o.handleSignals = true;
    return runSweepChecked(jobs, o);
}

/** Legacy entry point: default execution mode, no artifacts. */
inline std::vector<JobResult>
runBenchSweep(const std::vector<SweepJob>& jobs)
{
    return runBenchSweep(jobs, SinkArgs{});
}

/** Converts a failed job to its machine-readable sink failure row. */
inline FailureRow
failureRowOf(const SweepJob& job, const JobResult& jr)
{
    FailureRow f;
    f.workload = job.profile.name;
    f.config = job.label;
    f.errorKind = jr.error.kind;
    f.component = jr.error.component;
    f.message = jr.error.message;
    f.dumpPath = jr.error.dumpPath;
    f.cycle = jr.error.cycle;
    f.attempts = jr.attempts;
    f.signal = jr.error.signal;
    f.stderrTail = jr.error.stderrTail;
    f.maxRssKb = jr.error.maxRssKb;
    f.userSec = jr.error.userSec;
    f.sysSec = jr.error.sysSec;
    return f;
}

/**
 * Positional Report view of @p results: a failed job contributes a
 * zero-valued placeholder named after its job, so table-building code
 * keeps its job-order indexing while the failure is reported separately.
 */
inline std::vector<Report>
reportsOf(const std::vector<SweepJob>& jobs,
          const std::vector<JobResult>& results)
{
    std::vector<Report> out(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok) {
            out[i] = results[i].report;
        } else {
            out[i].workload = jobs[i].profile.name;
            out[i].configName = jobs[i].label;
        }
    }
    return out;
}

/**
 * Finds the best fixed FTQ depth (OPT oracle) for each of @p profiles,
 * sweeping all profiles x depths as one parallel batch. Ties keep the
 * shallower depth; depth 32 with a zero report is the fallback when every
 * point of a profile failed. Failed points are skipped in the argmax and
 * appended to @p failures when given.
 */
inline std::vector<std::pair<unsigned, Report>>
findOptimalFtqBatch(const std::vector<Profile>& profiles,
                    const RunOptions& opts,
                    std::vector<FailureRow>* failures = nullptr,
                    const SinkArgs& args = SinkArgs{})
{
    std::vector<SweepJob> jobs;
    jobs.reserve(profiles.size() * optSearchDepths().size());
    for (const Profile& p : profiles) {
        for (unsigned d : optSearchDepths()) {
            jobs.push_back({p, presets::fdipWithFtq(d), opts,
                            "ftq" + std::to_string(d)});
        }
    }
    std::vector<JobResult> results = runBenchSweep(jobs, args);

    std::vector<std::pair<unsigned, Report>> best;
    best.reserve(profiles.size());
    std::size_t i = 0;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        unsigned best_depth = 32;
        Report best_report;
        bool first = true;
        for (unsigned d : optSearchDepths()) {
            const JobResult& jr = results[i];
            if (!jr.ok) {
                // Skipped points (graceful shutdown) are not failures.
                if (failures != nullptr && !jr.skipped) {
                    failures->push_back(failureRowOf(jobs[i], jr));
                }
                ++i;
                continue;
            }
            const Report& r = jr.report;
            ++i;
            if (first || r.ipc > best_report.ipc) {
                best_report = r;
                best_depth = d;
                first = false;
            }
        }
        best.emplace_back(best_depth, std::move(best_report));
    }
    return best;
}

/** Finds the best fixed FTQ depth (OPT oracle) for @p profile. */
inline std::pair<unsigned, Report>
findOptimalFtq(const Profile& profile, const RunOptions& opts)
{
    return findOptimalFtqBatch({profile}, opts).front();
}

/** Prints the standard bench banner. */
inline void
banner(const char* figure, const char* what)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure, what);
    RunOptions o = defaultOptions();
    std::printf("warmup=%llu measured=%llu instructions per point "
                "(override: UDP_BENCH_WARMUP / UDP_BENCH_INSTR)\n",
                static_cast<unsigned long long>(o.warmupInstrs),
                static_cast<unsigned long long>(o.measureInstrs));
    std::printf("==============================================================\n");
}

/** Writes @p reports to the sinks requested in @p args (no-op if none). */
inline void
writeArtifacts(const SinkArgs& args, const std::vector<Report>& reports)
{
    ReportSink sink;
    if (!args.jsonPath.empty()) {
        sink.openJson(args.jsonPath);
    }
    if (!args.csvPath.empty()) {
        sink.openCsv(args.csvPath);
    }
    if (sink.active()) {
        sink.writeAll(reports);
        sink.close();
    }
}

/**
 * Writes @p reports plus @p failures to the requested sinks, prints the
 * failure summary, and returns the process exit code: 0 on a clean
 * sweep, 1 when any point failed (artifacts are still complete — every
 * successful Report and every failure row is on disk).
 */
inline int
finishArtifacts(const SinkArgs& args, const std::vector<Report>& reports,
                const std::vector<FailureRow>& failures)
{
    ReportSink sink;
    if (!args.jsonPath.empty()) {
        sink.openJson(args.jsonPath);
    }
    if (!args.csvPath.empty()) {
        sink.openCsv(args.csvPath);
    }
    if (sink.active()) {
        sink.writeAll(reports);
        for (const FailureRow& f : failures) {
            sink.writeFailure(f);
        }
        sink.close();
    }
    if (!failures.empty()) {
        std::fprintf(stderr,
                     "[bench] %zu sweep point(s) FAILED; partial artifacts "
                     "written, dumps under %s/\n",
                     failures.size(), kFailureDumpDir);
        return 1;
    }
    return 0;
}

/** "<stem>.jsonl" sibling of the --interval-stats CSV path. */
inline std::string
telemetryJsonlPath(const std::string& csvPath)
{
    std::string base = csvPath;
    std::string e = ".csv";
    if (base.size() > e.size() &&
        base.compare(base.size() - e.size(), e.size(), e) == 0) {
        base.erase(base.size() - e.size());
    }
    return base + ".jsonl";
}

/**
 * Writes the telemetry artifacts requested in @p args from the snapshots
 * carried by successful results: interval CSV at --interval-stats (plus a
 * sibling ".jsonl" with interval AND per-run summary rows), and one
 * Chrome-trace JSON at --trace-out covering every traced job. No-op when
 * no telemetry artifact was requested or no snapshot exists (e.g. the
 * sweep ran with --isolate).
 */
inline void
writeTelemetryArtifacts(const SinkArgs& args,
                        const std::vector<SweepJob>& jobs,
                        const std::vector<JobResult>& results)
{
    if (!args.telemetryEnabled()) {
        return;
    }
    TelemetrySink sink;
    if (!args.intervalPath.empty()) {
        sink.openCsv(args.intervalPath);
        sink.openJson(telemetryJsonlPath(args.intervalPath));
    }
    std::vector<TraceJob> traceJobs;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            continue;
        }
        const auto& snap = results[i].report.telemetry;
        const auto& prof = results[i].report.profile;
        if (!snap && !prof) {
            continue;
        }
        if (snap && sink.active()) {
            sink.writeRun(jobs[i].profile.name, jobs[i].label, *snap);
        }
        if (!args.tracePath.empty()) {
            traceJobs.push_back(
                {jobs[i].profile.name + "/" + jobs[i].label, snap, prof});
        }
    }
    sink.close();
    if (!args.tracePath.empty() && !traceJobs.empty()) {
        if (!writeChromeTrace(args.tracePath, traceJobs)) {
            std::fprintf(stderr, "[bench] failed to write trace %s\n",
                         args.tracePath.c_str());
        } else {
            std::printf("Chrome trace written to %s (load in "
                        "chrome://tracing or ui.perfetto.dev)\n",
                        args.tracePath.c_str());
        }
    }
}

/**
 * "<artifact-stem>.profile.jsonl" sidecar path for --profile summaries:
 * derived from --json (preferred) or --csv. Profile rows never go into
 * the report artifact itself, so figure outputs stay byte-identical
 * whether or not the profiler ran.
 */
inline std::string
profileJsonlPath(const SinkArgs& args)
{
    std::string base =
        !args.jsonPath.empty() ? args.jsonPath : args.csvPath;
    if (base.empty()) {
        return std::string();
    }
    for (const char* e : {".jsonl", ".json", ".csv"}) {
        std::size_t n = std::strlen(e);
        if (base.size() > n &&
            base.compare(base.size() - n, n, e) == 0) {
            base.erase(base.size() - n);
            break;
        }
    }
    return base + ".profile.jsonl";
}

/**
 * --profile tail: prints a per-job phase-attribution summary and, when a
 * report artifact path is known, writes one profile_summary row per
 * successful job to the "<artifact-stem>.profile.jsonl" sidecar.
 */
inline void
writeProfileArtifacts(const SinkArgs& args,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<JobResult>& results)
{
    if (!args.profile) {
        return;
    }
    std::string path = profileJsonlPath(args);
    std::FILE* f =
        path.empty() ? nullptr : std::fopen(path.c_str(), "w");
    bool wroteAny = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok || !results[i].report.profile) {
            continue;
        }
        const obs::ProfileSnapshot& p = *results[i].report.profile;
        std::printf("[profile] %s/%s: %.3fs host for %llu cycles (",
                    jobs[i].profile.name.c_str(), jobs[i].label.c_str(),
                    p.totalSec,
                    static_cast<unsigned long long>(p.cycles));
        for (std::size_t ph = 0; ph < obs::kNumProfPhases; ++ph) {
            std::printf("%s%s %.1f%%", ph == 0 ? "" : ", ",
                        obs::profPhaseName(
                            static_cast<obs::ProfPhase>(ph)),
                        p.phaseFrac(static_cast<obs::ProfPhase>(ph)) *
                            100.0);
        }
        std::printf(")\n");
        if (f != nullptr) {
            std::string row = profileSummaryToJsonLine(
                jobs[i].profile.name, jobs[i].label, p);
            row += '\n';
            wroteAny =
                std::fwrite(row.data(), 1, row.size(), f) == row.size() ||
                wroteAny;
        }
    }
    if (f != nullptr) {
        std::fclose(f);
        if (wroteAny) {
            std::printf("Profile summary rows written to %s\n",
                        path.c_str());
        } else {
            std::remove(path.c_str());
        }
    }
}

/**
 * Sink + exit-code tail for benches built on runBenchSweep(): writes each
 * successful job's Report and each failure's row, in job order. Jobs
 * skipped by a graceful shutdown produce neither — the sweep is
 * incomplete, the exit code is 130, and re-running with --resume picks
 * up exactly where it stopped.
 */
inline int
writeArtifactsChecked(const SinkArgs& args, const std::vector<SweepJob>& jobs,
                      const std::vector<JobResult>& results)
{
    std::vector<Report> ok;
    std::vector<FailureRow> failures;
    std::size_t skipped = 0;
    ok.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok) {
            ok.push_back(results[i].report);
        } else if (results[i].skipped) {
            ++skipped;
        } else {
            failures.push_back(failureRowOf(jobs[i], results[i]));
        }
    }
    int rc = finishArtifacts(args, ok, failures);
    writeTelemetryArtifacts(args, jobs, results);
    writeProfileArtifacts(args, jobs, results);
    if (skipped != 0) {
        std::fprintf(stderr,
                     "[bench] interrupted: %zu point(s) skipped; re-run "
                     "with --resume to finish the sweep\n",
                     skipped);
        return 130;
    }
    return rc;
}

} // namespace udp::bench

#endif // UDP_BENCH_BENCH_UTIL_H
