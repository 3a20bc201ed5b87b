/**
 * @file
 * Shared bench helpers: the measurement window and banner, plus the
 * execution flags, fault-tolerant sweep and artifact writers of the
 * `figures` driver (catalog.h).
 *
 * Instruction counts scale via UDP_BENCH_WARMUP / UDP_BENCH_INSTR and the
 * worker count via UDP_JOBS. See docs/EXPERIMENT_GUIDE.md for the full
 * workflow.
 */

#ifndef UDP_BENCH_BENCH_UTIL_H
#define UDP_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/faultinject.h"
#include "sim/runner.h"
#include "sim/sweep.h"
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

/**
 * Artifact destination and execution-mode flags of the `figures` driver:
 *   --out-dir DIR               per-figure "<name>.txt/.jsonl/.csv" plus
 *                               one checkpoint manifest (stats/sink.h)
 *   --isolate                   run each point in a forked child process
 *   --mem-mb N / --cpu-sec N /  per-child rlimits and wall-clock deadline
 *   --wall-sec X                (isolate only; mem defaults to 4096 MB)
 *   --resume                    skip points the manifest records as done
 *   --interval-stats PATH       telemetry interval rows as CSV (a sibling
 *                               ".jsonl" with interval + summary rows is
 *                               written next to it; docs/TELEMETRY.md)
 *   --trace-out PATH            Chrome-trace JSON of every job (open in
 *                               chrome://tracing or ui.perfetto.dev)
 *   --telemetry-interval N      interval-row period in cycles (at
 *                               least 1; default TelemetryConfig's)
 * --interval-stats, --trace-out and --profile are rejected with
 * --isolate: their snapshots do not cross the fork boundary, only the
 * serialized Report does.
 */
struct SinkArgs
{
    std::string outDir; ///< --out-dir; "" = tables on stdout, no files
    bool isolate = false;
    bool resume = false;
    std::uint64_t memLimitMb = 0;  ///< 0 = default (4096 when isolating)
    std::uint64_t cpuLimitSec = 0; ///< 0 = no RLIMIT_CPU
    double wallLimitSec = 0.0;     ///< 0 = no wall deadline

    std::string intervalPath;      ///< --interval-stats CSV destination
    std::string tracePath;         ///< --trace-out Chrome-trace destination
    std::uint64_t telemetryInterval = TelemetryConfig{}.intervalCycles;

    /** --profile: enable the cycle-loop self-profiler on every job and
     *  emit per-component host-time attribution (stdout summary + a
     *  "figures.profile.jsonl" sidecar of profile_summary rows in the
     *  --out-dir; Report/CSV artifacts stay byte-identical). */
    bool profile = false;

    /** Telemetry is on whenever any telemetry artifact was requested. */
    bool telemetryEnabled() const
    {
        return !intervalPath.empty() || !tracePath.empty();
    }

    /** The checkpoint manifest in the --out-dir; "" without one (there
     *  is nothing durable to resume into). */
    std::string manifestPath() const
    {
        return outDir.empty() ? "" : outDir + "/figures.manifest.jsonl";
    }
};

/**
 * Parses argv into @p s; arguments that are not flags go to
 * @p positional. Returns false with @p error set on an unknown flag, a
 * flag missing its value (at the end, or followed by another "--" flag),
 * a malformed number (non-numeric, trailing junk, negative, a --mem-mb
 * too large to express in bytes, or a --telemetry-interval of 0) or
 * --isolate with a telemetry or profile flag.
 */
inline bool
parseSinkArgs(int argc, char** argv, SinkArgs* s,
              std::vector<std::string>* positional, std::string* error)
{
    struct Valued
    {
        const char* flag;
        std::string* text = nullptr;
        std::uint64_t* count = nullptr;
        double* seconds = nullptr;
    };
    const Valued valued[] = {
        {"--out-dir", &s->outDir},
        {"--interval-stats", &s->intervalPath},
        {"--trace-out", &s->tracePath},
        {"--mem-mb", nullptr, &s->memLimitMb},
        {"--cpu-sec", nullptr, &s->cpuLimitSec},
        {"--telemetry-interval", nullptr, &s->telemetryInterval},
        {"--wall-sec", nullptr, nullptr, &s->wallLimitSec},
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            positional->push_back(a);
            continue;
        }
        if (a == "--isolate" || a == "--resume" || a == "--profile") {
            bool& on = a == "--isolate"  ? s->isolate
                       : a == "--resume" ? s->resume
                                         : s->profile;
            on = true;
            continue;
        }
        const Valued* f = nullptr;
        for (const Valued& v : valued) {
            if (a == v.flag) {
                f = &v;
            }
        }
        if (f == nullptr) {
            *error = "unknown option '" + a + "'";
            return false;
        }
        if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
            *error = a + " needs a value";
            return false;
        }
        const std::string v = argv[++i];
        if (f->text != nullptr) {
            *f->text = v;
        } else if (f->count != nullptr ? !parseCount(v, f->count)
                                       : !parseSeconds(v, f->seconds)) {
            *error = "malformed number '" + v + "' for " + a;
            return false;
        }
    }
    if (s->memLimitMb > (UINT64_MAX >> 20)) {
        *error = "--mem-mb " + std::to_string(s->memLimitMb) +
                 " does not fit in bytes";
        return false;
    }
    if (s->telemetryInterval == 0) {
        *error = "--telemetry-interval must be at least 1 cycle";
        return false;
    }
    if (s->isolate && (s->telemetryEnabled() || s->profile)) {
        *error = "--interval-stats, --trace-out and --profile are rejected "
                 "with --isolate: their snapshots do not cross the process "
                 "boundary";
        return false;
    }
    return true;
}

/**
 * Test hook: UDP_BENCH_FAULT="kind[:index[:cycle]]" injects the named
 * fault (sim/faultinject.h) into one job of the batch — job @c index
 * (default 0) at trigger cycle @c cycle (default 10000). Lets CI and the
 * docs demonstrate crash containment on a real bench without patching it.
 * An unknown kind, a malformed number or an index past the last job
 * warns and injects nothing.
 */
inline void
applyEnvFault(std::vector<SweepJob>* jobs)
{
    const char* spec = std::getenv("UDP_BENCH_FAULT");
    if (spec == nullptr || *spec == '\0' || jobs->empty()) {
        return;
    }
    std::string kind = spec;
    std::uint64_t index = 0;
    Cycle cycle = 10'000;
    std::size_t colon = kind.find(':');
    if (colon != std::string::npos) {
        std::string rest = kind.substr(colon + 1);
        kind.erase(colon);
        std::size_t colon2 = rest.find(':');
        if (!parseCount(rest.substr(0, colon2), &index) ||
            (colon2 != std::string::npos &&
             !parseCount(rest.substr(colon2 + 1), &cycle))) {
            std::fprintf(stderr,
                         "[bench] UDP_BENCH_FAULT: malformed number in "
                         "\"%s\"\n",
                         spec);
            return;
        }
    }
    FaultKind fk = FaultKind::None;
    if (!faultKindFromName(kind, &fk)) {
        std::fprintf(stderr, "[bench] UDP_BENCH_FAULT: unknown kind \"%s\"\n",
                     kind.c_str());
        return;
    }
    if (index >= jobs->size()) {
        std::fprintf(stderr,
                     "[bench] UDP_BENCH_FAULT: job %llu is past the last "
                     "job (%zu)\n",
                     static_cast<unsigned long long>(index),
                     jobs->size() - 1);
        return;
    }
    SweepJob& job = (*jobs)[index];
    job.config.fault.kind = fk;
    job.config.fault.triggerCycle = cycle;
    std::fprintf(stderr,
                 "[bench] UDP_BENCH_FAULT: injecting %s into job %llu "
                 "(\"%s\") at cycle %llu\n",
                 faultKindName(fk), static_cast<unsigned long long>(index),
                 job.label.c_str(), static_cast<unsigned long long>(cycle));
}

/**
 * Enables telemetry (stats/telemetry.h) on every job when @p args
 * requested a telemetry artifact (never with --isolate: parseSinkArgs
 * rejects that).
 */
inline void
applyTelemetry(std::vector<SweepJob>* jobs, const SinkArgs& args)
{
    if (!args.telemetryEnabled()) {
        return;
    }
    for (SweepJob& job : *jobs) {
        job.config.telemetry.enabled = true;
        job.config.telemetry.trace = !args.tracePath.empty();
        job.config.telemetry.intervalCycles = args.telemetryInterval;
    }
}

/**
 * Enables the cycle-loop self-profiler (obs/profiler.h) on every job when
 * --profile was passed (never with --isolate, like telemetry).
 */
inline void
applyProfile(std::vector<SweepJob>* jobs, const SinkArgs& args)
{
    if (!args.profile) {
        return;
    }
    for (SweepJob& job : *jobs) {
        job.config.profile.enabled = true;
    }
}

/**
 * The fault-tolerant sweep: a crashing or hanging point never aborts the
 * run. Failed points come back as failed JobResults, their diagnostic
 * dumps in JobError. The execution-mode flags of @p args apply:
 * --isolate forks each point (default 4096 MB RLIMIT_AS), --resume
 * replays completed points from the checkpoint manifest, and
 * SIGINT/SIGTERM drain in-flight points before returning.
 */
inline std::vector<JobResult>
runBenchSweep(std::vector<SweepJob> jobs, const SinkArgs& args)
{
    applyEnvFault(&jobs);
    applyTelemetry(&jobs, args);
    applyProfile(&jobs, args);
    SweepOptions o;
    o.isolate = args.isolate;
    if (args.isolate) {
        o.memLimitBytes =
            (args.memLimitMb == 0 ? 4096 : args.memLimitMb) << 20;
        o.cpuLimitSec = args.cpuLimitSec;
        o.wallLimitSec = args.wallLimitSec;
    }
    o.manifestPath = args.manifestPath();
    o.resume = args.resume && !o.manifestPath.empty();
    if (args.resume && o.manifestPath.empty()) {
        std::fprintf(stderr, "[bench] --resume ignored: no manifest "
                             "without --out-dir\n");
    }
    o.handleSignals = true;
    return runSweepChecked(jobs, o);
}

/** The standard bench banner (four lines) for window @p o. */
inline std::string
banner(const char* figure, const char* what, const RunOptions& o)
{
    const std::string rule =
        "==============================================================\n";
    char window[160];
    std::snprintf(window, sizeof(window),
                  "warmup=%llu measured=%llu instructions per point "
                  "(override: UDP_BENCH_WARMUP / UDP_BENCH_INSTR)\n",
                  static_cast<unsigned long long>(o.warmupInstrs),
                  static_cast<unsigned long long>(o.measureInstrs));
    return rule + figure + " — " + what + "\n" + window + rule;
}

/**
 * Writes "<stem>.jsonl" and "<stem>.csv": @p reports, then the failure
 * rows @p failures (failureToJsonLine), which go to the JSONL only.
 * Returns false when a file could not be opened.
 */
inline bool
writeReportArtifacts(const std::string& stem,
                     const std::vector<Report>& reports,
                     const std::vector<std::string>& failures)
{
    ReportSink sink;
    bool opened = sink.openJson(stem + ".jsonl");
    opened = sink.openCsv(stem + ".csv") && opened;
    sink.writeAll(reports);
    for (const std::string& row : failures) {
        sink.writeFailure(row);
    }
    sink.close();
    return opened;
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
 * Chrome-trace JSON at --trace-out covering every traced job. Writes no
 * trace when no snapshot exists (every point failed or was replayed by
 * --resume).
 * Returns false, after one line per file, when a requested file could
 * not be written.
 */
inline bool
writeTelemetryArtifacts(const SinkArgs& args,
                        const std::vector<SweepJob>& jobs,
                        const std::vector<JobResult>& results)
{
    if (!args.telemetryEnabled()) {
        return true;
    }
    TelemetrySink sink;
    bool written = true;
    if (!args.intervalPath.empty()) {
        written = sink.openCsv(args.intervalPath);
        written = sink.openJson(telemetryJsonlPath(args.intervalPath)) &&
                  written;
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
            written = false;
        } else {
            std::printf("Chrome trace written to %s (load in "
                        "chrome://tracing or ui.perfetto.dev)\n",
                        args.tracePath.c_str());
        }
    }
    return written;
}

/**
 * --profile tail: prints a per-job phase-attribution summary and, with
 * --out-dir, writes one profile_summary row per successful job to the
 * "figures.profile.jsonl" sidecar there. Profile rows never go into the
 * report artifacts, so those stay byte-identical whether or not the
 * profiler ran. Returns false, after one line, when the sidecar could
 * not be written.
 */
inline bool
writeProfileArtifacts(const SinkArgs& args,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<JobResult>& results)
{
    if (!args.profile) {
        return true;
    }
    const std::string path = args.outDir + "/figures.profile.jsonl";
    std::FILE* f =
        args.outDir.empty() ? nullptr : std::fopen(path.c_str(), "w");
    bool written = args.outDir.empty() || f != nullptr;
    if (!written) {
        std::fprintf(stderr, "[bench] cannot open profile rows %s\n",
                     path.c_str());
    }
    std::size_t rows = 0;
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
            written =
                std::fwrite(row.data(), 1, row.size(), f) == row.size() &&
                written;
            ++rows;
        }
    }
    if (f != nullptr) {
        written = std::fclose(f) == 0 && written;
        if (rows == 0) {
            std::remove(path.c_str());
        } else if (written) {
            std::printf("Profile summary rows written to %s\n",
                        path.c_str());
        } else {
            std::fprintf(stderr, "[bench] failed to write %s\n",
                         path.c_str());
        }
    }
    return written;
}

} // namespace udp::bench

#endif // UDP_BENCH_BENCH_UTIL_H
