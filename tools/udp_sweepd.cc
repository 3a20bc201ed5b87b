/**
 * @file
 * udp_sweepd — the distributed sweep coordinator (docs/ROBUSTNESS.md
 * §10). Reads a JSON sweep spec, expands it deterministically into jobs,
 * and serves them to udp_worker processes through a shared queue
 * directory with lease-based retry/backoff, straggler re-dispatch, and
 * checkpoint/resume. Merged artifacts are byte-identical to running the
 * same spec with --serial in one process.
 *
 *   udp_sweepd --spec fig13.json --queue /shared/q --json out.jsonl
 *   udp_sweepd --spec fig13.json --queue /shared/q --workers 3 --csv out.csv
 *   udp_sweepd --spec fig13.json --serial --json ref.jsonl
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "obs/eventlog.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"
#include "stats/sink.h"

using namespace udp;

namespace {

SweepCoordinator* g_coordinator = nullptr;

extern "C" void
stopHandler(int)
{
    if (g_coordinator != nullptr) {
        g_coordinator->requestStop();
    }
}

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --spec FILE (--queue DIR | --serial)\n"
        "  [--name S] [--json PATH] [--csv PATH] [--manifest PATH] "
        "[--resume]\n"
        "  [--shard-dir DIR] [--workers N] [--lease-sec X] "
        "[--max-attempts N]\n"
        "  [--backoff-base-sec X] [--straggler-sec X] [--poll-sec X] "
        "[--quiet]\n"
        "Worker-side execution flags forwarded to forked --workers:\n"
        "  [--isolate] [--mem-mb N] [--cpu-sec N] [--wall-sec X] "
        "[--delay-ms N]\n",
        argv0);
}

bool
readFile(const std::string& path, std::string* out)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

struct Args
{
    std::string specPath;
    std::string name;     ///< status-surface name (default: spec name)
    std::string queueDir; ///< --queue
    bool serial = false;
    std::string jsonPath;
    std::string csvPath;
    std::string manifestPath;
    bool resume = false;
    std::string shardDir;
    unsigned workers = 0;
    LeasePolicy policy;
    double pollSec = 0.2;
    bool quiet = false;
    // forwarded to forked workers
    JobExecOptions exec;
    unsigned delayMs = 0;
};

int
writeArtifacts(const Args& a, const std::vector<SweepJob>& jobs,
               const std::vector<JobResult>& results)
{
    ReportSink sink;
    if (!a.jsonPath.empty()) {
        sink.openJson(a.jsonPath);
    }
    if (!a.csvPath.empty()) {
        sink.openCsv(a.csvPath);
    }
    std::size_t failed = 0;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult& jr = results[i];
        if (jr.ok) {
            if (sink.active()) {
                sink.write(jr.report);
            }
            continue;
        }
        if (jr.skipped) {
            ++skipped;
            continue;
        }
        ++failed;
        if (sink.active()) {
            FailureRow f;
            f.workload = jobs[i].profile.name;
            f.config = jobs[i].label;
            f.errorKind = jr.error.kind;
            f.message = jr.error.message;
            f.attempts = jr.attempts;
            sink.writeFailure(f);
        }
    }
    sink.close();
    if (failed != 0) {
        std::fprintf(stderr, "[sweepd] %zu job(s) finally FAILED\n", failed);
        return 1;
    }
    if (skipped != 0) {
        std::fprintf(stderr,
                     "[sweepd] interrupted with %zu job(s) outstanding; "
                     "re-run with --resume\n",
                     skipped);
        return 130;
    }
    return 0;
}

#ifndef _WIN32
/** Forks one local worker draining the queue; never returns in the
 *  child. The child shares the coordinator's expanded job list — the
 *  same determinism contract as a remote udp_worker. */
pid_t
forkWorker(const Args& a, const std::vector<SweepJob>& jobs, unsigned id)
{
    pid_t pid = ::fork();
    if (pid != 0) {
        return pid;
    }
    FsWorkQueue q(a.queueDir);
    std::string err;
    if (!q.connect(&err)) {
        std::fprintf(stderr, "[worker-%u] %s\n", id, err.c_str());
        ::_exit(2);
    }
    WorkerOptions wo;
    wo.name = "local-" + std::to_string(id);
    wo.shardDir = a.shardDir;
    wo.quiet = a.quiet;
    wo.exec = a.exec;
    wo.jobDelayMs = a.delayMs;
    WorkerSummary s = runSweepWorker(q, jobs, wo);
    ::_exit(s.queueLost ? 3 : 0);
}
#endif

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--spec") {
            a.specPath = val();
        } else if (arg == "--name") {
            a.name = val();
        } else if (arg == "--queue") {
            a.queueDir = val();
        } else if (arg == "--serial") {
            a.serial = true;
        } else if (arg == "--json") {
            a.jsonPath = val();
        } else if (arg == "--csv") {
            a.csvPath = val();
        } else if (arg == "--manifest") {
            a.manifestPath = val();
        } else if (arg == "--resume") {
            a.resume = true;
        } else if (arg == "--shard-dir") {
            a.shardDir = val();
        } else if (arg == "--workers") {
            a.workers = static_cast<unsigned>(std::atoi(val()));
        } else if (arg == "--lease-sec") {
            a.policy.leaseTtlSec = std::strtod(val(), nullptr);
        } else if (arg == "--max-attempts") {
            a.policy.maxAttempts =
                static_cast<unsigned>(std::atoi(val()));
        } else if (arg == "--backoff-base-sec") {
            a.policy.backoffBaseSec = std::strtod(val(), nullptr);
        } else if (arg == "--straggler-sec") {
            a.policy.stragglerAfterSec = std::strtod(val(), nullptr);
        } else if (arg == "--poll-sec") {
            a.pollSec = std::strtod(val(), nullptr);
        } else if (arg == "--quiet") {
            a.quiet = true;
        } else if (arg == "--isolate") {
            a.exec.isolate = true;
        } else if (arg == "--mem-mb") {
            a.exec.memLimitBytes =
                std::strtoull(val(), nullptr, 10) << 20;
        } else if (arg == "--cpu-sec") {
            a.exec.cpuLimitSec = std::strtoull(val(), nullptr, 10);
        } else if (arg == "--wall-sec") {
            a.exec.wallLimitSec = std::strtod(val(), nullptr);
        } else if (arg == "--delay-ms") {
            a.delayMs = static_cast<unsigned>(std::atoi(val()));
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (a.specPath.empty() || (a.queueDir.empty() && !a.serial)) {
        usage(argv[0]);
        return 2;
    }

    std::string specJson;
    if (!readFile(a.specPath, &specJson)) {
        std::fprintf(stderr, "[sweepd] cannot read spec %s\n",
                     a.specPath.c_str());
        return 2;
    }
    SweepSpec spec;
    std::vector<SweepJob> jobs;
    std::string err;
    if (!sweepSpecFromJson(specJson, &spec, &err) ||
        !expandSweepSpec(spec, &jobs, &err)) {
        std::fprintf(stderr, "[sweepd] bad spec %s: %s\n",
                     a.specPath.c_str(), err.c_str());
        return 2;
    }
    if (!a.quiet) {
        obs::Event(obs::LogLevel::Info, "sweepd", "spec_loaded")
            .str("spec", spec.name)
            .u64("jobs", jobs.size())
            .emit();
    }

    if (a.serial) {
        // The byte-identity reference: the same jobs, one process, one
        // thread, the plain sweep engine.
        SweepOptions so;
        so.numThreads = 1;
        so.quiet = a.quiet;
        so.manifestPath = a.manifestPath;
        so.resume = a.resume && !a.manifestPath.empty();
        so.isolate = a.exec.isolate;
        so.memLimitBytes = a.exec.memLimitBytes;
        so.cpuLimitSec = a.exec.cpuLimitSec;
        so.wallLimitSec = a.exec.wallLimitSec;
        std::vector<JobResult> results = runSweepChecked(jobs, so);
        return writeArtifacts(a, jobs, results);
    }

    CoordinatorOptions co;
    co.name = a.name.empty() ? spec.name : a.name;
    co.policy = a.policy;
    co.endpoint = a.queueDir;
    co.specJson = specJson;
    co.manifestPath = a.manifestPath;
    co.resume = a.resume && !a.manifestPath.empty();
    co.shardDir = a.shardDir;
    co.pollSec = a.pollSec;
    co.quiet = a.quiet;

    SweepCoordinator coord(jobs, std::move(co));
    if (!coord.start(&err)) {
        std::fprintf(stderr, "[sweepd] %s\n", err.c_str());
        return 2;
    }
    if (!a.quiet) {
        obs::Event(obs::LogLevel::Info, "sweepd", "serving")
            .str("endpoint", a.queueDir)
            .str("hint", "watch with udp_top " + a.queueDir)
            .emit();
    }

    g_coordinator = &coord;
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);

#ifndef _WIN32
    std::vector<pid_t> children;
    for (unsigned w = 0; w < a.workers; ++w) {
        pid_t pid = forkWorker(a, jobs, w);
        if (pid > 0) {
            children.push_back(pid);
        }
    }
#else
    if (a.workers != 0) {
        std::fprintf(stderr,
                     "[sweepd] --workers requires POSIX fork(); start "
                     "udp_worker processes manually\n");
    }
#endif

    std::vector<JobResult> results = coord.run();
    g_coordinator = nullptr;

#ifndef _WIN32
    for (pid_t pid : children) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
#endif
    return writeArtifacts(a, jobs, results);
}
