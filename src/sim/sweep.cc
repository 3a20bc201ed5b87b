#include "sim/sweep.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_set>

#include "sim/manifest.h"
#include "sim/pool.h"
#include "sim/procexec.h"
#include "sim/simerror.h"
#include "stats/sink.h"

namespace udp {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Writes "[sweep] <body>" and a newline to stderr. The whole line goes
 * out in one fwrite, so lines from concurrent pool workers never
 * interleave.
 */
void
sweepLine(const std::string& body)
{
    std::string line = "[sweep] " + body + "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

// --- graceful shutdown ------------------------------------------------------

volatile std::sig_atomic_t g_stopSignal = 0;

extern "C" void
sweepStopHandler(int sig)
{
    g_stopSignal = sig;
}

/**
 * Scoped SIGINT/SIGTERM handler installation. The first signal only sets
 * the sticky stop flag (queued jobs are then skipped while in-flight jobs
 * drain); SA_RESETHAND restores the default disposition so a second
 * signal kills the process outright — the flushed manifest still permits
 * resumption.
 */
class SignalGuard
{
  public:
    explicit SignalGuard(bool enable) : active(enable)
    {
        if (!active) {
            return;
        }
        g_stopSignal = 0;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sweepStopHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESETHAND;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~SignalGuard()
    {
        if (!active) {
            return;
        }
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }

    SignalGuard(const SignalGuard&) = delete;
    SignalGuard& operator=(const SignalGuard&) = delete;

  private:
    bool active;
    struct sigaction oldInt {};
    struct sigaction oldTerm {};
};

/**
 * Runs one job to a JobResult under @p opts: the retry loop, optional
 * fork isolation and structured error capture.
 */
JobResult
runJobChecked(const SweepJob& job, const SweepOptions& opts)
{
    JobResult jr;
    const unsigned maxAttempts = opts.maxAttempts == 0 ? 1 : opts.maxAttempts;

    for (unsigned attempt = 1; attempt <= maxAttempts && !jr.ok; ++attempt) {
        jr.attempts = attempt;
        if (opts.isolate) {
            ProcLimits limits;
            limits.memLimitBytes = opts.memLimitBytes;
            limits.cpuLimitSec = opts.cpuLimitSec;
            limits.wallLimitSec = opts.wallLimitSec;
            JobResult sub = runJobIsolated(job, limits);
            jr.ok = sub.ok;
            jr.report = std::move(sub.report);
            jr.error = std::move(sub.error);
        } else {
            jr.error = JobError{};
            jr.ok = runJobInProcess(job, &jr.report, &jr.error);
        }
    }
    return jr;
}

} // namespace

bool
sweepStopRequested()
{
    return g_stopSignal != 0;
}

int
sweepStopSignal()
{
    return static_cast<int>(g_stopSignal);
}

unsigned
defaultJobs()
{
    std::uint64_t n = 0;
    if (parsePositiveEnv("UDP_JOBS", &n)) {
        return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool
runJobInProcess(const SweepJob& job, Report* report, JobError* error)
{
    try {
        *report = runSim(job.profile, job.config, job.opts, job.label);
        return true;
    } catch (const SimError& e) {
        error->kind = e.kindName();
        error->component = e.component();
        error->message = e.what();
        error->dump = e.dump();
        error->cycle = e.cycle();
    } catch (const std::bad_alloc&) {
        error->kind = "mem_limit";
        error->message =
            "std::bad_alloc: allocation failed (memory limit reached)";
    } catch (const std::exception& e) {
        error->kind = "exception";
        error->message = e.what();
    } catch (...) {
        error->kind = "exception";
        error->message = "unknown exception";
    }
    return false;
}

std::vector<JobResult>
runSweepChecked(const std::vector<SweepJob>& jobs, const SweepOptions& opts)
{
    const unsigned threads =
        opts.numThreads == 0 ? defaultJobs() : opts.numThreads;
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty()) {
        return results;
    }

    // Checkpoint manifest: hash every job up front; on resume, satisfy
    // already-completed jobs by replaying their recorded Reports.
    SweepManifest manifest;
    std::vector<std::uint64_t> hashes;
    std::size_t resumedCount = 0;
    if (!opts.manifestPath.empty()) {
        hashes.resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            hashes[i] = sweepJobHash(jobs[i], i);
        }
        if (manifest.open(opts.manifestPath, opts.resume) && opts.resume) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const ManifestEntry* e = manifest.findCompleted(hashes[i]);
                if (e == nullptr) {
                    continue;
                }
                if (e->workload != jobs[i].profile.name ||
                    e->label != jobs[i].label) {
                    // A spliced line can bind a valid hash to another
                    // record's fields; never replay it — re-run instead.
                    continue;
                }
                results[i].report = e->report;
                results[i].ok = true;
                results[i].resumed = true;
                results[i].attempts = 0;
                ++resumedCount;
            }
            if (!opts.quiet && resumedCount != 0) {
                sweepLine("resumed resumed=" + std::to_string(resumedCount) +
                          " total=" + std::to_string(jobs.size()) +
                          " manifest=" + opts.manifestPath);
            }
        }
    }

    // The distinct Programs the points to run need, largest footprint
    // (longest build) first.
    std::vector<const Profile*> programs;
    {
        std::unordered_set<std::string> seen;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!results[i].resumed &&
                seen.insert(programKey(jobs[i].profile)).second) {
                programs.push_back(&jobs[i].profile);
            }
        }
        std::stable_sort(programs.begin(), programs.end(),
                         [](const Profile* a, const Profile* b) {
                             return a->codeFootprintKB > b->codeFootprintKB;
                         });
    }

    SignalGuard guard(opts.handleSignals);

    // Builds one Program into the cache; after a stop request the points
    // are skipped, so their builds are too.
    auto build = [&opts](const Profile* p) {
        if (opts.handleSignals && sweepStopRequested()) {
            return;
        }
        try {
            prewarmProgram(*p);
        } catch (...) {
            // Nothing is cached: each point that needs this Program
            // builds it again and records the error as its own JobError.
        }
    };

    // Progress state shared by the workers.
    std::mutex mtx;
    std::size_t done = resumedCount;
    std::size_t failed = 0;
    std::size_t skippedCount = 0;
    bool stopAnnounced = false;
    // Progress lines are throttled to one per kProgressEverySec; the
    // line that reports done == total always goes out.
    constexpr double kProgressEverySec = 0.25;
    double nextProgressSec = 0.0;
    const Clock::time_point start = Clock::now();

    auto postProgress = [&](std::size_t jobIndex, const JobResult& jr) {
        // Caller holds mtx.
        if (!jr.ok && !jr.skipped && !opts.quiet) {
            // An isolated child's rusage differs from run to run, so it is
            // reported here and kept out of the failure row.
            const JobError& e = jr.error;
            const std::string rusage =
                opts.isolate
                    ? " max_rss_kb=" + std::to_string(e.maxRssKb) +
                          " user_sec=" + formatNumber(e.userSec) +
                          " sys_sec=" + formatNumber(e.sysSec)
                    : "";
            sweepLine("warning: job_failed job=" + std::to_string(jobIndex) +
                      " label=" + jobs[jobIndex].label +
                      " attempts=" + std::to_string(jr.attempts) +
                      " kind=" + e.kind + rusage + " message=" + e.message);
        }
        SweepProgress p;
        p.done = done;
        p.total = jobs.size();
        p.failed = failed;
        p.resumed = resumedCount;
        p.skipped = skippedCount;
        p.elapsedSec = secondsSince(start);
        p.etaSec = p.done == 0
                       ? 0.0
                       : p.elapsedSec / static_cast<double>(p.done) *
                             static_cast<double>(p.total - p.done);
        if (opts.onProgress) {
            opts.onProgress(p);
        } else if (!opts.quiet &&
                   (p.elapsedSec >= nextProgressSec || p.done == p.total)) {
            nextProgressSec = p.elapsedSec + kProgressEverySec;
            char body[160];
            std::snprintf(body, sizeof(body),
                          "progress done=%zu total=%zu failed=%zu "
                          "elapsed_sec=%.3g eta_sec=%.3g",
                          p.done, p.total, p.failed, p.elapsedSec, p.etaSec);
            sweepLine(body);
        }
    };

    auto runOne = [&](std::size_t i) {
        JobResult& jr = results[i];
        if (jr.resumed) {
            return;
        }

        // Graceful shutdown: a queued job observed after the stop signal
        // never starts. It gets neither a Report nor a failure row, and
        // is not recorded in the manifest, so --resume re-runs it.
        if (opts.handleSignals && sweepStopRequested()) {
            jr.skipped = true;
            jr.ok = false;
            jr.attempts = 0;
            jr.error = JobError{};
            jr.error.kind = "skipped";
            jr.error.message = "graceful shutdown requested before start";
            std::lock_guard<std::mutex> lock(mtx);
            if (!stopAnnounced && !opts.quiet) {
                sweepLine("warning: stop_signal signal=" +
                          std::to_string(sweepStopSignal()) +
                          " action=draining in-flight, skipping queued");
            }
            stopAnnounced = true;
            ++done;
            ++skippedCount;
            postProgress(i, jr);
            return;
        }

        jr = runJobChecked(jobs[i], opts);

        // A failed job still counts as done: progress always reaches
        // total and the ETA is computed from every finished job.
        std::lock_guard<std::mutex> lock(mtx);
        ++done;
        if (!jr.ok) {
            ++failed;
        }
        if (manifest.isOpen()) {
            ManifestEntry e;
            e.hash = hashes[i];
            e.index = i;
            e.workload = jobs[i].profile.name;
            e.label = jobs[i].label;
            e.ok = jr.ok;
            if (jr.ok) {
                e.report = jr.report;
            } else {
                e.errorKind = jr.error.kind;
            }
            manifest.record(e);
        }
        postProgress(i, jr);
    };

    if (threads <= 1) {
        // Serial reference path: same code, no pool. Each point builds its
        // own Program, except that forked children must inherit them.
        if (opts.isolate) {
            for (const Profile* p : programs) {
                build(p);
            }
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            runOne(i);
        }
    } else {
        // The builds go ahead of every point: a point only ever waits on
        // a build that a worker is already running, while the other
        // workers build the rest. Forked children must inherit them all.
        ThreadPool pool(threads);
        for (const Profile* p : programs) {
            pool.submit([&build, p] { build(p); });
        }
        if (opts.isolate) {
            pool.wait();
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].resumed) {
                continue;
            }
            pool.submit([&, i] { runOne(i); });
        }
        pool.wait();
    }

    manifest.close();
    return results;
}

} // namespace udp
