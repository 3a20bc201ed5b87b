#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <thread>

#include "sim/manifest.h"
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
 * out in one fwrite, so lines from concurrent threads never interleave.
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
 * Runs task(i) for every i in [0, @p n): the calling thread and at most
 * min(@p threads, @p n) - 1 helper threads take indices from one counter,
 * so tasks start in index order. Returns when every task has finished;
 * joining the helpers publishes what their tasks wrote to the caller.
 * Tasks must not throw.
 */
template <typename Task>
void
forEachIndex(unsigned threads, std::size_t n, const Task& task)
{
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            task(i);
        }
    };
    std::vector<std::jthread> helpers;
    for (std::size_t h = 1; h < std::min<std::size_t>(threads, n); ++h) {
        helpers.emplace_back(drain);
    }
    drain();
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

    // Checkpoint manifest: on resume, satisfy already-completed jobs by
    // replaying their journaled Reports.
    SweepManifest manifest;
    std::size_t resumedCount = 0;
    if (!opts.manifestPath.empty() &&
        manifest.open(opts.manifestPath, opts.resume) && opts.resume) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (const Report* r = manifest.replay(jobs[i], i)) {
                results[i].report = *r;
                results[i].ok = true;
                results[i].resumed = true;
                ++resumedCount;
            }
        }
        if (!opts.quiet && resumedCount != 0) {
            sweepLine("resumed resumed=" + std::to_string(resumedCount) +
                      " total=" + std::to_string(jobs.size()) +
                      " manifest=" + opts.manifestPath);
        }
    }

    // The points to run, and the distinct Programs (equal Profiles share
    // one) they need, largest footprint (longest build) first.
    std::vector<std::size_t> points;
    std::vector<const Profile*> programs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Profile& p = jobs[i].profile;
        if (results[i].resumed) {
            continue;
        }
        points.push_back(i);
        if (std::none_of(programs.begin(), programs.end(),
                         [&p](const Profile* q) { return *q == p; })) {
            programs.push_back(&p);
        }
    }
    std::stable_sort(programs.begin(), programs.end(),
                     [](const Profile* a, const Profile* b) {
                         return a->codeFootprintKB > b->codeFootprintKB;
                     });

    SignalGuard guard(opts.handleSignals);

    // Builds one Program into the cache; after a stop request the points
    // are skipped, so their builds are too.
    auto build = [&opts](const Profile& p) {
        if (opts.handleSignals && sweepStopRequested()) {
            return;
        }
        try {
            prewarmProgram(p);
        } catch (...) {
            // Nothing is cached: each point that needs this Program
            // builds it again and records the error as its own JobError.
        }
    };

    // Progress state shared by the threads.
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
                      " label=" + jobs[jobIndex].label + " kind=" + e.kind +
                      rusage + " message=" + e.message);
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

        // Graceful shutdown: a queued job observed after the stop signal
        // never starts. It gets neither a Report nor a failure row, and
        // is not recorded in the manifest, so --resume re-runs it.
        if (opts.handleSignals && sweepStopRequested()) {
            jr.skipped = true;
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

        if (opts.isolate) {
            jr = runJobIsolated(jobs[i], opts);
        } else {
            jr.ok = runJobInProcess(jobs[i], &jr.report, &jr.error);
        }

        // A failed job still counts as done: progress always reaches
        // total and the ETA is computed from every finished job.
        std::lock_guard<std::mutex> lock(mtx);
        ++done;
        if (!jr.ok) {
            ++failed;
        }
        manifest.record(jobs[i], i, jr);
        postProgress(i, jr);
    };

    // Indices below programs.size() build, the rest run points, so every
    // build starts before any point: a point only ever waits on a build
    // that another thread is already running. Forked children must
    // inherit every Program, so an isolated sweep ends its builds before
    // it starts a point.
    auto step = [&](std::size_t k) {
        if (k < programs.size()) {
            build(*programs[k]);
        } else {
            runOne(points[k - programs.size()]);
        }
    };
    if (opts.isolate) {
        forEachIndex(threads, programs.size(), step);
        forEachIndex(threads, points.size(), [&](std::size_t k) {
            step(programs.size() + k);
        });
    } else {
        forEachIndex(threads, programs.size() + points.size(), step);
    }

    manifest.close();
    return results;
}

} // namespace udp
