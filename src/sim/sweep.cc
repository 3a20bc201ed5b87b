#include "sim/sweep.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
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

/** Filesystem-safe version of a job label. */
std::string
sanitizeLabel(const std::string& label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("job") : out;
}

/**
 * Writes a failure's diagnostics under @p dir; returns the file path, or
 * "" when the write failed (the dump stays available in JobResult).
 */
std::string
writeFailureDump(const std::string& dir, const std::string& label,
                 std::size_t index, const JobError& err)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        sweepLine("warning: dump_dir_error dir=" + dir +
                  " error=" + ec.message());
        return "";
    }
    std::string path = dir + "/" + sanitizeLabel(label) + "-" +
                       std::to_string(index) + ".dump.txt";
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
        sweepLine("warning: dump_open_error path=" + path);
        return "";
    }
    out << err.message << '\n';
    if (!err.dump.empty()) {
        out << err.dump;
    }
    if (!err.stderrTail.empty()) {
        out << "--- child stderr tail ---\n" << err.stderrTail;
        if (err.stderrTail.back() != '\n') {
            out << '\n';
        }
    }
    return path;
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
#ifdef _WIN32
        std::signal(SIGINT, sweepStopHandler);
        std::signal(SIGTERM, sweepStopHandler);
#else
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sweepStopHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESETHAND;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
#endif
    }

    ~SignalGuard()
    {
        if (!active) {
            return;
        }
#ifdef _WIN32
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
#else
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
#endif
    }

    SignalGuard(const SignalGuard&) = delete;
    SignalGuard& operator=(const SignalGuard&) = delete;

  private:
    bool active;
#ifndef _WIN32
    struct sigaction oldInt {};
    struct sigaction oldTerm {};
#endif
};

/**
 * Runs one job to a JobResult under @p opts: the watchdog budget, the
 * retry loop, optional fork isolation (@p isolate: requested and
 * supported), structured error capture and the failure dump. @p index
 * only names the dump file.
 */
JobResult
runJobChecked(const SweepJob& jobIn, std::size_t index,
              const SweepOptions& opts, bool isolate)
{
    JobResult jr;
    SweepJob job = jobIn; // local copy: the budget edit is per execution
    if (opts.jobCycleBudget != 0 && job.config.watchdog.maxCycles == 0) {
        job.config.watchdog.maxCycles = opts.jobCycleBudget;
    }
    const unsigned maxAttempts = opts.maxAttempts == 0 ? 1 : opts.maxAttempts;

    for (unsigned attempt = 1; attempt <= maxAttempts && !jr.ok; ++attempt) {
        jr.attempts = attempt;
        if (isolate) {
            ProcLimits limits;
            limits.memLimitBytes = opts.memLimitBytes;
            limits.cpuLimitSec = opts.cpuLimitSec;
            limits.wallLimitSec = opts.wallLimitSec;
            JobResult sub = runJobIsolated(job, limits);
            jr.ok = sub.ok;
            jr.report = std::move(sub.report);
            jr.error = std::move(sub.error);
            continue;
        }
        try {
            jr.report = runSim(job.profile, job.config, job.opts, job.label);
            jr.ok = true;
        } catch (const SimError& e) {
            jr.error = JobError{};
            jr.error.kind = e.kindName();
            jr.error.component = e.component();
            jr.error.message = e.what();
            jr.error.dump = e.dump();
            jr.error.cycle = e.cycle();
        } catch (const std::exception& e) {
            jr.error = JobError{};
            jr.error.kind = "exception";
            jr.error.message = e.what();
        } catch (...) {
            jr.error = JobError{};
            jr.error.kind = "exception";
            jr.error.message = "unknown exception";
        }
    }

    if (!jr.ok && !opts.dumpDir.empty()) {
        jr.error.dumpPath =
            writeFailureDump(opts.dumpDir, job.label, index, jr.error);
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

FailureRow
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

std::vector<JobResult>
runSweepChecked(const std::vector<SweepJob>& jobs, const SweepOptions& opts)
{
    const unsigned threads =
        opts.numThreads == 0 ? defaultJobs() : opts.numThreads;
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty()) {
        return results;
    }

    const bool isolate = opts.isolate && procIsolationSupported();
    if (opts.isolate && !isolate && !opts.quiet) {
        sweepLine("warning: isolation_unsupported fallback=in_process");
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
                Report r;
                if (!reportFromJsonLine(e->reportJson, &r)) {
                    continue; // unreadable record: just re-run the job
                }
                results[i].report = std::move(r);
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
            sweepLine("warning: job_failed job=" + std::to_string(jobIndex) +
                      " label=" + jobs[jobIndex].label +
                      " attempts=" + std::to_string(jr.attempts) +
                      " kind=" + jr.error.kind +
                      " message=" + jr.error.message);
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

        jr = runJobChecked(jobs[i], i, opts, isolate);

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
                e.reportJson = reportToJsonLine(jr.report);
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
        if (isolate) {
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
        if (isolate) {
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
