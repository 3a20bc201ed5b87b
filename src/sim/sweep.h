/**
 * @file
 * The sweep engine: run a batch of independent simulations (one Report
 * each) on a worker pool, with deterministic result ordering. It is the
 * only way sweeps run, on one host: fork isolation per job
 * (SweepOptions::isolate, sim/procexec.h), the checkpoint manifest
 * behind --resume (sim/manifest.h) and graceful SIGINT/SIGTERM shutdown
 * are options of the same runner.
 *
 * Every sweep point is an isolated (Profile, SimConfig, RunOptions) triple;
 * simulations share only the immutable Program cache inside runSim(), so a
 * sweep of N jobs on any thread count produces bit-identical Reports to the
 * same jobs run serially (see docs/MODEL.md, "Determinism & concurrency").
 */

#ifndef UDP_SIM_SWEEP_H
#define UDP_SIM_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/simconfig.h"
#include "workload/profile.h"

namespace udp {

/** One sweep point: a workload under a configuration. */
struct SweepJob
{
    Profile profile;
    SimConfig config;
    RunOptions opts;
    /** Becomes Report::configName; also the label in sink artifacts. */
    std::string label;
};

/**
 * Structured description of one failed job (docs/ROBUSTNESS.md). Its one
 * encoding is the failure row of stats/sink.h (failureToJsonLine), which
 * the sinks write and the isolated child sends over its result pipe.
 */
struct JobError
{
    /** SimError kind name ("retire_stall", "cycle_budget", "invariant"),
     *  "mem_limit" for a failed allocation, "exception" for anything
     *  else that escaped runSim(), or one of the process-isolation kinds
     *  ("crash", "timeout", "cpu_limit", "oom_kill", "exit", "protocol"
     *  — sim/procexec.h). */
    std::string kind;
    /** Failing component for SimErrors ("backend", "mshr", ...), else "". */
    std::string component;
    /** what() of the final attempt's exception. */
    std::string message;
    /** Multi-component diagnostic dump (SimError only, possibly ""). */
    std::string dump;
    /** Simulated cycle of the failure (SimError only). */
    Cycle cycle = 0;

    // Process-isolation diagnostics (SweepOptions::isolate only).
    /** Terminating signal name ("SIGSEGV", "SIGKILL", ...), else "". */
    std::string signal;
    /** Captured tail of the child's stderr (bounded). */
    std::string stderrTail;
    /** Child peak resident set (ru_maxrss, KiB). This and the CPU
     *  seconds below differ from run to run: the sweep's job_failed
     *  stderr line prints them, the failure row leaves them out. */
    std::uint64_t maxRssKb = 0;
    /** Child user/system CPU seconds (rusage). */
    double userSec = 0.0;
    double sysSec = 0.0;
};

/** Outcome of one sweep job: a Report, or a structured error. */
struct JobResult
{
    Report report; ///< valid only when ok
    bool ok = false;
    /** Attempts consumed (1..SweepOptions::maxAttempts); 0 when the job
     *  was resumed from the manifest or skipped. */
    unsigned attempts = 0;
    JobError error; ///< valid only when !ok
    /** Satisfied from the checkpoint manifest without running (ok). */
    bool resumed = false;
    /** Never ran: graceful shutdown was requested before it started.
     *  Neither a Report nor a failure — callers should not emit a
     *  failure row for skipped jobs. */
    bool skipped = false;
};

/**
 * Runs @p job in this process: true with its Report, or false with
 * @p error describing what runSim() threw. The isolated child
 * (sim/procexec.h) runs its job through this too.
 */
bool runJobInProcess(const SweepJob& job, Report* report, JobError* error);

/** Progress snapshot passed to the progress callback after each job. */
struct SweepProgress
{
    /** Jobs finished (successfully or not) — failures count, so done
     *  always reaches total and the ETA stays honest. */
    std::size_t done = 0;
    std::size_t total = 0;
    /** Jobs that exhausted their attempts without a Report. */
    std::size_t failed = 0;
    /** Jobs satisfied from the checkpoint manifest (count toward done). */
    std::size_t resumed = 0;
    /** Jobs skipped by a graceful shutdown (count toward done). */
    std::size_t skipped = 0;
    double elapsedSec = 0.0;
    /** Remaining-time estimate from the mean per-job rate so far. */
    double etaSec = 0.0;
};

/** Sweep execution options. */
struct SweepOptions
{
    /** Worker count; 0 means defaultJobs() (UDP_JOBS env or
     *  std::thread::hardware_concurrency()). */
    unsigned numThreads = 0;
    /** Called after each completed job (from the completing thread, under
     *  the runner's progress lock). Replaces the stderr progress line. */
    std::function<void(const SweepProgress&)> onProgress;
    /** Suppresses the sweep's "[sweep] ..." stderr lines. */
    bool quiet = false;
    /** Attempts per job (>= 1): a failing job is retried maxAttempts-1
     *  times before its failure is recorded. Retries target transient
     *  host-level faults; a deterministic SimError will simply recur. */
    unsigned maxAttempts = 1;

    // --- process isolation (docs/ROBUSTNESS.md, "Isolated execution") ---
    /** Run every job in a forked child process (sim/procexec.h): a
     *  SIGSEGV, OOM kill, or runaway job is contained to that child and
     *  converted into a structured JobError instead of taking the sweep
     *  down. Clean-run Reports are bit-identical to in-process mode. */
    bool isolate = false;
    /** Per-child address-space cap (RLIMIT_AS), isolate only. 0 = none.
     *  Ignored under ASan/TSan (sanitizers reserve huge mappings). */
    std::uint64_t memLimitBytes = 0;
    /** Per-child CPU-seconds cap (RLIMIT_CPU), isolate only. 0 = none. */
    std::uint64_t cpuLimitSec = 0;
    /** Parent-enforced wall-clock deadline per child in seconds, isolate
     *  only; expiry SIGKILLs the child (error kind "timeout"). 0 = none. */
    double wallLimitSec = 0.0;

    // --- checkpoint/resume (docs/ROBUSTNESS.md, "Sweep manifest") ------
    /** JSONL manifest path (sim/manifest.h): every finished job is
     *  appended line-atomically as it completes, so an interrupted sweep
     *  can be resumed. Empty = no manifest. */
    std::string manifestPath;
    /** Load the manifest before running and skip jobs it already records
     *  as completed, replaying their Reports verbatim; failed jobs are
     *  re-run. Requires manifestPath. */
    bool resume = false;
    /** Install SIGINT/SIGTERM handlers for the duration of the batch:
     *  the first signal requests graceful shutdown (in-flight jobs drain
     *  and are recorded, queued jobs are marked skipped); a second
     *  signal falls back to the default disposition and kills the
     *  process (the flushed manifest still allows --resume). */
    bool handleSignals = false;
};

/** True once a graceful-shutdown signal was observed by the handlers
 *  installed via SweepOptions::handleSignals (sticky per batch). */
bool sweepStopRequested();

/** The signal number that requested the stop, or 0. */
int sweepStopSignal();

/**
 * Default worker count: the UDP_JOBS environment variable when it parses
 * as a positive integer (malformed values warn on stderr and are
 * ignored), otherwise std::thread::hardware_concurrency(), otherwise 1.
 */
unsigned defaultJobs();

/**
 * Runs every job of @p jobs on a pool of SweepOptions::numThreads workers
 * and returns one JobResult per job, in job order regardless of
 * completion order, bit-identical to a serial run of the same batch. A
 * crashing or hanging job never takes the batch down: its structured
 * error is recorded and every other job still produces its Report.
 */
std::vector<JobResult> runSweepChecked(const std::vector<SweepJob>& jobs,
                                       const SweepOptions& opts = {});

} // namespace udp

#endif // UDP_SIM_SWEEP_H
