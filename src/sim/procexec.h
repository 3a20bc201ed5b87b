/**
 * @file
 * Process-isolated sweep-job execution (docs/ROBUSTNESS.md, "Isolated
 * execution"): fork a child per job, apply POSIX rlimits, run the
 * simulation there, and stream the Report back over a pipe. A child that
 * segfaults, aborts, exhausts its memory/CPU budget, or overruns the
 * parent's wall-clock deadline is contained: the parent converts the
 * outcome into the structured JobError path (signal name, rusage, stderr
 * tail) and every other job still produces its Report.
 *
 * Clean-run determinism: a successful isolated job returns a Report
 * byte-identical to the same job run in-process. The child writes one
 * line to the pipe, the same JSONL row the sinks write (stats/sink.h):
 * the Report's exact round-trip serialization, or its failure row.
 */

#ifndef UDP_SIM_PROCEXEC_H
#define UDP_SIM_PROCEXEC_H

#include <cstddef>
#include <cstdint>

#include "sim/sweep.h"

namespace udp {

/** Resource limits applied to one isolated child. */
struct ProcLimits
{
    /** RLIMIT_AS cap in bytes; 0 = unlimited. Not applied under
     *  ASan/TSan builds (sanitizers reserve terabytes of shadow VA). */
    std::uint64_t memLimitBytes = 0;
    /** RLIMIT_CPU soft cap in seconds (SIGXCPU → error kind
     *  "cpu_limit"); 0 = unlimited. The hard cap is soft+5s (SIGKILL). */
    std::uint64_t cpuLimitSec = 0;
    /** Parent-enforced wall-clock deadline in seconds; on expiry the
     *  child is SIGKILLed and the job reports kind "timeout". 0 = none. */
    double wallLimitSec = 0.0;
    /** Bytes of the child's stderr retained (most recent first-in). */
    std::size_t stderrTailBytes = 4096;
};

/**
 * Runs @p job to completion in a forked child under @p limits and
 * returns its JobResult. Never throws for child-side failures; the
 * returned result's `error` classifies them:
 *
 * | error.kind  | Cause                                                  |
 * |-------------|--------------------------------------------------------|
 * | (SimError kinds) / "exception" | child ran, simulation failed; fields relayed verbatim |
 * | "mem_limit" | allocation failed under the RLIMIT_AS cap (bad_alloc)  |
 * | "crash"     | child died on a signal (SIGSEGV, SIGABRT, SIGBUS, ...) |
 * | "oom_kill"  | child was SIGKILLed by the kernel (cgroup/global OOM)  |
 * | "cpu_limit" | RLIMIT_CPU expired (SIGXCPU)                           |
 * | "timeout"   | wall-clock deadline expired (parent SIGKILL)           |
 * | "exit"      | child exited nonzero without a result line             |
 * | "protocol"  | child exited zero but did not write exactly one line   |
 *
 * Every failure also carries the terminating signal name (when any),
 * the child's rusage (peak RSS, user/system CPU), and the captured
 * stderr tail. JobResult::attempts is left 0 for the caller to fill.
 *
 * The child inherits the parent's built Programs via copy-on-write;
 * runSweepChecked builds every Program of its sweep before it forks, and
 * any other caller should prewarmProgram(job.profile) first, or the child
 * rebuilds it.
 */
JobResult runJobIsolated(const SweepJob& job, const ProcLimits& limits);

/** True when this binary was built under ASan/TSan — RLIMIT_AS is then
 *  skipped and memory-cap tests should be skipped too. */
bool procUnderSanitizer();

} // namespace udp

#endif // UDP_SIM_PROCEXEC_H
