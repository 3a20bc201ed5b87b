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

#include "sim/sweep.h"

namespace udp {

/**
 * Runs @p job to completion in a forked child under the limits of
 * @p opts (memLimitBytes, cpuLimitSec, wallLimitSec) and returns its
 * JobResult. Never throws for child-side failures; the
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
 * the child's rusage (peak RSS, user/system CPU), and the last 4 KB of
 * its stderr.
 *
 * The child inherits the parent's built Programs via copy-on-write;
 * runSweepChecked builds every Program of its sweep before it forks, and
 * any other caller should prewarmProgram(job.profile) first, or the child
 * rebuilds it.
 */
JobResult runJobIsolated(const SweepJob& job, const SweepOptions& opts);

/** True when this binary was built under ASan/TSan — RLIMIT_AS is then
 *  skipped and memory-cap tests should be skipped too. */
bool procUnderSanitizer();

} // namespace udp

#endif // UDP_SIM_PROCEXEC_H
