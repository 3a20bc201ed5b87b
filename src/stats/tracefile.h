/**
 * @file
 * Chrome-trace (Trace Event Format) exporter: renders the telemetry
 * layer's bounded event log — pipeline stalls, resteers, prefetch
 * lifecycles, UDP events and interval counters — as a JSON file
 * loadable in chrome://tracing or https://ui.perfetto.dev.
 *
 * Mapping (docs/TELEMETRY.md):
 *  - one Chrome "process" per job (pid = job index + 1, named after the
 *    workload/config), with one thread per telemetry track;
 *  - TraceEvent::Slice  -> ph "X" complete slices (icache-miss stalls);
 *  - TraceEvent::Instant-> ph "i" thread-scoped instants (resteers, ...);
 *  - TraceEvent::Counter-> ph "C" counter samples (IPC, MPKI, FTQ depth);
 *  - prefetch lifecycles -> ph "b"/"e" async spans keyed by line address,
 *    so overlapping in-flight prefetches render as separate arrows.
 * Timestamps are microseconds in the file; we map 1 cycle = 1 us.
 *
 * Layout: the first line opens the object and its "traceEvents" array,
 * then comes one record per line, each but the last followed by a
 * comma, and the last line closes the array. Records are job-ordered and
 * hold no host timing but the self-profile's, so a rerun of the same
 * jobs writes the same bytes. A reader may take the file one line at a
 * time (tools/trace_summary.py does).
 */

#ifndef UDP_STATS_TRACEFILE_H
#define UDP_STATS_TRACEFILE_H

#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "stats/telemetry.h"

namespace udp {

/** One simulated run to render (name becomes the process label). */
struct TraceJob
{
    std::string name;
    std::shared_ptr<const TelemetrySnapshot> snap;
    /** Optional cycle-loop self-profile (Report::profile): rendered as a
     *  "self_profile" counter track — per-interval host microseconds per
     *  phase, stacked (docs/OBSERVABILITY.md). */
    std::shared_ptr<const obs::ProfileSnapshot> prof;
};

/** The bytes writeChromeTrace() writes, rendered into memory by the same
 *  code. For tests and small traces: the string holds the whole file. */
std::string chromeTraceJson(const std::vector<TraceJob>& jobs);

/**
 * Streams the trace to "@p path.tmp", one record at a time through a
 * 64 KiB stdio buffer, then renames it to @p path. Memory holds the
 * snapshots' event logs, never the file. Returns false on an I/O
 * failure, after removing the .tmp file; an existing @p path is then
 * left as it was.
 */
bool writeChromeTrace(const std::string& path,
                      const std::vector<TraceJob>& jobs);

} // namespace udp

#endif // UDP_STATS_TRACEFILE_H
