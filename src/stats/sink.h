/**
 * @file
 * Structured result sinks: serialize Reports as JSON lines and CSV so
 * benches emit machine-readable artifacts next to their printed tables.
 *
 * The serialized schema is stable: "workload" and "config" (strings)
 * followed by every Report::toStatSet() key in declaration order. The
 * authoritative key table, with each key's paper-figure provenance, is in
 * docs/EXPERIMENT_GUIDE.md.
 */

#ifndef UDP_STATS_SINK_H
#define UDP_STATS_SINK_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "stats/telemetry.h"

namespace udp {

struct JobError;
struct Report;

/** Shortest round-trip decimal rendering of @p v ("400000", "0.85");
 *  integers serialize plain, never in exponent notation. */
std::string formatNumber(double v);

/** Room formatNumber() needs: the longest shortest-round-trip double,
 *  "-2.2250738585072014e-308", is 24 characters. */
inline constexpr std::size_t kNumberChars = 32;

/** formatNumber(@p v) written to @p out, which holds kNumberChars;
 *  returns the end of the text. The one rendering of a number. */
char* formatNumber(char* out, double v);

/** JSON string escaping (quotes, backslash, control characters). Shared
 *  with the sweep manifest and the Chrome-trace writer. */
std::string jsonEscape(const std::string& s);

/** Inverse of jsonEscape(); returns false on a malformed escape. */
bool jsonUnescape(const std::string& s, std::string* out);

/** What walkJsonObject() hands over as one pair's value. */
enum class JsonKind : std::uint8_t {
    Number, ///< the number's text
    String, ///< the string, unescaped
    Object, ///< a nested object's raw text, braces included
};

/** Receives one key/value pair of walkJsonObject(); false rejects it. */
using JsonField = std::function<bool(const std::string& key,
                                     const std::string& value,
                                     JsonKind kind)>;

/**
 * Walks the JSON object that is all of @p line: "{", then "key":value
 * pairs separated by commas, then "}" as the last byte, with no
 * whitespace between tokens. Each pair goes to @p field. A nested
 * object ends at its matching brace; braces inside its strings do not
 * count. False when the line is anything else or @p field rejects a
 * pair. The one JSON reader of the report, failure and manifest lines.
 */
bool walkJsonObject(const std::string& line, const JsonField& field);

/**
 * The failure row of one sweep point (docs/ROBUSTNESS.md has the schema
 * table): one JSON object on a single line, with keys workload, config,
 * error_kind, component, cycle, attempts, message, dump, signal and
 * stderr_tail, in that order. The "error_kind" key tells it apart from
 * report lines in the same stream. It is also the isolated child's
 * result-pipe message (sim/procexec.h). The child's rusage is left out:
 * it differs from run to run, and the sweep prints it on its job_failed
 * stderr line instead.
 */
std::string failureToJsonLine(const std::string& workload,
                              const std::string& config, unsigned attempts,
                              const JobError& error);

/**
 * Parses one failureToJsonLine() line back; the round trip reproduces
 * every field. Returns false (leaving the outputs unspecified) unless
 * @p line is exactly one such object: a truncated line, trailing bytes,
 * an unknown key or a report line (no "error_kind") are rejected.
 */
bool failureFromJsonLine(const std::string& line, std::string* workload,
                         std::string* config, unsigned* attempts,
                         JobError* error);

/** Ordered list of schema keys: "workload", "config", then every numeric
 *  StatSet key of Report. */
std::vector<std::string> reportSchemaKeys();

/** One JSON object (single line, no trailing newline) for @p r. */
std::string reportToJsonLine(const Report& r);

/** The CSV header row (no trailing newline) matching reportToCsvRow. */
std::string reportCsvHeader();

/** One CSV data row (no trailing newline) for @p r. */
std::string reportToCsvRow(const Report& r);

/**
 * Parses one reportToJsonLine() line back into @p out. The round trip is
 * exact: numbers use shortest round-trip rendering, so re-serializing the
 * parsed Report reproduces the input byte for byte. Used by the
 * checkpoint manifest (sim/manifest.h) and the isolated-execution pipe
 * protocol (sim/procexec.h). Returns false (leaving @p out unspecified)
 * on malformed input, trailing bytes, unknown keys, or a failure row
 * (key "error_kind").
 */
bool reportFromJsonLine(const std::string& line, Report* out);

// ----- telemetry rows (docs/TELEMETRY.md has the schema tables) ---------

/** Ordered interval-row schema keys: "workload", "config", then every
 *  numeric IntervalRow field. */
std::vector<std::string> intervalSchemaKeys();

/** One JSON object (single line) for an interval row. Distinguishable in
 *  a mixed stream by "row_type":"interval". */
std::string intervalToJsonLine(const std::string& workload,
                               const std::string& config,
                               const IntervalRow& row);

/** The CSV header row (no trailing newline) matching intervalToCsvRow. */
std::string intervalCsvHeader();

/** One CSV data row (no trailing newline) for an interval row. */
std::string intervalToCsvRow(const std::string& workload,
                             const std::string& config,
                             const IntervalRow& row);

/** One JSON object (single line) for a run's end-of-window telemetry
 *  summary ("row_type":"telemetry_summary" + TelemetrySnapshot::toStatSet
 *  entries). Consumed by tools/trace_summary.py. */
std::string telemetrySummaryToJsonLine(const std::string& workload,
                                       const std::string& config,
                                       const TelemetrySnapshot& snap);

/**
 * One JSON object (single line) for a run's cycle-loop self-profile
 * ("row_type":"profile_summary" + cycles/total_sec and per-phase
 * phase_<name>_sec / phase_<name>_pct keys, docs/OBSERVABILITY.md).
 * Consumed by tools/trace_summary.py and BENCH_simspeed rows.
 */
std::string profileSummaryToJsonLine(const std::string& workload,
                                     const std::string& config,
                                     const obs::ProfileSnapshot& prof);

/**
 * Writes telemetry interval rows (JSONL and/or CSV) and per-run summary
 * rows (JSONL only). Same crash-safe line-atomic discipline as
 * ReportSink. Opening no sink makes the writers no-ops.
 */
class TelemetrySink
{
  public:
    TelemetrySink() = default;

    /** Opens (truncates) @p path for interval + summary JSON lines. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for interval CSV (header included). */
    bool openCsv(const std::string& path);

    /** Appends every interval row of @p snap, then its summary row. */
    void writeRun(const std::string& workload, const std::string& config,
                  const TelemetrySnapshot& snap);

    /** True when at least one sink is open. */
    bool active() const { return json.is_open() || csv.is_open(); }

    /** Flushes and closes all sinks (also done on destruction). */
    void close();

  private:
    std::ofstream json;
    std::ofstream csv;
};

/**
 * Writes Reports to an optional JSON-lines file and/or an optional CSV
 * file (with header). Opening no sink makes write() a no-op, so benches
 * can call it unconditionally.
 *
 * Crash-safe: every row is written as one complete line in a single
 * buffered write and flushed immediately, so a sweep killed mid-run
 * (SIGKILL, OOM, power loss) leaves artifacts whose complete lines all
 * parse — at worst the final line is truncated and must be dropped by
 * the reader (docs/ROBUSTNESS.md, "Crash-safe artifacts").
 */
class ReportSink
{
  public:
    ReportSink() = default;

    /** Opens (truncates) @p path for JSON lines; returns success. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for CSV and writes the header row;
     *  returns success. */
    bool openCsv(const std::string& path);

    /** Appends @p r to every open sink. */
    void write(const Report& r);

    /** Appends each report in order to every open sink. */
    void writeAll(const std::vector<Report>& reports);

    /** Appends the failure row @p row (failureToJsonLine) to the
     *  JSON-lines file, when open; the CSV holds Reports only. */
    void writeFailure(const std::string& row);

    /** True when at least one sink is open. */
    bool active() const { return json.is_open() || csv.is_open(); }

    /** Flushes and closes all sinks (also done on destruction). */
    void close();

  private:
    std::ofstream json;
    std::ofstream csv;
};

} // namespace udp

#endif // UDP_STATS_SINK_H
