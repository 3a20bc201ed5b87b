/**
 * @file
 * Structured result sinks: serialize Reports as JSON lines and CSV so
 * benches emit machine-readable artifacts next to their printed tables.
 *
 * One row format, rendered in one place (sink.cc): "workload" and
 * "config" (strings), then every StatSet entry of the row in order; a
 * telemetry or profile row puts "row_type" first. A Report's schema
 * order is its field table, kReportFields (sim/runner.h). The key table
 * with each key's paper-figure provenance is in docs/EXPERIMENT_GUIDE.md.
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
 * error_kind, component, cycle, message, dump, signal and stderr_tail,
 * in that order. The "error_kind" key tells it apart from
 * report lines in the same stream. It is also the isolated child's
 * result-pipe message (sim/procexec.h). The child's rusage is left out:
 * it differs from run to run, and the sweep prints it on its job_failed
 * stderr line instead.
 */
std::string failureToJsonLine(const std::string& workload,
                              const std::string& config,
                              const JobError& error);

/**
 * Parses one failureToJsonLine() line back; the round trip reproduces
 * every field. Returns false (leaving the outputs unspecified) unless
 * @p line is exactly one such object: a truncated line, trailing bytes,
 * an unknown key or a report line (no "error_kind") are rejected.
 */
bool failureFromJsonLine(const std::string& line, std::string* workload,
                         std::string* config, JobError* error);

/** One JSON object (single line, no trailing newline) for @p r. */
std::string reportToJsonLine(const Report& r);

/** The CSV header row (no trailing newline) matching reportToCsvRow. */
std::string reportCsvHeader();

/** One CSV data row (no trailing newline) for @p r. */
std::string reportToCsvRow(const Report& r);

/**
 * Parses one reportToJsonLine() line back into @p out, assigning each
 * key through kReportFields. The round trip is exact: numbers use
 * shortest round-trip rendering, so re-serializing the parsed Report
 * reproduces the input byte for byte. Used by the checkpoint manifest
 * (sim/manifest.h) and the isolated-execution pipe protocol
 * (sim/procexec.h). Returns false (leaving @p out unspecified) on
 * malformed input, trailing bytes, unknown keys, or a failure row (key
 * "error_kind").
 */
bool reportFromJsonLine(const std::string& line, Report* out);

// ----- telemetry rows (docs/TELEMETRY.md has the schema tables) ---------

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
 * Written to figures.profile.jsonl; consumed by tools/trace_summary.py.
 */
std::string profileSummaryToJsonLine(const std::string& workload,
                                     const std::string& config,
                                     const obs::ProfileSnapshot& prof);

/**
 * What ReportSink and TelemetrySink share: an optional JSON-lines file
 * and an optional CSV file.
 *
 * Crash-safe: every row is written as one complete line in a single
 * buffered write and flushed immediately, so a sweep killed mid-run
 * (SIGKILL, OOM, power loss) leaves artifacts whose complete lines all
 * parse — at worst the final line is truncated and must be dropped by
 * the reader (docs/ROBUSTNESS.md, "Crash-safe artifacts").
 */
class LineFiles
{
  public:
    /** True when at least one file is open. */
    bool active() const { return json.is_open() || csv.is_open(); }

    /** Flushes and closes both files (also done on destruction). */
    void close();

  protected:
    /** Opens (truncates) @p path into @p file; on failure prints one
     *  error line naming @p what and returns false. */
    static bool open(std::ofstream& file, const std::string& path,
                     const char* what);

    /** Appends @p line and its newline to @p file, when open, and
     *  flushes. */
    static void writeLine(std::ofstream& file, std::string line);

    std::ofstream json;
    std::ofstream csv;
};

/**
 * Writes telemetry interval rows (JSONL and/or CSV) and per-run summary
 * rows (JSONL only). Opening no file makes the writers no-ops.
 */
class TelemetrySink : public LineFiles
{
  public:
    /** Opens (truncates) @p path for interval + summary JSON lines. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for interval CSV (header included). */
    bool openCsv(const std::string& path);

    /** Appends every interval row of @p snap, then its summary row. */
    void writeRun(const std::string& workload, const std::string& config,
                  const TelemetrySnapshot& snap);
};

/**
 * Writes Reports to an optional JSON-lines file and/or an optional CSV
 * file (with header). Opening no file makes write() a no-op, so benches
 * can call it unconditionally.
 */
class ReportSink : public LineFiles
{
  public:
    /** Opens (truncates) @p path for JSON lines; returns success. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for CSV and writes the header row;
     *  returns success. */
    bool openCsv(const std::string& path);

    /** Appends @p r to every open file. */
    void write(const Report& r);

    /** Appends each report in order to every open file. */
    void writeAll(const std::vector<Report>& reports);

    /** Appends the failure row @p row (failureToJsonLine) to the
     *  JSON-lines file, when open; the CSV holds Reports only. */
    void writeFailure(const std::string& row);
};

} // namespace udp

#endif // UDP_STATS_SINK_H
