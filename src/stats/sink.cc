#include "stats/sink.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/runner.h"
#include "sim/sweep.h"

namespace udp {

char*
formatNumber(char* out, double v)
{
    // Counters serialize as plain integers (not "4e+05"); everything else
    // uses the shortest representation that round-trips. The range test
    // comes first: converting NaN or a huge value is undefined.
    if (std::abs(v) < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
        return std::to_chars(out, out + kNumberChars,
                             static_cast<long long>(v))
            .ptr;
    }
    return std::to_chars(out, out + kNumberChars, v).ptr;
}

std::string
formatNumber(double v)
{
    char buf[kNumberChars];
    return std::string(buf, formatNumber(buf, v));
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
jsonUnescape(const std::string& s, std::string* out)
{
    out->clear();
    out->reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (c != '\\') {
            *out += c;
            continue;
        }
        if (++i >= s.size()) {
            return false;
        }
        switch (s[i]) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
            if (i + 4 >= s.size()) {
                return false;
            }
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                char h = s[++i];
                v <<= 4;
                if (h >= '0' && h <= '9') {
                    v |= static_cast<unsigned>(h - '0');
                } else if (h >= 'a' && h <= 'f') {
                    v |= static_cast<unsigned>(h - 'a' + 10);
                } else if (h >= 'A' && h <= 'F') {
                    v |= static_cast<unsigned>(h - 'A' + 10);
                } else {
                    return false;
                }
            }
            // jsonEscape only emits \u00xx for control bytes.
            *out += static_cast<char>(v & 0xFF);
            break;
        }
        default: return false;
        }
    }
    return true;
}

namespace {

/** CSV field escaping per RFC 4180 (quote when needed). */
std::string
csvEscape(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
        return s;
    }
    std::string out = "\"";
    for (char c : s) {
        if (c == '"') {
            out += "\"\"";
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

/**
 * The one JSON row: "row_type" (unless @p rowType is empty, as for a
 * Report), "workload", "config", then every entry of @p stats in order.
 */
std::string
jsonRow(const std::string& rowType, const std::string& workload,
        const std::string& config, const StatSet& stats)
{
    std::string out = "{";
    if (!rowType.empty()) {
        out += "\"row_type\":\"" + rowType + "\",";
    }
    out += "\"workload\":\"" + jsonEscape(workload) + "\",\"config\":\"" +
           jsonEscape(config) + "\"";
    for (const auto& [name, value] : stats.entries()) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += '}';
    return out;
}

/** The one CSV header: workload, config, then the keys of @p stats. */
std::string
csvHeader(const StatSet& stats)
{
    std::string out = "workload,config";
    for (const auto& [name, value] : stats.entries()) {
        (void)value;
        out += ',' + name;
    }
    return out;
}

/** The one CSV row, in csvHeader()'s column order. */
std::string
csvRow(const std::string& workload, const std::string& config,
       const StatSet& stats)
{
    std::string out = csvEscape(workload) + ',' + csvEscape(config);
    for (const auto& [name, value] : stats.entries()) {
        (void)name;
        out += ',' + formatNumber(value);
    }
    return out;
}

/** Parses all of @p text as one number of type T. */
template <class T>
bool
parseNumber(const std::string& text, T* out)
{
    std::from_chars_result res =
        std::from_chars(text.data(), text.data() + text.size(), *out);
    return res.ec == std::errc{} && res.ptr == text.data() + text.size();
}

/** Moves @p pos from the opening quote at s[pos] to one past the
 *  closing quote; false when the string does not close. */
bool
skipJsonString(const std::string& s, std::size_t* pos)
{
    if (*pos >= s.size() || s[*pos] != '"') {
        return false;
    }
    ++*pos;
    while (*pos < s.size() && s[*pos] != '"') {
        if (s[*pos] == '\\') {
            ++*pos; // skip the escaped character (covers \")
        }
        ++*pos;
    }
    if (*pos >= s.size()) {
        return false;
    }
    ++*pos; // closing quote
    return true;
}

/** Scans a quoted JSON string starting at s[pos] == '"'; leaves pos one
 *  past the closing quote and returns the unescaped content. */
bool
scanJsonString(const std::string& s, std::size_t* pos, std::string* out)
{
    const std::size_t start = *pos + 1;
    return skipJsonString(s, pos) &&
           jsonUnescape(s.substr(start, *pos - 1 - start), out);
}

/** Scans the object starting at s[pos] == '{' to its matching '}',
 *  skipping strings, so braces inside them do not count; leaves pos one
 *  past it and returns its raw text. */
bool
scanJsonObject(const std::string& s, std::size_t* pos, std::string* out)
{
    const std::size_t start = *pos;
    std::size_t depth = 0;
    while (*pos < s.size()) {
        if (s[*pos] == '"') {
            if (!skipJsonString(s, pos)) {
                return false;
            }
            continue;
        }
        const char c = s[(*pos)++];
        if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            *out = s.substr(start, *pos - start);
            return true;
        }
    }
    return false;
}

} // namespace

bool
walkJsonObject(const std::string& line, const JsonField& field)
{
    if (line.size() < 2 || line[0] != '{') {
        return false;
    }
    std::size_t pos = 1;
    if (line[pos] == '}') {
        return line.size() == 2;
    }
    while (true) {
        std::string key;
        if (!scanJsonString(line, &pos, &key) || pos >= line.size() ||
            line[pos] != ':') {
            return false;
        }
        ++pos;
        std::string value;
        JsonKind kind = JsonKind::Number;
        if (pos < line.size() && line[pos] == '"') {
            kind = JsonKind::String;
            if (!scanJsonString(line, &pos, &value)) {
                return false;
            }
        } else if (pos < line.size() && line[pos] == '{') {
            kind = JsonKind::Object;
            if (!scanJsonObject(line, &pos, &value)) {
                return false;
            }
        } else {
            std::size_t end = line.find_first_of(",}", pos);
            if (end == std::string::npos) {
                return false;
            }
            value = line.substr(pos, end - pos);
            pos = end;
        }
        if (!field(key, value, kind) || pos >= line.size()) {
            return false;
        }
        if (line[pos] == '}') {
            return pos + 1 == line.size();
        }
        if (line[pos] != ',') {
            return false;
        }
        ++pos;
    }
}

bool
reportFromJsonLine(const std::string& line, Report* out)
{
    Report r;
    auto field = [&r](const std::string& key, const std::string& value,
                      JsonKind kind) {
        if (key == "workload" || key == "config") {
            (key == "workload" ? r.workload : r.configName) = value;
            return kind == JsonKind::String;
        }
        double v = 0.0;
        if (kind != JsonKind::Number || !parseNumber(value, &v)) {
            return false;
        }
        for (const ReportField& f : kReportFields) {
            if (key == f.key) {
                if (f.count != nullptr) {
                    r.*f.count = static_cast<std::uint64_t>(v);
                } else {
                    r.*f.ratio = v;
                }
                return true;
            }
        }
        return false; // an unknown key, or a failure row's "error_kind"
    };
    if (!walkJsonObject(line, field)) {
        return false;
    }
    *out = std::move(r);
    return true;
}

std::string
reportToJsonLine(const Report& r)
{
    return jsonRow("", r.workload, r.configName, r.toStatSet());
}

std::string
reportCsvHeader()
{
    return csvHeader(Report{}.toStatSet());
}

std::string
reportToCsvRow(const Report& r)
{
    return csvRow(r.workload, r.configName, r.toStatSet());
}

std::string
failureToJsonLine(const std::string& workload, const std::string& config,
                  const JobError& e)
{
    return "{\"workload\":\"" + jsonEscape(workload) +
           "\",\"config\":\"" + jsonEscape(config) +
           "\",\"error_kind\":\"" + jsonEscape(e.kind) +
           "\",\"component\":\"" + jsonEscape(e.component) +
           "\",\"cycle\":" + std::to_string(e.cycle) +
           ",\"message\":\"" + jsonEscape(e.message) +
           "\",\"dump\":\"" + jsonEscape(e.dump) +
           "\",\"signal\":\"" + jsonEscape(e.signal) +
           "\",\"stderr_tail\":\"" + jsonEscape(e.stderrTail) + "\"}";
}

bool
failureFromJsonLine(const std::string& line, std::string* workload,
                    std::string* config, JobError* error)
{
    JobError e;
    bool tagged = false;
    auto field = [&](const std::string& key, const std::string& value,
                     JsonKind kind) {
        std::string* text = key == "workload"      ? workload
                            : key == "config"      ? config
                            : key == "error_kind"  ? &e.kind
                            : key == "component"   ? &e.component
                            : key == "message"     ? &e.message
                            : key == "dump"        ? &e.dump
                            : key == "signal"      ? &e.signal
                            : key == "stderr_tail" ? &e.stderrTail
                                                   : nullptr;
        if (text != nullptr) {
            tagged = tagged || key == "error_kind";
            *text = value;
            return kind == JsonKind::String;
        }
        return key == "cycle" && kind == JsonKind::Number &&
               parseNumber(value, &e.cycle);
    };
    if (!walkJsonObject(line, field) || !tagged) {
        return false;
    }
    *error = std::move(e);
    return true;
}

// ----- telemetry rows ---------------------------------------------------

namespace {

/** One interval row's numeric fields, in schema order. */
StatSet
intervalStats(const IntervalRow& row)
{
    StatSet s;
    s.add("interval", static_cast<double>(row.index));
    s.add("cycle_start", static_cast<double>(row.cycleStart));
    s.add("cycle_end", static_cast<double>(row.cycleEnd));
    s.add("instructions", static_cast<double>(row.instructions));
    s.add("ipc", row.ipc);
    s.add("icache_mpki", row.icacheMpki);
    s.add("ftq_occupancy", row.ftqOccupancy);
    s.add("prefetches_issued", static_cast<double>(row.prefetchesIssued));
    s.add("pf_accuracy", row.pfAccuracy);
    s.add("pf_timely", static_cast<double>(row.pfTimely));
    s.add("pf_late", static_cast<double>(row.pfLate));
    s.add("pf_unused", static_cast<double>(row.pfUnused));
    return s;
}

} // namespace

std::string
intervalToJsonLine(const std::string& workload, const std::string& config,
                   const IntervalRow& row)
{
    return jsonRow("interval", workload, config, intervalStats(row));
}

std::string
intervalCsvHeader()
{
    return csvHeader(intervalStats(IntervalRow{}));
}

std::string
intervalToCsvRow(const std::string& workload, const std::string& config,
                 const IntervalRow& row)
{
    return csvRow(workload, config, intervalStats(row));
}

std::string
telemetrySummaryToJsonLine(const std::string& workload,
                           const std::string& config,
                           const TelemetrySnapshot& snap)
{
    return jsonRow("telemetry_summary", workload, config, snap.toStatSet());
}

std::string
profileSummaryToJsonLine(const std::string& workload,
                         const std::string& config,
                         const obs::ProfileSnapshot& prof)
{
    StatSet s;
    s.add("cycles", static_cast<double>(prof.cycles));
    s.add("total_sec", prof.totalSec);
    for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        obs::ProfPhase p = static_cast<obs::ProfPhase>(i);
        std::string name = obs::profPhaseName(p);
        s.add("phase_" + name + "_sec", prof.phaseSec[i]);
        s.add("phase_" + name + "_pct", prof.phaseFrac(p) * 100.0);
    }
    return jsonRow("profile_summary", workload, config, s);
}

// ----- the two line files -----------------------------------------------

bool
LineFiles::open(std::ofstream& file, const std::string& path,
                const char* what)
{
    file.open(path, std::ios::out | std::ios::trunc);
    if (!file.is_open()) {
        std::fprintf(stderr, "[udp] cannot open %s \"%s\"\n", what,
                     path.c_str());
        return false;
    }
    return true;
}

void
LineFiles::writeLine(std::ofstream& file, std::string line)
{
    if (!file.is_open()) {
        return;
    }
    // The complete line, terminator included, goes out in one buffered
    // write and is flushed before returning, so a killed process can
    // lose at most a partial final line (docs/ROBUSTNESS.md).
    line += '\n';
    file.write(line.data(), static_cast<std::streamsize>(line.size()));
    file.flush();
}

void
LineFiles::close()
{
    if (json.is_open()) {
        json.close();
    }
    if (csv.is_open()) {
        csv.close();
    }
}

bool
ReportSink::openJson(const std::string& path)
{
    return open(json, path, "JSON sink");
}

bool
ReportSink::openCsv(const std::string& path)
{
    if (!open(csv, path, "CSV sink")) {
        return false;
    }
    writeLine(csv, reportCsvHeader());
    return true;
}

void
ReportSink::write(const Report& r)
{
    if (json.is_open()) {
        writeLine(json, reportToJsonLine(r));
    }
    if (csv.is_open()) {
        writeLine(csv, reportToCsvRow(r));
    }
}

void
ReportSink::writeAll(const std::vector<Report>& reports)
{
    for (const Report& r : reports) {
        write(r);
    }
}

void
ReportSink::writeFailure(const std::string& row)
{
    writeLine(json, row);
}

bool
TelemetrySink::openJson(const std::string& path)
{
    return open(json, path, "telemetry JSON");
}

bool
TelemetrySink::openCsv(const std::string& path)
{
    if (!open(csv, path, "telemetry CSV")) {
        return false;
    }
    writeLine(csv, intervalCsvHeader());
    return true;
}

void
TelemetrySink::writeRun(const std::string& workload,
                        const std::string& config,
                        const TelemetrySnapshot& snap)
{
    for (const IntervalRow& row : snap.intervals) {
        if (json.is_open()) {
            writeLine(json, intervalToJsonLine(workload, config, row));
        }
        if (csv.is_open()) {
            writeLine(csv, intervalToCsvRow(workload, config, row));
        }
    }
    if (json.is_open()) {
        writeLine(json, telemetrySummaryToJsonLine(workload, config, snap));
    }
}

} // namespace udp
