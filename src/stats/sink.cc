#include "stats/sink.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/runner.h"
#include "sim/sweep.h"

namespace udp {

namespace {

/**
 * Crash-safe row append: the complete line (terminator included) goes to
 * the stream in one buffered write and is flushed before returning, so a
 * killed process can lose at most a partial *final* line — every earlier
 * line is intact and parseable (docs/ROBUSTNESS.md).
 */
void
writeLineAtomic(std::ofstream& out, std::string line)
{
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
}

} // namespace

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

} // namespace

std::vector<std::string>
reportSchemaKeys()
{
    std::vector<std::string> keys = {"workload", "config"};
    // Bind the StatSet before iterating: entries() references its
    // internals, and a temporary would die before the loop body.
    StatSet stats = Report{}.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        (void)value;
        keys.push_back(name);
    }
    return keys;
}

std::string
reportToJsonLine(const Report& r)
{
    std::string out = "{\"workload\":\"" + jsonEscape(r.workload) +
                      "\",\"config\":\"" + jsonEscape(r.configName) + "\"";
    StatSet stats = r.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += '}';
    return out;
}

std::string
reportCsvHeader()
{
    std::string out;
    for (const std::string& key : reportSchemaKeys()) {
        if (!out.empty()) {
            out += ',';
        }
        out += key;
    }
    return out;
}

std::string
reportToCsvRow(const Report& r)
{
    std::string out = csvEscape(r.workload) + ',' + csvEscape(r.configName);
    StatSet stats = r.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        (void)name;
        out += ',' + formatNumber(value);
    }
    return out;
}

namespace {

/** Assigns one parsed numeric stat to its Report field; the key table
 *  mirrors Report::toStatSet() (tested by Sink.ReportJsonRoundTrip). */
bool
setReportStat(Report* r, const std::string& key, double v)
{
    auto u64 = [v] { return static_cast<std::uint64_t>(v); };
    if (key == "instructions") {
        r->instructions = u64();
    } else if (key == "cycles") {
        r->cycles = u64();
    } else if (key == "ipc") {
        r->ipc = v;
    } else if (key == "icache_mpki") {
        r->icacheMpki = v;
    } else if (key == "mshr_hits_pki") {
        r->mshrHitsPki = v;
    } else if (key == "timeliness") {
        r->timeliness = v;
    } else if (key == "l1_hit_ratio") {
        r->l1HitRatio = v;
    } else if (key == "lost_instr_per_kilo") {
        r->lostInstrPerKilo = v;
    } else if (key == "prefetches_emitted") {
        r->prefetchesEmitted = u64();
    } else if (key == "onpath_ratio") {
        r->onPathRatio = v;
    } else if (key == "usefulness") {
        r->usefulness = v;
    } else if (key == "usefulness_hw") {
        r->usefulnessHw = v;
    } else if (key == "avg_ftq_occupancy") {
        r->avgFtqOccupancy = v;
    } else if (key == "branch_mpki") {
        r->branchMpki = v;
    } else if (key == "cond_mispredict_rate") {
        r->condMispredictRate = v;
    } else if (key == "resteers") {
        r->resteers = u64();
    } else if (key == "decode_corrections") {
        r->decodeCorrections = u64();
    } else if (key == "udp_dropped") {
        r->udpDropped = u64();
    } else if (key == "udp_filtered_emits") {
        r->udpFilteredEmits = u64();
    } else if (key == "udp_learned") {
        r->udpLearned = u64();
    } else {
        return false;
    }
    return true;
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
        // An unknown key, or a failure row ("error_kind"), is rejected.
        return kind == JsonKind::Number && parseNumber(value, &v) &&
               setReportStat(&r, key, v);
    };
    if (!walkJsonObject(line, field)) {
        return false;
    }
    *out = std::move(r);
    return true;
}

std::string
failureToJsonLine(const std::string& workload, const std::string& config,
                  unsigned attempts, const JobError& e)
{
    return "{\"workload\":\"" + jsonEscape(workload) +
           "\",\"config\":\"" + jsonEscape(config) +
           "\",\"error_kind\":\"" + jsonEscape(e.kind) +
           "\",\"component\":\"" + jsonEscape(e.component) +
           "\",\"cycle\":" + std::to_string(e.cycle) +
           ",\"attempts\":" + std::to_string(attempts) +
           ",\"message\":\"" + jsonEscape(e.message) +
           "\",\"dump\":\"" + jsonEscape(e.dump) +
           "\",\"signal\":\"" + jsonEscape(e.signal) +
           "\",\"stderr_tail\":\"" + jsonEscape(e.stderrTail) + "\"}";
}

bool
failureFromJsonLine(const std::string& line, std::string* workload,
                    std::string* config, unsigned* attempts,
                    JobError* error)
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
        if (kind != JsonKind::Number) {
            return false;
        }
        if (key == "attempts") {
            return parseNumber(value, attempts);
        }
        return key == "cycle" && parseNumber(value, &e.cycle);
    };
    if (!walkJsonObject(line, field) || !tagged) {
        return false;
    }
    *error = std::move(e);
    return true;
}

bool
ReportSink::openJson(const std::string& path)
{
    json.open(path, std::ios::out | std::ios::trunc);
    if (!json.is_open()) {
        std::fprintf(stderr, "[udp] cannot open JSON sink \"%s\"\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
ReportSink::openCsv(const std::string& path)
{
    csv.open(path, std::ios::out | std::ios::trunc);
    if (!csv.is_open()) {
        std::fprintf(stderr, "[udp] cannot open CSV sink \"%s\"\n",
                     path.c_str());
        return false;
    }
    writeLineAtomic(csv, reportCsvHeader());
    return true;
}

void
ReportSink::write(const Report& r)
{
    if (json.is_open()) {
        writeLineAtomic(json, reportToJsonLine(r));
    }
    if (csv.is_open()) {
        writeLineAtomic(csv, reportToCsvRow(r));
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
    if (json.is_open()) {
        writeLineAtomic(json, row);
    }
}

void
ReportSink::close()
{
    if (json.is_open()) {
        json.close();
    }
    if (csv.is_open()) {
        csv.close();
    }
}

// ----- telemetry rows ---------------------------------------------------

namespace {

/** Ordered (key, value) pairs of one interval row's numeric fields. */
std::vector<std::pair<std::string, double>>
intervalEntries(const IntervalRow& row)
{
    return {
        {"interval", static_cast<double>(row.index)},
        {"cycle_start", static_cast<double>(row.cycleStart)},
        {"cycle_end", static_cast<double>(row.cycleEnd)},
        {"instructions", static_cast<double>(row.instructions)},
        {"ipc", row.ipc},
        {"icache_mpki", row.icacheMpki},
        {"ftq_occupancy", row.ftqOccupancy},
        {"prefetches_issued", static_cast<double>(row.prefetchesIssued)},
        {"pf_accuracy", row.pfAccuracy},
        {"pf_timely", static_cast<double>(row.pfTimely)},
        {"pf_late", static_cast<double>(row.pfLate)},
        {"pf_unused", static_cast<double>(row.pfUnused)},
    };
}

} // namespace

std::vector<std::string>
intervalSchemaKeys()
{
    std::vector<std::string> keys = {"workload", "config"};
    for (const auto& [name, value] : intervalEntries(IntervalRow{})) {
        (void)value;
        keys.push_back(name);
    }
    return keys;
}

std::string
intervalToJsonLine(const std::string& workload, const std::string& config,
                   const IntervalRow& row)
{
    std::string out = "{\"row_type\":\"interval\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) + "\"";
    for (const auto& [name, value] : intervalEntries(row)) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += "}";
    return out;
}

std::string
intervalCsvHeader()
{
    std::string out;
    for (const std::string& key : intervalSchemaKeys()) {
        if (!out.empty()) {
            out += ',';
        }
        out += key;
    }
    return out;
}

std::string
intervalToCsvRow(const std::string& workload, const std::string& config,
                 const IntervalRow& row)
{
    std::string out = csvEscape(workload) + ',' + csvEscape(config);
    for (const auto& [name, value] : intervalEntries(row)) {
        (void)name;
        out += ',' + formatNumber(value);
    }
    return out;
}

std::string
telemetrySummaryToJsonLine(const std::string& workload,
                           const std::string& config,
                           const TelemetrySnapshot& snap)
{
    std::string out = "{\"row_type\":\"telemetry_summary\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) + "\"";
    StatSet stats = snap.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += "}";
    return out;
}

std::string
profileSummaryToJsonLine(const std::string& workload,
                         const std::string& config,
                         const obs::ProfileSnapshot& prof)
{
    std::string out = "{\"row_type\":\"profile_summary\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) +
                      "\",\"cycles\":" + std::to_string(prof.cycles) +
                      ",\"total_sec\":" + formatNumber(prof.totalSec);
    for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        obs::ProfPhase p = static_cast<obs::ProfPhase>(i);
        std::string name = obs::profPhaseName(p);
        out += ",\"phase_" + name +
               "_sec\":" + formatNumber(prof.phaseSec[i]);
        out += ",\"phase_" + name +
               "_pct\":" + formatNumber(prof.phaseFrac(p) * 100.0);
    }
    out += "}";
    return out;
}

bool
TelemetrySink::openJson(const std::string& path)
{
    json.open(path, std::ios::out | std::ios::trunc);
    if (!json.is_open()) {
        std::fprintf(stderr, "[udp] cannot open telemetry JSON \"%s\"\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
TelemetrySink::openCsv(const std::string& path)
{
    csv.open(path, std::ios::out | std::ios::trunc);
    if (!csv.is_open()) {
        std::fprintf(stderr, "[udp] cannot open telemetry CSV \"%s\"\n",
                     path.c_str());
        return false;
    }
    writeLineAtomic(csv, intervalCsvHeader());
    return true;
}

void
TelemetrySink::writeRun(const std::string& workload,
                        const std::string& config,
                        const TelemetrySnapshot& snap)
{
    for (const IntervalRow& row : snap.intervals) {
        if (json.is_open()) {
            writeLineAtomic(json, intervalToJsonLine(workload, config, row));
        }
        if (csv.is_open()) {
            writeLineAtomic(csv, intervalToCsvRow(workload, config, row));
        }
    }
    if (json.is_open()) {
        writeLineAtomic(json,
                        telemetrySummaryToJsonLine(workload, config, snap));
    }
}

void
TelemetrySink::close()
{
    if (json.is_open()) {
        json.close();
    }
    if (csv.is_open()) {
        csv.close();
    }
}

} // namespace udp
