#include "sim/manifest.h"

#include <cstdio>
#include <set>

#include "stats/sink.h"

namespace udp {

namespace {

// --- FNV-1a 64 over a canonical field sequence -----------------------------

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ull;

void
hashBytes(std::uint64_t* h, const void* data, std::size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        *h ^= p[i];
        *h *= kFnvPrime;
    }
}

void
hashU64(std::uint64_t* h, std::uint64_t v)
{
    // Fixed-width little-endian feed: independent of host struct layout.
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) {
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    hashBytes(h, b, sizeof(b));
}

void
hashStr(std::uint64_t* h, const std::string& s)
{
    hashU64(h, s.size());
    hashBytes(h, s.data(), s.size());
}

void
hashDouble(std::uint64_t* h, double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    hashU64(h, bits);
}

// --- job hashes are 16 lowercase hex digits -------------------------------

std::string
hexOf(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
hexTo(const std::string& s, std::uint64_t* out)
{
    if (s.size() != 16) {
        return false;
    }
    std::uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9') {
            v |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    *out = v;
    return true;
}

} // namespace

std::uint64_t
sweepJobHash(const SweepJob& job, std::size_t index)
{
    std::uint64_t h = kFnvOffset;
    hashU64(&h, index);
    hashStr(&h, job.label);

    // Workload identity: matches the Program cache key plus the outcome
    // seed inputs that shape the instruction stream.
    const Profile& p = job.profile;
    hashStr(&h, p.name);
    hashU64(&h, p.seed);
    hashU64(&h, p.codeFootprintKB);

    hashU64(&h, job.opts.warmupInstrs);
    hashU64(&h, job.opts.measureInstrs);

    // Configuration fingerprint: every knob the presets and in-tree
    // benches vary. Jobs differing only outside this list must carry
    // distinct labels (see header).
    const SimConfig& c = job.config;
    hashU64(&h, c.ftqCapacity);
    hashU64(&h, c.ftqPhysical);
    hashU64(&h, c.udpEnabled ? 1 : 0);
    hashU64(&h, c.eipEnabled ? 1 : 0);
    hashU64(&h, c.fdip.enabled ? 1 : 0);
    hashU64(&h, c.fdip.blocksPerCycle);
    hashU64(&h, static_cast<std::uint64_t>(c.uftq.mode));
    hashDouble(&h, c.uftq.aur);
    hashDouble(&h, c.uftq.atr);
    hashU64(&h, c.mem.l1iSize);
    hashU64(&h, c.mem.l1iAssoc);
    hashU64(&h, c.mem.perfectIcache ? 1 : 0);
    hashU64(&h, c.mem.l1iPrefetchDemoteL2 ? 1 : 0);
    hashU64(&h, c.udp.confidence.threshold);
    hashU64(&h, c.udp.usefulSet.bits1);
    hashU64(&h, c.udp.usefulSet.bits2);
    hashU64(&h, c.udp.usefulSet.bits4);
    hashU64(&h, c.udp.usefulSet.coalesceBufferSize);
    hashU64(&h, c.udp.usefulSet.infiniteStorage ? 1 : 0);
    hashU64(&h, static_cast<std::uint64_t>(c.udp.seniority.flushPolicy));
    hashU64(&h, c.watchdog.retireStallCycles);
    hashU64(&h, c.watchdog.maxCycles);
    hashU64(&h, c.watchdog.invariantPeriod);
    hashU64(&h, static_cast<std::uint64_t>(c.fault.kind));
    hashU64(&h, c.fault.triggerCycle);
    hashU64(&h, c.fault.seed);
    hashU64(&h, c.fault.delay);
    return h;
}

std::string
manifestEntryToJsonLine(const ManifestEntry& e)
{
    std::string out = "{\"hash\":\"" + hexOf(e.hash) +
                      "\",\"index\":" + std::to_string(e.index) +
                      ",\"workload\":\"" + jsonEscape(e.workload) +
                      "\",\"config\":\"" + jsonEscape(e.label) + "\"";
    if (e.ok) {
        out += ",\"status\":\"ok\",\"report\":" + reportToJsonLine(e.report);
    } else {
        out += ",\"status\":\"failed\",\"error_kind\":\"" +
               jsonEscape(e.errorKind) + "\"";
    }
    out += '}';
    return out;
}

bool
manifestEntryFromJsonLine(const std::string& line, ManifestEntry* out)
{
    ManifestEntry e;
    std::string hash_hex;
    std::string status;
    std::string report;
    std::set<std::string> seen;
    auto field = [&](const std::string& key, const std::string& value,
                     JsonKind kind) {
        std::string* text = key == "hash"         ? &hash_hex
                            : key == "workload"   ? &e.workload
                            : key == "config"     ? &e.label
                            : key == "status"     ? &status
                            : key == "error_kind" ? &e.errorKind
                                                  : nullptr;
        if (text == nullptr && key != "index" && key != "report") {
            return true; // unknown, such as the "worker" of older runs
        }
        // A line spliced from two records can repeat a key.
        if (!seen.insert(key).second) {
            return false;
        }
        if (text != nullptr) {
            *text = value;
            return kind == JsonKind::String;
        }
        if (key == "index") {
            std::uint64_t index = 0;
            if (kind != JsonKind::Number || !parseCount(value, &index)) {
                return false;
            }
            e.index = static_cast<std::size_t>(index);
            return true;
        }
        report = value;
        return kind == JsonKind::Object;
    };
    if (!walkJsonObject(line, field) || !hexTo(hash_hex, &e.hash)) {
        return false;
    }
    for (const char* key : {"index", "workload", "config", "status"}) {
        if (seen.count(key) == 0) {
            return false;
        }
    }
    if (status == "ok") {
        // Only a Report's own serialization is accepted, byte for byte.
        if (!reportFromJsonLine(report, &e.report) ||
            reportToJsonLine(e.report) != report) {
            return false;
        }
        e.ok = true;
    } else if (status != "failed") {
        return false;
    }
    *out = std::move(e);
    return true;
}

bool
manifestEntryIsConsistent(const ManifestEntry& e)
{
    return !e.ok || (e.report.workload == e.workload &&
                     e.report.configName == e.label);
}

bool
SweepManifest::open(const std::string& path, bool resume)
{
    entries.clear();
    completedLoaded = 0;
    if (resume) {
        std::ifstream in(path);
        std::string line;
        while (in.is_open() && std::getline(in, line)) {
            ManifestEntry e;
            if (!manifestEntryFromJsonLine(line, &e) ||
                !manifestEntryIsConsistent(e)) {
                continue; // malformed, truncated, or spliced line
            }
            entries[e.hash] = std::move(e); // latest record wins
        }
        for (const auto& [hash, e] : entries) {
            (void)hash;
            if (e.ok) {
                ++completedLoaded;
            }
        }
    }
    out.open(path, resume ? (std::ios::out | std::ios::app)
                          : (std::ios::out | std::ios::trunc));
    if (!out.is_open()) {
        std::fprintf(stderr, "[sweep] cannot open manifest \"%s\"\n",
                     path.c_str());
        return false;
    }
    return true;
}

const ManifestEntry*
SweepManifest::findCompleted(std::uint64_t hash) const
{
    auto it = entries.find(hash);
    if (it == entries.end() || !it->second.ok) {
        return nullptr;
    }
    return &it->second;
}

void
SweepManifest::record(const ManifestEntry& e)
{
    if (!out.is_open()) {
        return;
    }
    std::string line = manifestEntryToJsonLine(e);
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
}

void
SweepManifest::close()
{
    if (out.is_open()) {
        out.close();
    }
}

} // namespace udp
