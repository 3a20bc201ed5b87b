#include "sim/manifest.h"

#include <cstdio>
#include <utility>

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

    // Workload identity: the Profile fields that name a workload; jobs
    // whose Profiles differ elsewhere carry distinct labels (see header).
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

namespace {

/**
 * Reads one journal line into its @p hash and @p report. False unless
 * the line is one object with exactly one "hash" (16 hex digits) and
 * exactly one "report", the latter a reportToJsonLine() line byte for
 * byte; other keys are ignored.
 */
bool
parseJournalLine(const std::string& line, std::uint64_t* hash,
                 Report* report)
{
    std::string hashHex;
    std::string row;
    bool seenHash = false;
    bool seenReport = false;
    auto field = [&](const std::string& key, const std::string& value,
                     JsonKind kind) {
        const bool isHash = key == "hash";
        if (!isHash && key != "report") {
            return true; // "failure", or an older line's envelope keys
        }
        // A line spliced from two records can repeat a key.
        if (std::exchange(isHash ? seenHash : seenReport, true)) {
            return false;
        }
        (isHash ? hashHex : row) = value;
        return kind == (isHash ? JsonKind::String : JsonKind::Object);
    };
    return walkJsonObject(line, field) && hexTo(hashHex, hash) &&
           reportFromJsonLine(row, report) &&
           reportToJsonLine(*report) == row;
}

} // namespace

bool
SweepManifest::open(const std::string& path, bool resume)
{
    reports.clear();
    if (resume) {
        std::ifstream in(path);
        std::string line;
        while (in.is_open() && std::getline(in, line)) {
            std::uint64_t hash = 0;
            Report r;
            if (parseJournalLine(line, &hash, &r)) {
                reports[{hash, r.workload, r.configName}] = std::move(r);
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

const Report*
SweepManifest::replay(const SweepJob& job, std::size_t index) const
{
    auto it =
        reports.find({sweepJobHash(job, index), job.profile.name, job.label});
    return it == reports.end() ? nullptr : &it->second;
}

void
SweepManifest::record(const SweepJob& job, std::size_t index,
                      const JobResult& result)
{
    if (!out.is_open()) {
        return;
    }
    std::string line = "{\"hash\":\"" + hexOf(sweepJobHash(job, index)) +
                       "\",";
    line += result.ok ? "\"report\":" + reportToJsonLine(result.report)
                      : "\"failure\":" +
                            failureToJsonLine(job.profile.name, job.label,
                                              result.error);
    line += "}\n";
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
