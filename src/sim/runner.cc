#include "sim/runner.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "sim/simerror.h"
#include "stats/tracefile.h"
#include "workload/builder.h"

namespace udp {

namespace {

/**
 * Program construction is expensive for MB-scale footprints: cache by
 * (profile name, seed, footprint).
 *
 * Concurrency: the map mutex only guards entry lookup/creation; the build
 * itself runs under a per-entry once_flag, so the first caller of a key
 * builds exactly once while builds for *different* keys proceed in
 * parallel. std::map nodes are address-stable, entries are never erased,
 * and the built Program is immutable, so the returned reference stays
 * valid and race-free for the process lifetime.
 */
struct ProgramCacheEntry
{
    std::once_flag once;
    std::unique_ptr<const Program> prog;
};

const Program&
cachedProgram(const Profile& p)
{
    static std::map<std::string, ProgramCacheEntry> cache;
    static std::mutex mtx;
    std::string key = programKey(p);
    ProgramCacheEntry* entry;
    {
        std::lock_guard<std::mutex> lock(mtx);
        entry = &cache[key];
    }
    std::call_once(entry->once, [&] {
        entry->prog =
            std::make_unique<const Program>(ProgramBuilder::build(p));
    });
    return *entry->prog;
}

} // namespace

Report
reportFromCounters(const CpuCounters& w, std::string workload,
                   std::string config_name)
{
    Report r;
    r.workload = std::move(workload);
    r.configName = std::move(config_name);

    const MemSysStats& m = w.mem;
    const CacheStats& l1i = w.l1i;
    const FdipStats& fdip = w.fdip;
    const FetchStats& fs = w.fetch;
    const BpuStats& bp = w.bpu;

    r.instructions = w.retired;
    r.cycles = w.cycle;
    r.ipc = ratio(static_cast<double>(r.instructions),
                  static_cast<double>(r.cycles));

    double kilo = static_cast<double>(r.instructions) / 1000.0;
    r.icacheMpki = ratio(static_cast<double>(m.ifetchMisses), kilo);
    r.mshrHitsPki = ratio(static_cast<double>(m.ifetchMshrHits), kilo);
    // Timeliness over prefetched lines: a demand access either found the
    // prefetched line resident (timely) or merged with its in-flight fill
    // (untimely). Matches the paper's Table III / Fig. 4 value range.
    r.timeliness =
        ratio(static_cast<double>(m.ifetchTimelyPrefetchHits),
              static_cast<double>(m.ifetchTimelyPrefetchHits +
                                  m.pfMshrMergesHw));
    r.l1HitRatio =
        ratio(static_cast<double>(m.ifetchL1Hits),
              static_cast<double>(m.ifetchL1Hits + m.ifetchMshrHits));
    r.lostInstrPerKilo =
        ratio(static_cast<double>(fs.lostSlotsIcacheMiss), kilo);

    r.prefetchesEmitted = fdip.emitted;
    r.onPathRatio =
        ratio(static_cast<double>(fdip.emittedOnPath),
              static_cast<double>(fdip.emittedOnPath + fdip.emittedOffPath));

    double useful_true = static_cast<double>(l1i.prefetchHitsTrue +
                                             m.pfMshrMergesTrue);
    double useless_true = static_cast<double>(l1i.prefetchUnusedTrue);
    r.usefulness = ratio(useful_true, useful_true + useless_true);

    double useful_hw =
        static_cast<double>(l1i.prefetchHits + m.pfMshrMergesHw);
    double useless_hw = static_cast<double>(l1i.prefetchUnused);
    r.usefulnessHw = ratio(useful_hw, useful_hw + useless_hw);

    r.avgFtqOccupancy = w.ftq.meanOccupancy();
    r.branchMpki = ratio(static_cast<double>(bp.condMispredicts), kilo);
    r.condMispredictRate =
        ratio(static_cast<double>(bp.condMispredicts),
              static_cast<double>(bp.condPredictions));
    r.resteers = w.frontend.resteers;
    r.decodeCorrections = fs.decodeBtbCorrections;

    r.udpDropped = w.udp.droppedFiltered;
    r.udpFilteredEmits = w.udp.emittedFiltered;
    r.udpLearned = w.usefulSet.learns;
    return r;
}

Report
collectReport(const Cpu& cpu, std::string workload, std::string config_name)
{
    Report r =
        reportFromCounters(counterDelta(cpu.counters(), cpu.windowStart()),
                           std::move(workload), std::move(config_name));
    if (Telemetry* t = cpu.telemetry()) {
        // Still-live prefetches become Pending, so the taxonomy identity
        // (timely+late+unused+polluting+pending == issued) holds.
        r.telemetry = t->finish();
    }
    if (obs::CycleProfiler* p = cpu.profiler()) {
        r.profile = p->snapshot();
    }
    return r;
}

Report
runSim(const Profile& profile, const SimConfig& cfg, const RunOptions& opts,
       std::string config_name)
{
    const Program& prog = cachedProgram(profile);
    Cpu cpu(prog, cfg);
    try {
        cpu.runUntilRetired(opts.warmupInstrs);
        cpu.clearStats();
        cpu.runUntilRetired(opts.measureInstrs);
    } catch (const SimError& e) {
        // Post-mortem trace: annotate the telemetry snapshot with the
        // error (kind, component, Cpu::dumpState()) and drop a final
        // Chrome-trace slice before propagating the failure.
        Telemetry* t = cpu.telemetry();
        if (t && !cfg.telemetry.errorTracePath.empty()) {
            t->noteError(e.kindName(), e.component(), e.cycle(), e.dump());
            TraceJob tj;
            tj.name = profile.name + "/" + config_name;
            tj.snap = t->finish();
            if (obs::CycleProfiler* p = cpu.profiler()) {
                tj.prof = p->snapshot();
            }
            writeChromeTrace(cfg.telemetry.errorTracePath, {tj});
        }
        throw;
    }
    return collectReport(cpu, profile.name, std::move(config_name));
}

std::string
programKey(const Profile& profile)
{
    return profile.name + "#" + std::to_string(profile.seed) + "#" +
           std::to_string(profile.codeFootprintKB);
}

void
prewarmProgram(const Profile& profile)
{
    cachedProgram(profile);
}

bool
parseCount(const std::string& s, std::uint64_t* out)
{
    std::uint64_t v = 0;
    const char* end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || p != end) {
        return false;
    }
    *out = v;
    return true;
}

bool
parseSeconds(const std::string& s, double* out)
{
    double v = 0.0;
    const char* end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || p != end || !std::isfinite(v) ||
        v < 0.0) {
        return false;
    }
    *out = v;
    return true;
}

bool
parsePositiveEnv(const char* name, std::uint64_t* out)
{
    const char* text = std::getenv(name);
    if (text == nullptr) {
        return false;
    }
    std::uint64_t v = 0;
    if (!parseCount(text, &v) || v == 0) {
        std::fprintf(stderr,
                     "[udp] ignoring %s=\"%s\": expected a positive "
                     "integer; using the default\n",
                     name, text);
        return false;
    }
    *out = v;
    return true;
}

RunOptions
envRunOptions(RunOptions defaults)
{
    std::uint64_t v = 0;
    if (parsePositiveEnv("UDP_BENCH_WARMUP", &v)) {
        defaults.warmupInstrs = v;
    }
    if (parsePositiveEnv("UDP_BENCH_INSTR", &v)) {
        defaults.measureInstrs = v;
    }
    return defaults;
}

double
geomean(const std::vector<double>& xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double x : xs) {
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
correlation(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size() || a.size() < 2) {
        return 0.0;
    }
    double n = static_cast<double>(a.size());
    double ma = 0.0;
    double mb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= n;
    mb /= n;
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va == 0.0 || vb == 0.0) {
        return 0.0;
    }
    return cov / std::sqrt(va * vb);
}

StatSet
Report::toStatSet() const
{
    StatSet s;
    s.add("instructions", static_cast<double>(instructions));
    s.add("cycles", static_cast<double>(cycles));
    s.add("ipc", ipc);
    s.add("icache_mpki", icacheMpki);
    s.add("mshr_hits_pki", mshrHitsPki);
    s.add("timeliness", timeliness);
    s.add("l1_hit_ratio", l1HitRatio);
    s.add("lost_instr_per_kilo", lostInstrPerKilo);
    s.add("prefetches_emitted", static_cast<double>(prefetchesEmitted));
    s.add("onpath_ratio", onPathRatio);
    s.add("usefulness", usefulness);
    s.add("usefulness_hw", usefulnessHw);
    s.add("avg_ftq_occupancy", avgFtqOccupancy);
    s.add("branch_mpki", branchMpki);
    s.add("cond_mispredict_rate", condMispredictRate);
    s.add("resteers", static_cast<double>(resteers));
    s.add("decode_corrections", static_cast<double>(decodeCorrections));
    s.add("udp_dropped", static_cast<double>(udpDropped));
    s.add("udp_filtered_emits", static_cast<double>(udpFilteredEmits));
    s.add("udp_learned", static_cast<double>(udpLearned));
    return s;
}

} // namespace udp
