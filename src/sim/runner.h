/**
 * @file
 * The experiment API used by benches, examples and integration tests:
 * build a workload, run warmup + measurement, and collect a Report with
 * every derived metric the paper's figures need.
 *
 * runSim() is thread-safe: the sweep runner (sim/sweep.h) calls it
 * concurrently from several threads, and all of them share one immutable
 * Program per profile through an internal cache.
 */

#ifndef UDP_SIM_RUNNER_H
#define UDP_SIM_RUNNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cpu.h"
#include "stats/stats.h"
#include "workload/profile.h"

namespace udp {

/**
 * Derived results of one simulation window.
 *
 * Every numeric field is exported under the schema-stable snake_case key
 * that kReportFields below gives it; the full key table with
 * paper-figure provenance lives in docs/EXPERIMENT_GUIDE.md.
 */
struct Report
{
    /** Workload (profile) name; sink key "workload". */
    std::string workload;
    /** Free-form configuration label passed to runSim; sink key "config". */
    std::string configName;

    /** Instructions retired in the measurement window. */
    std::uint64_t instructions = 0;
    /** Cycles elapsed in the measurement window. */
    std::uint64_t cycles = 0;
    /** instructions / cycles — the speedup numerator of Figs. 1, 3, 11,
     *  13, 16, 17. */
    double ipc = 0.0;

    // Instruction cache behaviour.
    /** L1I demand misses per kilo-instruction (Figs. 12, 14). */
    double icacheMpki = 0.0;
    /** Demand fetches that merged with an in-flight fill per
     *  kilo-instruction. */
    double mshrHitsPki = 0.0;
    /** Timeliness over prefetched lines: resident hits /
     *  (resident hits + fill-buffer merges) (Fig. 4, Table III). */
    double timeliness = 0.0;
    /** Overall demand ratio L1I hits / (L1I hits + fill-buffer hits). */
    double l1HitRatio = 0.0;
    /** Instructions lost to icache-miss stalls per kilo-instr
     *  (Fig. 15). */
    double lostInstrPerKilo = 0.0;

    // Prefetch behaviour.
    /** Prefetches issued by the active prefetcher. */
    std::uint64_t prefetchesEmitted = 0;
    /** On-path / (on+off) emitted prefetch ratio (Fig. 5). */
    double onPathRatio = 0.0;
    /** Ground-truth useful / (useful+useless) ratio (Fig. 6). */
    double usefulness = 0.0;
    /** Hardware-visible utility ratio (what UFTQ measures; Table III). */
    double usefulnessHw = 0.0;

    // Frontend behaviour.
    /** Mean FTQ occupancy over the window (Fig. 8). */
    double avgFtqOccupancy = 0.0;
    /** Conditional mispredicts per kilo-instruction. */
    double branchMpki = 0.0;
    /** Conditional mispredicts / predictions. */
    double condMispredictRate = 0.0;
    /** Frontend resteers (mispredict + decode corrections) applied in the
     *  window. */
    std::uint64_t resteers = 0;
    /** BTB-miss corrections discovered at decode. */
    std::uint64_t decodeCorrections = 0;

    // UDP internals (zero when UDP is off).
    /** Candidates dropped by the utility filter. */
    std::uint64_t udpDropped = 0;
    /** Candidates that passed the utility filter and were emitted. */
    std::uint64_t udpFilteredEmits = 0;
    /** Retirement-verified lines learned into the useful set. */
    std::uint64_t udpLearned = 0;

    /** The numeric fields in kReportFields order, under their keys. */
    StatSet toStatSet() const;

    /**
     * End-of-run telemetry (null unless SimConfig::telemetry.enabled).
     * Deliberately NOT part of toStatSet()/the report sink schema: report
     * JSON/CSV rows stay byte-identical whether telemetry ran or not;
     * interval rows, summaries and traces flow through the dedicated
     * TelemetrySink / writeChromeTrace paths (stats/sink.h,
     * stats/tracefile.h).
     */
    std::shared_ptr<const TelemetrySnapshot> telemetry;

    /**
     * Cycle-loop self-profile (null unless SimConfig::profile.enabled).
     * Like telemetry above, NOT part of toStatSet()/the report sink
     * schema — report rows stay byte-identical whether profiling ran or
     * not; summaries flow through profileSummaryToJsonLine (stats/sink.h)
     * and the Chrome-trace exporter (stats/tracefile.h).
     */
    std::shared_ptr<const obs::ProfileSnapshot> profile;
};

/** One numeric Report field: its sink key and its member, which is a
 *  count or a ratio (the other pointer is null). */
struct ReportField
{
    const char* key;
    std::uint64_t Report::*count;
    double Report::*ratio;
};

/**
 * Report's numeric fields in schema order, after "workload" and
 * "config": the one key-to-member map. Report::toStatSet() and
 * reportFromJsonLine() (stats/sink.h) both walk it.
 */
inline constexpr ReportField kReportFields[] = {
    {"instructions", &Report::instructions, nullptr},
    {"cycles", &Report::cycles, nullptr},
    {"ipc", nullptr, &Report::ipc},
    {"icache_mpki", nullptr, &Report::icacheMpki},
    {"mshr_hits_pki", nullptr, &Report::mshrHitsPki},
    {"timeliness", nullptr, &Report::timeliness},
    {"l1_hit_ratio", nullptr, &Report::l1HitRatio},
    {"lost_instr_per_kilo", nullptr, &Report::lostInstrPerKilo},
    {"prefetches_emitted", &Report::prefetchesEmitted, nullptr},
    {"onpath_ratio", nullptr, &Report::onPathRatio},
    {"usefulness", nullptr, &Report::usefulness},
    {"usefulness_hw", nullptr, &Report::usefulnessHw},
    {"avg_ftq_occupancy", nullptr, &Report::avgFtqOccupancy},
    {"branch_mpki", nullptr, &Report::branchMpki},
    {"cond_mispredict_rate", nullptr, &Report::condMispredictRate},
    {"resteers", &Report::resteers, nullptr},
    {"decode_corrections", &Report::decodeCorrections, nullptr},
    {"udp_dropped", &Report::udpDropped, nullptr},
    {"udp_filtered_emits", &Report::udpFilteredEmits, nullptr},
    {"udp_learned", &Report::udpLearned, nullptr},
};

/** Run options. */
struct RunOptions
{
    std::uint64_t warmupInstrs = 500'000;
    std::uint64_t measureInstrs = 1'000'000;

    bool operator==(const RunOptions&) const = default;
};

/**
 * Builds the Program for @p profile (cached across calls), runs a Cpu with
 * @p cfg and returns the measurement-window Report.
 *
 * Thread-safe: concurrent callers share one const Program per equal
 * Profile (every field compared) — the first caller builds it exactly
 * once, distinct Profiles build in parallel — and each call owns its
 * Cpu, so results are independent of the calling thread count.
 */
Report runSim(const Profile& profile, const SimConfig& cfg,
              const RunOptions& opts, std::string config_name = "");

/**
 * Builds (and caches) the Program for @p profile without running anything.
 * runSweepChecked (sim/sweep.h) starts one call per distinct Program ahead
 * of its points, so the builds run on every thread at once; an isolated
 * sweep waits for them before forking, so every child inherits the built
 * images via copy-on-write instead of rebuilding them per process.
 */
void prewarmProgram(const Profile& profile);

/**
 * The Report of the window whose counts are @p window: the difference
 * of two Cpu::counters() reads (counterDelta(), stats/stats.h). Carries
 * no telemetry or profile.
 */
Report reportFromCounters(const CpuCounters& window, std::string workload,
                          std::string config_name);

/**
 * The telemetry interval row of the cycles between two Cpu::counters()
 * reads @p start and @p end: its ipc, icache_mpki, ftq_occupancy and
 * pf_accuracy are the ipc, icache_mpki, avg_ftq_occupancy and
 * usefulness_hw of that window's reportFromCounters(). Telemetry fills
 * in the index and lifecycle outcomes (Telemetry::closeInterval).
 */
IntervalRow intervalRow(const CpuCounters& start, const CpuCounters& end);

/**
 * Collects the Report of @p cpu's measurement window: reportFromCounters()
 * of the counters since the last Cpu::clearStats(), plus the window's
 * telemetry and profile when those are enabled.
 */
Report collectReport(const Cpu& cpu, std::string workload,
                     std::string config_name);

/**
 * Reads bench scaling from the environment: UDP_BENCH_WARMUP and
 * UDP_BENCH_INSTR (instruction counts), falling back to @p defaults.
 * Malformed values (non-numeric, zero, trailing junk, overflow) warn on
 * stderr and keep the default.
 */
RunOptions envRunOptions(RunOptions defaults = RunOptions{});

/**
 * Parses @p s as a whole-string unsigned decimal into @p out. Returns
 * false, leaving @p out untouched, on anything else: empty, a sign,
 * whitespace, trailing junk or overflow. The one number parser of the
 * command lines (figures, udp_sim, udp_trace, the examples).
 */
bool parseCount(const std::string& s, std::uint64_t* out);

/** Like parseCount() for a finite, non-negative decimal number. */
bool parseSeconds(const std::string& s, double* out);

/**
 * Parses environment variable @p name as a positive integer into @p out
 * (parseCount() plus rejecting zero). Returns false when unset; a
 * set-but-malformed value warns on stderr and also returns false, so
 * callers always fall back to their default.
 */
bool parsePositiveEnv(const char* name, std::uint64_t* out);

/** Geometric mean of a vector of positive speedups/ratios. */
double geomean(const std::vector<double>& xs);

/** Pearson correlation coefficient of two equally sized vectors. */
double correlation(const std::vector<double>& a,
                   const std::vector<double>& b);

} // namespace udp

#endif // UDP_SIM_RUNNER_H
