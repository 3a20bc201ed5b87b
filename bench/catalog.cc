/**
 * @file
 * The figure catalog (catalog.h) and the `figures` driver.
 */

#include "catalog.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

namespace udp::bench {

namespace {

/** A labelled configuration: one column, or hidden input, of a table. */
using Variant = std::pair<std::string, SimConfig>;

/** Every app under every variant, app-major. */
std::vector<SweepJob>
grid(const std::vector<Profile>& apps, const std::vector<Variant>& variants,
     const RunOptions& o)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(apps.size() * variants.size());
    for (const Profile& p : apps) {
        for (const auto& [label, config] : variants) {
            jobs.push_back({p, config, o, label});
        }
    }
    return jobs;
}

/** Fixed-depth FDIP at every sweepDepths() depth, labelled "ftq<d>". */
std::vector<Variant>
depthSweep()
{
    std::vector<Variant> v;
    for (unsigned d : sweepDepths()) {
        v.emplace_back("ftq" + std::to_string(d), presets::fdipWithFtq(d));
    }
    return v;
}

/** {"app", "ftq<d>"...} for @p depths. */
std::vector<std::string>
ftqHeader(const std::vector<unsigned>& depths)
{
    std::vector<std::string> h = {"app"};
    for (unsigned d : depths) {
        h.push_back("ftq" + std::to_string(d));
    }
    return h;
}

/** IPC speedup of @p r over @p base, in percent. */
double
speedupPct(const Report& r, const Report& base)
{
    return (r.ipc / base.ipc - 1.0) * 100.0;
}

/** Geomean of speedup ratios, as a percentage gain. */
double
geomeanPct(const std::vector<double>& ratios)
{
    return (geomean(ratios) - 1.0) * 100.0;
}

/**
 * The OPT oracle over one app's sweepDepths() points, the first at
 * rs[first]: the best-IPC point that succeeded, ties keeping the
 * shallower depth; depth 32 with an all-zero Report when all failed.
 */
std::pair<unsigned, Report>
optimalFtq(const std::vector<JobResult>& rs, std::size_t first)
{
    unsigned depth = 32;
    Report best;
    bool found = false;
    for (std::size_t k = 0; k < sweepDepths().size(); ++k) {
        const JobResult& r = rs[first + k];
        if (r.ok && (!found || r.report.ipc > best.ipc)) {
            best = r.report;
            depth = sweepDepths()[k];
            found = true;
        }
    }
    return {depth, best};
}

/** One row per app: @p metric of each of its header.size()-1 points. */
Render
metricTable(std::vector<std::string> header, double Report::*metric,
            int precision)
{
    return [=](const std::vector<JobResult>& rs) {
        Table t(header);
        const std::size_t cols = header.size() - 1;
        for (std::size_t i = 0; i < rs.size(); i += cols) {
            t.beginRow();
            t.cell(rs[i].report.workload);
            for (std::size_t c = 0; c < cols; ++c) {
                t.cell(rs[i + c].report.*metric, precision);
            }
        }
        return t.toAscii();
    };
}

/**
 * One row per app: the IPC speedup (%) of each of its points over its
 * first point (header.size() points per app); then, with @p geomeanRow,
 * the geomean speedup of every column.
 */
Render
speedupTable(std::vector<std::string> header, bool geomeanRow)
{
    return [=](const std::vector<JobResult>& rs) {
        Table t(header);
        const std::size_t cols = header.size() - 1;
        std::vector<std::vector<double>> ratios(cols);
        for (std::size_t i = 0; i < rs.size(); i += cols + 1) {
            const Report& base = rs[i].report;
            t.beginRow();
            t.cell(base.workload);
            for (std::size_t c = 0; c < cols; ++c) {
                const Report& r = rs[i + 1 + c].report;
                ratios[c].push_back(r.ipc / base.ipc);
                t.cell(speedupPct(r, base), 1);
            }
        }
        if (geomeanRow) {
            t.beginRow();
            t.cell(std::string("geomean"));
            for (const std::vector<double>& col : ratios) {
                t.cell(geomeanPct(col), 1);
            }
        }
        return t.toAscii();
    };
}

/** One row per app: per column, the UDP speedup (%) of a (FDIP, UDP)
 *  point pair (figs. 16 and 17). */
Render
pairedSpeedupTable(std::vector<std::string> header)
{
    return [=](const std::vector<JobResult>& rs) {
        Table t(header);
        const std::size_t cols = header.size() - 1;
        for (std::size_t i = 0; i < rs.size(); i += 2 * cols) {
            t.beginRow();
            t.cell(rs[i].report.workload);
            for (std::size_t c = 0; c < cols; ++c) {
                t.cell(speedupPct(rs[i + 2 * c + 1].report,
                                  rs[i + 2 * c].report),
                       1);
            }
        }
        return t.toAscii();
    };
}

std::string
renderFig01(const std::vector<JobResult>& rs)
{
    Table t({"app", "fdip_ipc", "perfect_ipc", "speedup_pct"});
    std::vector<double> speedups;
    for (std::size_t i = 0; i < rs.size(); i += 2) {
        const Report& base = rs[i].report;
        const Report& perf = rs[i + 1].report;
        double s = perf.ipc / base.ipc;
        speedups.push_back(s);
        t.beginRow();
        t.cell(base.workload);
        t.cell(base.ipc, 3);
        t.cell(perf.ipc, 3);
        t.cell((s - 1.0) * 100.0, 1);
    }
    t.beginRow();
    t.cell(std::string("geomean"));
    t.cell(std::string("-"));
    t.cell(std::string("-"));
    t.cell(geomeanPct(speedups), 1);
    return t.toAscii();
}

/** Per app: the FTQ=32 baseline, then one point per sweepDepths() depth.
 *  opt_depth starts from the baseline; only a strictly faster depth
 *  replaces it. */
std::string
renderFig03(const std::vector<JobResult>& rs)
{
    std::vector<std::string> header = ftqHeader(sweepDepths());
    header.push_back("opt_depth");
    Table t(header);
    for (std::size_t i = 0; i < rs.size();) {
        const Report& base = rs[i++].report;
        t.beginRow();
        t.cell(base.workload);
        unsigned best_depth = 32;
        double best = base.ipc;
        for (unsigned d : sweepDepths()) {
            const Report& r = rs[i++].report;
            t.cell(speedupPct(r, base), 1);
            if (r.ipc > best) {
                best = r.ipc;
                best_depth = d;
            }
        }
        t.cell(std::uint64_t{best_depth});
    }
    return t.toAscii();
}

/** Points per app of figs. 11 and 12: FDIP-32, UFTQ AUR, ATR and
 *  ATR-AUR, then the OPT search over sweepDepths(). */
std::size_t
uftqStride()
{
    return 4 + sweepDepths().size();
}

std::string
renderFig11(const std::vector<JobResult>& rs)
{
    Table t({"app", "uftq_aur", "uftq_atr", "uftq_atr_aur", "opt",
             "opt_depth"});
    std::vector<std::vector<double>> ratios(4);
    for (std::size_t i = 0; i < rs.size(); i += uftqStride()) {
        const Report& base = rs[i].report;
        auto [depth, opt] = optimalFtq(rs, i + 4);
        const Report* cols[] = {&rs[i + 1].report, &rs[i + 2].report,
                                &rs[i + 3].report, &opt};
        t.beginRow();
        t.cell(base.workload);
        for (std::size_t c = 0; c < 4; ++c) {
            ratios[c].push_back(cols[c]->ipc / base.ipc);
            t.cell(speedupPct(*cols[c], base), 1);
        }
        t.cell(std::uint64_t{depth});
    }
    t.beginRow();
    t.cell(std::string("geomean"));
    for (const std::vector<double>& col : ratios) {
        t.cell(geomeanPct(col), 1);
    }
    t.cell(std::string("-"));
    return t.toAscii();
}

std::string
renderFig12(const std::vector<JobResult>& rs)
{
    Table t({"app", "baseline", "uftq_aur", "uftq_atr", "uftq_atr_aur",
             "opt"});
    for (std::size_t i = 0; i < rs.size(); i += uftqStride()) {
        t.beginRow();
        t.cell(rs[i].report.workload);
        for (std::size_t c = 0; c < 4; ++c) {
            t.cell(rs[i + c].report.icacheMpki, 2);
        }
        t.cell(optimalFtq(rs, i + 4).second.icacheMpki, 2);
    }
    return t.toAscii();
}

/** Table III's artifacts: each app's optimal-depth Report only. */
std::vector<Report>
table3Optima(const std::vector<JobResult>& rs)
{
    std::vector<Report> optima;
    for (std::size_t i = 0; i < rs.size(); i += sweepDepths().size()) {
        optima.push_back(optimalFtq(rs, i).second);
    }
    return optima;
}

std::string
renderTable3(const std::vector<JobResult>& rs)
{
    Table t({"app", "optimal_ftq", "utility", "timeliness", "ipc"});
    std::vector<double> depths;
    std::vector<double> utilities;
    std::vector<double> timelinesses;
    for (std::size_t i = 0; i < rs.size(); i += sweepDepths().size()) {
        auto [depth, best] = optimalFtq(rs, i);
        depths.push_back(depth);
        utilities.push_back(best.usefulnessHw);
        timelinesses.push_back(best.timeliness);
        t.beginRow();
        t.cell(rs[i].report.workload);
        t.cell(std::uint64_t{depth});
        t.cell(best.usefulnessHw, 2);
        t.cell(best.timeliness, 2);
        t.cell(best.ipc, 3);
    }

    t.beginRow();
    t.cell(std::string("geomean"));
    t.cell(geomean(depths), 0);
    t.cell(geomean(utilities), 2);
    t.cell(geomean(timelinesses), 2);
    t.cell(std::string("-"));

    t.beginRow();
    t.cell(std::string("correl.coeff"));
    t.cell(std::string("-"));
    t.cell(correlation(depths, utilities), 2);
    t.cell(correlation(depths, timelinesses), 2);
    t.cell(std::string("-"));

    return t.toAscii() +
           "\nPaper reference: optimal 12..90 (geomean 42), utility "
           "geomean 0.65 (corr 0.63), timeliness geomean 0.75 "
           "(corr 0.21).\n";
}

/** The ablation's variants of UDP-8KB, after the FDIP-32 baseline. */
std::vector<Variant>
ablationVariants()
{
    using presets::udp8k;
    SimConfig drop = udp8k();
    drop.udp.seniority.flushPolicy = SftqFlushPolicy::DropYounger;

    SimConfig nosb = udp8k();
    nosb.udp.usefulSet.bits1 = 18 * 1024; // same budget, one filter
    nosb.udp.usefulSet.bits2 = 64;
    nosb.udp.usefulSet.bits4 = 64;
    nosb.udp.usefulSet.coalesceBufferSize = 1;

    SimConfig t4 = udp8k();
    t4.udp.confidence.threshold = 4;
    SimConfig t16 = udp8k();
    t16.udp.confidence.threshold = 16;

    SimConfig nodem = udp8k();
    nodem.mem.l1iPrefetchDemoteL2 = false;

    return {{"fdip32", presets::fdipBaseline()},
            {"udp", udp8k()},
            {"drop", drop},
            {"nosb", nosb},
            {"t4", t4},
            {"t16", t16},
            {"nodem", nodem}};
}

} // namespace

std::vector<Figure>
figureCatalog(const RunOptions& o)
{
    using namespace presets;
    const std::vector<Profile>& apps = datacenterProfiles();
    const std::vector<Variant> depths = depthSweep();

    std::vector<Variant> baseAndDepths = {{"fdip32", fdipBaseline()}};
    baseAndDepths.insert(baseAndDepths.end(), depths.begin(), depths.end());

    std::vector<Variant> uftqs = {{"fdip32", fdipBaseline()},
                                  {"aur", uftq(UftqMode::Aur)},
                                  {"atr", uftq(UftqMode::Atr)},
                                  {"both", uftq(UftqMode::AtrAur)}};
    uftqs.insert(uftqs.end(), depths.begin(), depths.end());

    const std::vector<Variant> iso = {{"fdip32", fdipBaseline()},
                                      {"udp8k", udp8k()},
                                      {"inf", udpInfinite()},
                                      {"ic40k", bigIcache40k()},
                                      {"eip", eip8k()}};
    const std::vector<std::string> isoHeader = {
        "app", "baseline", "udp_8k", "infinite", "icache_40k", "eip_8k"};

    std::vector<Variant> btbPairs;
    std::vector<std::string> btbHeader = {"app"};
    for (unsigned b : {1024u, 2048u, 4096u, 8192u, 16384u}) {
        std::string k = "btb" + std::to_string(b / 1024) + "k";
        SimConfig base = fdipBaseline();
        base.bpu.btb.numEntries = b;
        SimConfig with_udp = udp8k();
        with_udp.bpu.btb.numEntries = b;
        btbPairs.emplace_back("fdip_" + k, base);
        btbPairs.emplace_back("udp_" + k, with_udp);
        btbHeader.push_back(k);
    }

    const std::vector<unsigned> ftqSizes = {16, 32, 48, 64};
    std::vector<Variant> ftqPairs;
    for (unsigned f : ftqSizes) {
        std::string k = "ftq" + std::to_string(f);
        SimConfig with_udp = udp8k();
        with_udp.ftqCapacity = f;
        if (f > with_udp.ftqPhysical) {
            with_udp.ftqPhysical = f;
        }
        ftqPairs.emplace_back("fdip_" + k, fdipWithFtq(f));
        ftqPairs.emplace_back("udp_" + k, with_udp);
    }

    std::vector<Profile> ablationApps;
    for (const char* name :
         {"mysql", "clang", "verilator", "xgboost", "mongodb"}) {
        ablationApps.push_back(profileByName(name));
    }

    const std::vector<std::string> depthHeader = ftqHeader(sweepDepths());

    return {
        {"fig01_perfect_icache", "Figure 1",
         "perfect-icache speedup over the FDIP baseline",
         grid(apps, {{"fdip32", fdipBaseline()}, {"perfect", perfectIcache()}},
              o),
         renderFig01},
        {"fig03_ftq_sweep", "Figure 3",
         "IPC speedup (%) vs FTQ depth, over FTQ=32",
         grid(apps, baseAndDepths, o), renderFig03},
        {"fig04_timeliness", "Figure 4",
         "timeliness ratio icache/(icache+MSHR) vs FTQ depth",
         grid(apps, depths, o),
         metricTable(depthHeader, &Report::timeliness, 3)},
        {"fig05_onpath_ratio", "Figure 5",
         "on-path/(on+off) emitted prefetch ratio vs FTQ depth",
         grid(apps, depths, o),
         metricTable(depthHeader, &Report::onPathRatio, 3)},
        {"fig06_usefulness", "Figure 6",
         "useful/(useful+useless) prefetch ratio vs FTQ depth",
         grid(apps, depths, o),
         metricTable(depthHeader, &Report::usefulness, 3)},
        {"fig08_occupancy", "Figure 8", "average FTQ occupancy vs FTQ size",
         grid(apps, depths, o),
         metricTable(depthHeader, &Report::avgFtqOccupancy, 1)},
        {"fig11_uftq", "Figure 11", "UFTQ speedup (%) over FTQ=32 baseline",
         grid(apps, uftqs, o), renderFig11},
        {"fig12_uftq_mpki", "Figure 12",
         "icache MPKI: baseline vs UFTQ variants vs OPT",
         grid(apps, uftqs, o), renderFig12},
        {"fig13_udp", "Figure 13",
         "UDP speedup (%) over FDIP baseline vs ISO-storage baselines",
         grid(apps, iso, o),
         speedupTable({"app", "udp_8k", "infinite", "icache_40k", "eip_8k"},
                      true)},
        {"fig14_udp_mpki", "Figure 14", "icache MPKI across techniques",
         grid(apps, iso, o),
         metricTable(isoHeader, &Report::icacheMpki, 2)},
        {"fig15_lost_instructions", "Figure 15",
         "fetch slots lost to icache misses (per kilo-instr)",
         grid(apps, iso, o),
         metricTable(isoHeader, &Report::lostInstrPerKilo, 1)},
        {"fig16_btb_sensitivity", "Figure 16",
         "UDP speedup (%) over same-BTB FDIP, per BTB size",
         grid(apps, btbPairs, o), pairedSpeedupTable(btbHeader)},
        {"fig17_ftq_sensitivity", "Figure 17",
         "UDP speedup (%) over same-FTQ FDIP, per FTQ size",
         grid(apps, ftqPairs, o), pairedSpeedupTable(ftqHeader(ftqSizes))},
        {"table3_optimal_ftq", "Table III",
         "optimal FTQ depth, utility and timeliness per app",
         grid(apps, depths, o), renderTable3, table3Optima},
        {"ablation_udp", "Ablation",
         "UDP design-choice ablations (speedup % over FDIP)",
         grid(ablationApps, ablationVariants(), o),
         speedupTable({"app", "udp", "sftq_drop", "no_superblk", "thresh4",
                       "thresh16", "no_demote"},
                      false)},
    };
}

PointUnion
unionOf(const std::vector<Figure>& figures)
{
    PointUnion u;
    for (const Figure& f : figures) {
        std::vector<std::size_t>& jobOf = u.jobOf.emplace_back();
        for (const SweepJob& p : f.points) {
            auto same = [&p](const SweepJob& j) {
                return j.profile == p.profile && j.config == p.config &&
                       j.opts == p.opts;
            };
            auto it = std::find_if(u.jobs.begin(), u.jobs.end(), same);
            jobOf.push_back(static_cast<std::size_t>(it - u.jobs.begin()));
            if (it == u.jobs.end()) {
                u.jobs.push_back(p);
            }
        }
    }
    return u;
}

std::vector<JobResult>
figureResults(const Figure& figure, const std::vector<std::size_t>& jobOf,
              const std::vector<JobResult>& results)
{
    std::vector<JobResult> rs;
    rs.reserve(figure.points.size());
    for (std::size_t k = 0; k < figure.points.size(); ++k) {
        JobResult r = results[jobOf[k]];
        r.report.workload = figure.points[k].profile.name;
        r.report.configName = figure.points[k].label;
        rs.push_back(std::move(r));
    }
    return rs;
}

namespace {

int
usageError(const std::string& why, const std::vector<Figure>& catalog)
{
    std::fprintf(
        stderr,
        "figures: %s\n"
        "usage: figures [FIGURE...] [--out-dir DIR] [--isolate] [--resume]\n"
        "               [--mem-mb N] [--cpu-sec N] [--wall-sec SEC]\n"
        "               [--interval-stats CSV] [--trace-out JSON]\n"
        "               [--telemetry-interval CYCLES] [--profile]\n"
        "FIGURE (default: all):",
        why.c_str());
    for (const Figure& f : catalog) {
        std::fprintf(stderr, " %s", f.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

/** Writes @p text to @p path; false, with a message, on any failure. */
bool
writeText(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    out << text;
    out.close();
    if (!out) {
        std::fprintf(stderr, "[figures] cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

} // namespace

int
figuresMain(int argc, char** argv)
{
    const RunOptions window = defaultOptions();
    std::vector<Figure> figs = figureCatalog(window);
    SinkArgs args;
    std::vector<std::string> names;
    std::string error;
    if (!parseSinkArgs(argc, argv, &args, &names, &error)) {
        return usageError(error, figs);
    }
    for (const std::string& n : names) {
        if (std::none_of(figs.begin(), figs.end(),
                         [&n](const Figure& f) { return f.name == n; })) {
            return usageError("unknown figure '" + n + "'", figs);
        }
    }
    if (!names.empty()) {
        std::erase_if(figs, [&names](const Figure& f) {
            return std::find(names.begin(), names.end(), f.name) ==
                   names.end();
        });
    }

    PointUnion u = unionOf(figs);
    std::size_t requested = 0;
    for (const Figure& f : figs) {
        requested += f.points.size();
    }
    std::fprintf(stderr,
                 "[figures] %zu figure(s): %zu points requested, %zu "
                 "distinct\n",
                 figs.size(), requested, u.jobs.size());
    if (!args.outDir.empty()) {
        std::error_code ec; // a failure surfaces as unwritable artifacts
        std::filesystem::create_directories(args.outDir, ec);
    }

    // One start and one outcome line per figure, flushed as written. The
    // first start line opens before the sweep, so the brackets tile the
    // run's wall time (perfbench/run.py times figures by them). With
    // --out-dir the tables go to files and the brackets to stdout.
    std::FILE* progress = args.outDir.empty() ? stderr : stdout;
    auto start = [progress](const Figure& f) {
        std::fprintf(progress, "=== %s ===\n", f.name.c_str());
        std::fflush(progress);
    };
    start(figs.front());
    const std::vector<JobResult> results = runBenchSweep(u.jobs, args);

    bool allWritten = true;
    for (std::size_t i = 0; i < figs.size(); ++i) {
        const Figure& f = figs[i];
        if (i != 0) {
            start(f);
        }
        const std::vector<JobResult> rs =
            figureResults(f, u.jobOf[i], results);
        std::vector<std::string> failures;
        std::size_t skipped = 0;
        for (std::size_t k = 0; k < rs.size(); ++k) {
            if (rs[k].skipped) {
                ++skipped;
            } else if (!rs[k].ok) {
                failures.push_back(failureToJsonLine(
                    f.points[k].profile.name, f.points[k].label,
                    rs[k].error));
            }
        }
        const std::string text =
            banner(f.title, f.what, window) + f.render(rs);
        bool written = true;
        if (args.outDir.empty()) {
            std::fputs(text.c_str(), stdout);
            std::fflush(stdout);
            // No JSONL to hold the failure rows: stderr gets them.
            for (const std::string& row : failures) {
                std::fprintf(stderr, "%s\n", row.c_str());
            }
        } else {
            std::vector<Report> reports;
            if (f.artifacts) {
                reports = f.artifacts(rs);
            } else {
                for (const JobResult& r : rs) {
                    if (r.ok) {
                        reports.push_back(r.report);
                    }
                }
            }
            const std::string stem = args.outDir + "/" + f.name;
            written = writeText(stem + ".txt", text);
            written = writeReportArtifacts(stem, reports, failures) && written;
        }
        allWritten = allWritten && written;
        if (skipped != 0) {
            std::fprintf(progress, "INTERRUPTED %s (%zu point(s) skipped)\n",
                         f.name.c_str(), skipped);
        } else if (!failures.empty()) {
            std::fprintf(progress, "FAILED   %s (%zu point(s) failed)\n",
                         f.name.c_str(), failures.size());
        } else if (!written) {
            std::fprintf(progress, "FAILED   %s (artifacts not written)\n",
                         f.name.c_str());
        } else {
            std::fprintf(progress, "ok       %s\n", f.name.c_str());
        }
        std::fflush(progress);
    }
    allWritten = writeTelemetryArtifacts(args, u.jobs, results) && allWritten;
    allWritten = writeProfileArtifacts(args, u.jobs, results) && allWritten;

    std::size_t failed = 0;
    std::size_t skipped = 0;
    for (const JobResult& r : results) {
        failed += !r.ok && !r.skipped;
        skipped += r.skipped;
    }
    if (failed != 0) {
        std::fprintf(stderr,
                     "[figures] %zu sweep point(s) FAILED; their failure "
                     "rows carry the dumps\n",
                     failed);
    }
    if (skipped != 0) {
        std::fprintf(stderr,
                     "[figures] interrupted: %zu point(s) skipped; re-run "
                     "with --resume to finish the sweep\n",
                     skipped);
        return 130;
    }
    return failed != 0 || !allWritten ? 1 : 0;
}

} // namespace udp::bench
