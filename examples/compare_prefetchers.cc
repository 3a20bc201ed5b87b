/**
 * @file
 * Example: compare instruction-prefetching configurations on one workload.
 *
 * Usage: example_compare_prefetchers [app] [measure_instrs]
 *                                    [--json out.jsonl] [--csv out.csv]
 *                                    [--isolate] [--wall-sec X] [--resume]
 *   app defaults to "clang"; any of the ten datacenter profiles works.
 *   The window is 250K warmup + 400K measured instructions unless
 *   UDP_BENCH_WARMUP / UDP_BENCH_INSTR or measure_instrs say otherwise.
 *
 * Demonstrates the preset configurations (no prefetch, FDIP, UDP, UFTQ,
 * EIP, perfect icache), the parallel sweep runner (UDP_JOBS workers), the
 * Report metrics + artifact sinks, and the robustness surface of the
 * public API: --isolate forks each configuration into its own resource-
 * limited child so a crash is contained to one row, and --resume replays
 * completed rows from the checkpoint manifest after an interruption.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "stats/table.h"

int
main(int argc, char** argv)
{
    using namespace udp;

    // Positional args plus optional --json/--csv artifact destinations
    // and the robustness flags.
    std::string app = "clang";
    std::string json_path;
    std::string csv_path;
    std::string manifest_path;
    bool isolate = false;
    bool resume = false;
    double wall_sec = 0.0;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (a == "--csv" && i + 1 < argc) {
            csv_path = argv[++i];
        } else if (a == "--manifest" && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (a == "--isolate") {
            isolate = true;
        } else if (a == "--resume") {
            resume = true;
        } else if (a == "--wall-sec" && i + 1 < argc) {
            if (!parseSeconds(argv[++i], &wall_sec)) {
                std::fprintf(stderr, "malformed number '%s' for --wall-sec\n",
                             argv[i]);
                return 2;
            }
        } else {
            positional.push_back(std::move(a));
        }
    }
    // UDP_BENCH_WARMUP / UDP_BENCH_INSTR set the window, as for every
    // bench; measure_instrs overrides the measured part.
    RunOptions opts = envRunOptions({250'000, 400'000});
    if (!positional.empty()) {
        app = positional[0];
    }
    if (positional.size() > 1 &&
        !parseCount(positional[1], &opts.measureInstrs)) {
        std::fprintf(stderr, "malformed number '%s' for measure_instrs\n",
                     positional[1].c_str());
        return 2;
    }

    const std::vector<Profile>& profiles = datacenterProfiles();
    auto known =
        std::find_if(profiles.begin(), profiles.end(),
                     [&app](const Profile& p) { return p.name == app; });
    if (known == profiles.end()) {
        std::fprintf(stderr, "unknown app '%s'; the profiles are:",
                     app.c_str());
        for (const Profile& p : profiles) {
            std::fprintf(stderr, " %s", p.name.c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
    }
    const Profile& prof = *known;

    struct Entry
    {
        const char* name;
        SimConfig cfg;
    };
    const Entry configs[] = {
        {"no-prefetch", presets::noPrefetch()},
        {"fdip-32", presets::fdipBaseline()},
        {"fdip-64", presets::fdipWithFtq(64)},
        {"uftq-atr-aur", presets::uftq(UftqMode::AtrAur)},
        {"udp-8k", presets::udp8k()},
        {"udp-infinite", presets::udpInfinite()},
        {"eip-8k", presets::eip8k()},
        {"icache-40k", presets::bigIcache40k()},
        {"perfect-icache", presets::perfectIcache()},
    };

    // All nine configurations are independent: run them as one sweep
    // batch (worker count from UDP_JOBS or the hardware). The checked
    // runner keeps the comparison alive even if one configuration fails.
    std::vector<SweepJob> jobs;
    for (const Entry& e : configs) {
        jobs.push_back({prof, e.cfg, opts, e.name});
    }
    SweepOptions sweep_opts;
    sweep_opts.isolate = isolate;
    if (isolate) {
        sweep_opts.memLimitBytes = std::uint64_t{4096} << 20;
        sweep_opts.wallLimitSec = wall_sec;
    }
    sweep_opts.manifestPath = manifest_path;
    sweep_opts.resume = resume && !manifest_path.empty();
    sweep_opts.handleSignals = true;
    std::vector<JobResult> results = runSweepChecked(jobs, sweep_opts);
    std::vector<Report> reports;
    std::vector<std::string> failures;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok) {
            reports.push_back(results[i].report);
        } else if (results[i].skipped) {
            ++skipped;
        } else {
            failures.push_back(failureToJsonLine(
                jobs[i].profile.name, jobs[i].label, results[i].error));
        }
    }

    Table t({"config", "ipc", "speedup%", "mpki", "timeliness", "onpath",
             "useful"});
    double base_ipc = 0.0;
    for (const Report& r : reports) {
        if (r.configName == "fdip-32") {
            base_ipc = r.ipc;
        }
        t.beginRow();
        t.cell(r.configName);
        t.cell(r.ipc, 3);
        t.cell(base_ipc > 0 ? (r.ipc / base_ipc - 1.0) * 100.0 : 0.0, 1);
        t.cell(r.icacheMpki, 2);
        t.cell(r.timeliness, 2);
        t.cell(r.onPathRatio, 2);
        t.cell(r.usefulness, 2);
    }

    std::printf("workload: %s (code %u KB), window %llu warmup + %llu "
                "measured instrs\n\n%s",
                prof.name.c_str(), prof.codeFootprintKB,
                static_cast<unsigned long long>(opts.warmupInstrs),
                static_cast<unsigned long long>(opts.measureInstrs),
                t.toAscii().c_str());
    std::printf("\n(speedup%% is relative to fdip-32; rows above it show 0)\n");

    ReportSink sink;
    if (!json_path.empty()) {
        sink.openJson(json_path);
    }
    if (!csv_path.empty()) {
        sink.openCsv(csv_path);
    }
    sink.writeAll(reports);
    for (const std::string& row : failures) {
        if (json_path.empty()) {
            std::fprintf(stderr, "%s\n", row.c_str()); // keeps the dump
        }
        sink.writeFailure(row);
    }
    if (skipped != 0) {
        std::fprintf(stderr,
                     "[example] interrupted: %zu configuration(s) skipped; "
                     "re-run with --resume\n",
                     skipped);
        return 130;
    }
    if (!failures.empty()) {
        std::fprintf(stderr, "[example] %zu configuration(s) failed\n",
                     failures.size());
        return 1;
    }
    return 0;
}
