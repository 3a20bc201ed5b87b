/**
 * @file
 * Simulation-speed harness: wall-clock throughput of the simulator
 * itself — simulated instructions per host second and simulated cycles
 * per host second — for every datacenter workload under the FDIP
 * baseline and the UDP-8KB configuration. This is the number that
 * gates sweep sizing (how many points fit in a CI budget), so it is
 * recorded to a committed JSONL snapshot for regression tracking.
 *
 * Usage: perf_simspeed [--out BENCH_simspeed.json] [--repeat N]
 *                      [--profile]
 *
 * Each (workload, config) point is run --repeat times (a positive count,
 * default 3) in this process, serially, after one untimed warmup run
 * that populates the shared Program cache; the fastest repeat is
 * reported, the usual way to suppress host scheduling noise.
 *
 * The output file is append-only: every invocation adds ONE timestamped
 * JSON row (a JSONL file), so the committed BENCH_simspeed.json
 * accumulates the perf trajectory across PRs instead of losing history
 * on each regeneration. With --profile the cycle-loop self-profiler
 * (obs/profiler.h) runs during the timed repeats and each point carries
 * per-phase host-time percentages, so a regression row also says WHERE
 * the time moved.
 */

#include "bench_util.h"

#include <chrono>
#include <climits>
#include <ctime>
#include <fstream>

int
main(int argc, char** argv)
{
    using namespace udp;
    using namespace udp::bench;
    using clock = std::chrono::steady_clock;

    std::string outPath = "BENCH_simspeed.json";
    unsigned repeat = 3;
    bool profile = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--repeat" && i + 1 < argc) {
            std::uint64_t n = 0;
            if (!parseCount(argv[++i], &n) || n == 0 || n > UINT_MAX) {
                std::fprintf(stderr,
                             "perf_simspeed: malformed number '%s' for "
                             "--repeat\n",
                             argv[i]);
                return 2;
            }
            repeat = static_cast<unsigned>(n);
        } else if (arg == "--profile") {
            profile = true;
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--out PATH] [--repeat N] [--profile]\n",
                argv[0]);
            return 2;
        }
    }

    RunOptions o = defaultOptions();
    std::fputs(banner("Simulation speed",
                      "host throughput: simulated instrs/sec and cycles/sec",
                      o)
                   .c_str(),
               stdout);

    struct Point
    {
        std::string workload;
        std::string config;
        double instrPerSec = 0.0;
        double cyclesPerSec = 0.0;
        double hostSec = 0.0;
        std::shared_ptr<const obs::ProfileSnapshot> prof;
    };
    std::vector<Point> points;

    Table t({"app", "config", "Minstr/s", "Mcycles/s", "host_ms"});
    for (const Profile& p : datacenterProfiles()) {
        const std::pair<const char*, SimConfig> configs[] = {
            {"fdip32", presets::fdipBaseline()},
            {"udp8k", presets::udp8k()},
        };
        for (const auto& [label, baseCfg] : configs) {
            SimConfig cfg = baseCfg;
            cfg.profile.enabled = profile;
            // Untimed warmup: builds the Program image and warms the
            // host caches, so the timed repeats measure simulation only.
            runSim(p, cfg, o, label);
            double bestSec = 0.0;
            Report r;
            for (unsigned k = 0; k < repeat; ++k) {
                clock::time_point t0 = clock::now();
                Report rep = runSim(p, cfg, o, label);
                double sec =
                    std::chrono::duration<double>(clock::now() - t0)
                        .count();
                if (k == 0 || sec < bestSec) {
                    bestSec = sec;
                    r = std::move(rep);
                }
            }
            Point pt;
            pt.workload = p.name;
            pt.config = label;
            pt.hostSec = bestSec;
            pt.prof = r.profile;
            if (bestSec > 0.0) {
                pt.instrPerSec =
                    static_cast<double>(r.instructions) / bestSec;
                pt.cyclesPerSec = static_cast<double>(r.cycles) / bestSec;
            }
            points.push_back(pt);

            t.beginRow();
            t.cell(pt.workload);
            t.cell(pt.config);
            t.cell(pt.instrPerSec / 1e6, 2);
            t.cell(pt.cyclesPerSec / 1e6, 2);
            t.cell(pt.hostSec * 1e3, 1);
        }
    }
    std::printf("%s", t.toAscii().c_str());
    if (profile) {
        for (const Point& pt : points) {
            if (!pt.prof) {
                continue;
            }
            std::printf("[profile] %s/%s:", pt.workload.c_str(),
                        pt.config.c_str());
            for (std::size_t ph = 0; ph < obs::kNumProfPhases; ++ph) {
                std::printf(" %s %.1f%%",
                            obs::profPhaseName(
                                static_cast<obs::ProfPhase>(ph)),
                            pt.prof->phaseFrac(
                                static_cast<obs::ProfPhase>(ph)) *
                                100.0);
            }
            std::printf("\n");
        }
    }

    // Append one timestamped JSONL row. Host throughput is
    // machine-dependent, so the committed file is a reference
    // trajectory, not a pass/fail gate.
    std::time_t now = std::time(nullptr);
    char ts[32] = "unknown";
    if (std::tm* tm = std::gmtime(&now)) {
        std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", tm);
    }
    std::ofstream out(outPath, std::ios::app);
    if (!out.is_open()) {
        std::fprintf(stderr, "[simspeed] cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << "{\"bench\": \"perf_simspeed\", \"ts\": \"" << ts
        << "\", \"warmup_instrs\": " << o.warmupInstrs
        << ", \"measure_instrs\": " << o.measureInstrs
        << ", \"repeat\": " << repeat << ", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& pt = points[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"workload\": \"%s\", \"config\": \"%s\", "
                      "\"instr_per_sec\": %.0f, \"cycles_per_sec\": %.0f, "
                      "\"host_sec\": %.4f",
                      i == 0 ? "" : ", ", pt.workload.c_str(),
                      pt.config.c_str(), pt.instrPerSec, pt.cyclesPerSec,
                      pt.hostSec);
        out << buf;
        if (pt.prof) {
            for (std::size_t ph = 0; ph < obs::kNumProfPhases; ++ph) {
                std::snprintf(
                    buf, sizeof buf, ", \"phase_%s_pct\": %.2f",
                    obs::profPhaseName(static_cast<obs::ProfPhase>(ph)),
                    pt.prof->phaseFrac(static_cast<obs::ProfPhase>(ph)) *
                        100.0);
                out << buf;
            }
        }
        out << "}";
    }
    out << "]}\n";
    out.close();
    std::printf("snapshot row appended to %s\n", outPath.c_str());
    return 0;
}
