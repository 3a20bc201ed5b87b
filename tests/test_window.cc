/**
 * @file
 * The measurement window: Cpu::clearStats() resets no model counter, so
 * a Report is the difference of two counter snapshots of one run. For
 * every distinct configuration of the figure catalog, the Report of a
 * run that clears at the warmup's end must equal, byte for byte, the
 * Report derived from a run that never clears and reads its counters at
 * the same two cycles.
 *
 * The UFTQ configurations are the known exception: Cpu::clearStats
 * restarts UFTQ's open epoch (UftqController::restartEpoch), so the
 * clear moves their timing. The test names them and asserts that they
 * still differ. ROADMAP.md, "The model must not read its own
 * statistics", deletes that call; then they fail here and join the
 * equal ones.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "catalog.h"
#include "sim/runner.h"
#include "stats/sink.h"
#include "workload/builder.h"

namespace udp {
namespace {

/** Each distinct configuration of the catalog, named "figure/label" by
 *  the first point that uses it. */
std::vector<std::pair<std::string, SimConfig>>
catalogConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> configs;
    for (const bench::Figure& f : bench::figureCatalog(RunOptions{})) {
        for (const SweepJob& job : f.points) {
            bool seen = false;
            for (const auto& [name, cfg] : configs) {
                seen = seen || cfg == job.config;
            }
            if (!seen) {
                configs.emplace_back(f.name + "/" + job.label, job.config);
            }
        }
    }
    return configs;
}

TEST(MeasurementWindow, ClearEqualsSnapshotDifferenceForEveryCatalogConfig)
{
    constexpr std::uint64_t kWarmup = 20'000;
    constexpr std::uint64_t kMeasure = 20'000;
    Profile p = profileByName("mysql");
    p.name = "mysql-small";
    p.codeFootprintKB = 256;
    const Program prog = ProgramBuilder::build(p);

    // The known exception (see the top of the file), by name, so that a
    // catalog change that adds or drops one shows up here.
    const std::vector<std::string> uftqExpected = {
        "fig11_uftq/aur", "fig11_uftq/atr", "fig11_uftq/both"};
    std::vector<std::string> uftqFound;
    std::size_t equal = 0;

    for (const auto& [name, cfg] : catalogConfigs()) {
        Cpu cleared(prog, cfg);
        cleared.runUntilRetired(kWarmup);
        const Cycle start = cleared.now();
        cleared.clearStats();
        cleared.runUntilRetired(kMeasure);
        const Cycle end = cleared.now();
        Report r = collectReport(cleared, p.name, name);

        Cpu uncleared(prog, cfg);
        while (uncleared.now() < start) {
            uncleared.cycle();
        }
        const CpuCounters atStart = uncleared.counters();
        while (uncleared.now() < end) {
            uncleared.cycle();
        }
        Report fromSnapshots = reportFromCounters(
            counterDelta(uncleared.counters(), atStart), p.name, name);

        EXPECT_GE(r.instructions, kMeasure) << name;
        if (cfg.uftq.mode != UftqMode::Off) {
            uftqFound.push_back(name);
            EXPECT_NE(reportToJsonLine(r), reportToJsonLine(fromSnapshots))
                << name << ": the window start no longer moves UFTQ; "
                << "drop the exception";
            continue;
        }
        EXPECT_EQ(reportToJsonLine(r), reportToJsonLine(fromSnapshots))
            << name;
        ++equal;
    }
    EXPECT_EQ(uftqFound, uftqExpected);
    EXPECT_EQ(equal, 29u) << "the catalog's configurations changed";
}

} // namespace
} // namespace udp
