/**
 * @file
 * Golden Reports: pins the model's outputs. The ten datacenter
 * workloads run under fig13's five configurations, UFTQ (ATR+AUR) and
 * FDIP at fixed FTQ depths 8, 64 and 128 (Fig. 3's curve) at a 50K/50K
 * window, and every reportToJsonLine() must equal its line in
 * tests/golden/reports.jsonl byte for byte. A change to any model number
 * fails here. When the change is intended, the failure writes the new
 * lines next to the test binary and prints the cp command that accepts
 * them, so the new numbers show up in review.
 *
 * The window is the smallest of 10K/20K, 20K/40K and 50K/50K at which
 * the paper's two contributions act on the pinned numbers: every UFTQ
 * row's timing differs from FDIP-32's, every UDP-8KB row learns and
 * drops, and at least five UDP-8KB rows differ from their exact-set
 * (inf) rows. The test asserts all three, so a later change that
 * shrinks the window fails here instead of silently weakening the pin.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simconfig.h"
#include "sim/sweep.h"
#include "stats/sink.h"
#include "workload/builder.h"
#include "workload/profile.h"

namespace udp {
namespace {

/** Configurations per workload, in file order. */
constexpr std::size_t kConfigsPerApp = 9;

std::vector<SweepJob>
goldenJobs()
{
    RunOptions o;
    o.warmupInstrs = 50'000;
    o.measureInstrs = 50'000;
    std::vector<SweepJob> jobs;
    for (const Profile& p : datacenterProfiles()) {
        jobs.push_back({p, presets::fdipBaseline(), o, "fdip32"});
        jobs.push_back({p, presets::udp8k(), o, "udp8k"});
        jobs.push_back({p, presets::udpInfinite(), o, "inf"});
        jobs.push_back({p, presets::bigIcache40k(), o, "ic40k"});
        jobs.push_back({p, presets::eip8k(), o, "eip"});
        jobs.push_back({p, presets::uftq(UftqMode::AtrAur), o, "uftq"});
        for (unsigned depth : {8u, 64u, 128u}) {
            jobs.push_back({p, presets::fdipWithFtq(depth), o,
                            "fdip" + std::to_string(depth)});
        }
    }
    return jobs;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

/** True when two runs took different cycle counts. A udp8k row that
 *  differs from its inf row only in UDP's own counters (udp_learned,
 *  udp_filtered_emits) has not changed what the core did. */
bool
timingDiffers(const Report& a, const Report& b)
{
    return a.cycles != b.cycles;
}

/** Checks that UFTQ and UDP act on the golden Reports (see the top). */
void
expectUftqAndUdpAct(const std::vector<SweepJob>& jobs,
                    const std::vector<JobResult>& results)
{
    ASSERT_EQ(results.size() % kConfigsPerApp, 0u);
    auto at = [&](std::size_t app, const std::string& label) {
        for (std::size_t k = 0; k < kConfigsPerApp; ++k) {
            std::size_t i = app * kConfigsPerApp + k;
            if (jobs[i].label == label) {
                return results[i].report;
            }
        }
        ADD_FAILURE() << "no " << label << " row";
        return Report{};
    };
    std::size_t udpVsInf = 0;
    for (std::size_t app = 0; app < results.size() / kConfigsPerApp; ++app) {
        const Report udp = at(app, "udp8k");
        const std::string name = udp.workload;
        EXPECT_TRUE(timingDiffers(at(app, "uftq"), at(app, "fdip32")))
            << name << ": no UFTQ epoch changed the timing";
        EXPECT_GT(udp.udpLearned, 0u) << name;
        EXPECT_GT(udp.udpDropped, 0u) << name;
        udpVsInf += timingDiffers(udp, at(app, "inf"));
    }
    EXPECT_GE(udpVsInf, 5u)
        << "the useful set's Bloom filters changed too few udp8k rows";
}

TEST(GoldenReports, MatchCommittedFile)
{
    std::vector<SweepJob> jobs = goldenJobs();
    std::vector<JobResult> results = runSweepChecked(jobs);
    std::vector<std::string> expected = readLines(UDP_GOLDEN_FILE);

    std::string actual;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << jobs[i].profile.name << "/"
                                   << jobs[i].label << ": "
                                   << results[i].error.message;
        std::string line = reportToJsonLine(results[i].report);
        actual += line + "\n";
        if (i >= expected.size() || expected[i] != line) {
            ++mismatches;
            ADD_FAILURE() << jobs[i].profile.name << "/" << jobs[i].label
                          << " differs from the golden Report\n"
                          << "  expected: "
                          << (i < expected.size() ? expected[i] : "(none)")
                          << "\n  actual:   " << line;
        }
    }
    if (expected.size() != results.size()) {
        ++mismatches;
        ADD_FAILURE() << "golden file has " << expected.size()
                      << " lines, the run produced " << results.size();
    }
    if (mismatches != 0) {
        std::ofstream(UDP_GOLDEN_ACTUAL) << actual;
        ADD_FAILURE() << mismatches << " golden Report line(s) changed. "
                      << "If the change is intended, accept it with:\n"
                      << "  cp " UDP_GOLDEN_ACTUAL " " UDP_GOLDEN_FILE;
    }
    expectUftqAndUdpAct(jobs, results);
}

/**
 * UDP's clear path, which no golden point reaches: with udp8k's filters
 * the highest epoch unused ratio over the ten apps at 400K instructions
 * is 0.645 (xgboost), under the 0.75 that clears the useful set. Filters
 * of 512/128/128 bits and a ratio of 0.3 make mysql and xgboost clear at
 * 20K/40K; their Reports are pinned here.
 */
TEST(GoldenReports, UdpClearPathMatchesPinnedLines)
{
    const std::pair<const char*, const char*> pinned[] = {
        {"mysql",
         R"({"workload":"mysql","config":"udp8k-clears",)"
         R"("instructions":40001,"cycles":47551,)"
         R"("ipc":0.8412231078210763,"icache_mpki":5.649858753531162,)"
         R"("mshr_hits_pki":5.874853128671783,)"
         R"("timeliness":0.8244824482448245,)"
         R"("l1_hit_ratio":0.9763652821080157,)"
         R"("lost_instr_per_kilo":1541.3114672133197,)"
         R"("prefetches_emitted":1856,)"
         R"("onpath_ratio":0.20043103448275862,)"
         R"("usefulness":0.611075747931254,)"
         R"("usefulness_hw":0.6708937198067633,)"
         R"("avg_ftq_occupancy":27.493070597884376,)"
         R"("branch_mpki":7.349816254593636,)"
         R"("cond_mispredict_rate":0.05955033421105935,"resteers":934,)"
         R"("decode_corrections":531,"udp_dropped":959,)"
         R"("udp_filtered_emits":4,"udp_learned":206})"},
        {"xgboost",
         R"({"workload":"xgboost","config":"udp8k-clears",)"
         R"("instructions":40001,"cycles":140741,)"
         R"("ipc":0.2842171080211168,"icache_mpki":39.04902377440564,)"
         R"("mshr_hits_pki":45.42386440338992,)"
         R"("timeliness":0.7138964577656676,)"
         R"("l1_hit_ratio":0.9372799447704522,)"
         R"("lost_instr_per_kilo":14320.166995825106,)"
         R"("prefetches_emitted":11595,)"
         R"("onpath_ratio":0.026218197498921948,)"
         R"("usefulness":0.3566482973011163,)"
         R"("usefulness_hw":0.49301450832885546,)"
         R"("avg_ftq_occupancy":21.964608749404935,)"
         R"("branch_mpki":49.7737556561086,)"
         R"("cond_mispredict_rate":0.06419474447847816,"resteers":7924,)"
         R"("decode_corrections":5380,"udp_dropped":16108,)"
         R"("udp_filtered_emits":190,"udp_learned":1250})"},
    };
    SimConfig cfg = presets::udp8k();
    cfg.udp.usefulSet.bits1 = 512;
    cfg.udp.usefulSet.bits2 = 128;
    cfg.udp.usefulSet.bits4 = 128;
    cfg.udp.usefulSet.clearUnusefulRatio = 0.3;
    for (const auto& [app, line] : pinned) {
        const Profile p = profileByName(app);
        const Program prog = ProgramBuilder::build(p);
        Cpu cpu(prog, cfg);
        cpu.runUntilRetired(20'000);
        cpu.clearStats();
        cpu.runUntilRetired(40'000);
        EXPECT_GE(cpu.udp()->usefulSetStats().clears, 1u) << app;
        EXPECT_EQ(reportToJsonLine(collectReport(cpu, p.name, "udp8k-clears")),
                  line);
    }
}

} // namespace
} // namespace udp
