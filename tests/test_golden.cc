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
#include <vector>

#include "sim/simconfig.h"
#include "sim/sweep.h"
#include "stats/sink.h"
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

} // namespace
} // namespace udp
