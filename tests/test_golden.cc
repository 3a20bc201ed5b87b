/**
 * @file
 * Golden Reports: pins the model's outputs. The ten datacenter
 * workloads run under fig13's five configurations plus UFTQ (ATR+AUR)
 * at a 2K/4K window, and every reportToJsonLine() must equal its line in
 * tests/golden/reports.jsonl byte for byte. A change to any model number
 * fails here. When the change is intended, the failure writes the new
 * lines next to the test binary and prints the cp command that accepts
 * them, so the new numbers show up in review.
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

std::vector<SweepJob>
goldenJobs()
{
    RunOptions o;
    o.warmupInstrs = 2'000;
    o.measureInstrs = 4'000;
    std::vector<SweepJob> jobs;
    for (const Profile& p : datacenterProfiles()) {
        jobs.push_back({p, presets::fdipBaseline(), o, "fdip32"});
        jobs.push_back({p, presets::udp8k(), o, "udp8k"});
        jobs.push_back({p, presets::udpInfinite(), o, "inf"});
        jobs.push_back({p, presets::bigIcache40k(), o, "ic40k"});
        jobs.push_back({p, presets::eip8k(), o, "eip"});
        jobs.push_back({p, presets::uftq(UftqMode::AtrAur), o, "uftq"});
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
}

} // namespace
} // namespace udp
