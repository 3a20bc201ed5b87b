/**
 * @file
 * Allocation guard: once warm, the cycle loop of the FDIP, UFTQ and UDP
 * configurations makes no heap allocation. The FTQ, decode queue and
 * true-stream window are rings, branch records live in a recycled pool
 * and the Seniority-FTQ is a fixed ring with a flat line set, so after
 * warm-up grows them to their working size no per-block or
 * per-instruction allocation remains. The binary counts calls of a
 * replaced global operator new (counting_new.cc), which is why it is
 * separate from udp_tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "counting_new.h"
#include "sim/cpu.h"
#include "sim/simconfig.h"
#include "workload/builder.h"
#include "workload/profile.h"

namespace udp {
namespace {

/**
 * Long enough for every ring and the record pool to reach their working
 * size in these apps. A structure that first reaches a new peak inside
 * the window doubles once (one or two allocations, e.g. tomcat's record
 * pool near instruction 107K); that calls for a longer warm-up, while a
 * count that scales with the window means per-block allocation is back.
 */
constexpr std::uint64_t kWarmupInstrs = 40'000;
constexpr std::uint64_t kMeasuredInstrs = 80'000;

SimConfig
configNamed(const std::string& name)
{
    if (name == "uftq") {
        return presets::uftq(UftqMode::AtrAur);
    }
    return name == "udp8k" ? presets::udp8k() : presets::fdipBaseline();
}

class AllocGuard
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(AllocGuard, WarmCycleLoopAllocatesNothing)
{
#ifdef UDP_CHECK
    GTEST_SKIP() << "the full invariant sweeps of a UDP_CHECK build "
                    "allocate scratch vectors every 64 cycles";
#endif
    const auto& [app, config] = GetParam();
    const Program prog = ProgramBuilder::build(profileByName(app));
    Cpu cpu(prog, configNamed(config));
    cpu.runUntilRetired(kWarmupInstrs);

    const std::uint64_t before = allocationCount();
    cpu.runUntilRetired(kWarmupInstrs + kMeasuredInstrs);
    const std::uint64_t allocations = allocationCount() - before;

    EXPECT_EQ(allocations, 0u)
        << app << "/" << config << ": " << allocations
        << " operator new calls in " << kMeasuredInstrs
        << " warm instructions";
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AllocGuard,
    ::testing::Combine(::testing::Values("mysql", "verilator"),
                       ::testing::Values("fdip32", "uftq", "udp8k")),
    [](const auto& info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

} // namespace
} // namespace udp
