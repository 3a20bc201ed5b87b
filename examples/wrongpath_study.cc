/**
 * @file
 * Example: drive the Cpu cycle-by-cycle (the low-level API) and study
 * wrong-path behaviour directly — how often the frontend diverges, how
 * long it stays off-path, and what UDP's confidence estimator sees.
 * Component counters are cumulative, so the window's numbers are the
 * differences between two reads of them.
 */

#include <cstdio>

#include "sim/runner.h"
#include "workload/builder.h"

int
main()
{
    using namespace udp;

    Profile prof = profileByName("xgboost");
    prof.codeFootprintKB = 512; // quicker program construction
    prof.name = "xgboost-small";
    Program prog = ProgramBuilder::build(prof);
    std::printf("program: %zu instructions, %llu static branches, "
                "%zu KB code\n",
                prog.numInstrs(),
                static_cast<unsigned long long>(prog.numStaticBranches()),
                static_cast<std::size_t>(prog.codeBytes() / 1024));

    SimConfig cfg = presets::udp8k();
    Cpu cpu(prog, cfg);

    // Warm up, then observe a window cycle by cycle.
    cpu.runUntilRetired(200'000);
    const CpuCounters start = cpu.counters();
    const UdpEngine* udp_engine = cpu.udp();
    const SeniorityFtqStats seniority_start =
        udp_engine ? udp_engine->seniorityStats() : SeniorityFtqStats{};

    std::uint64_t window_cycles = 200'000;
    for (std::uint64_t i = 0; i < window_cycles; ++i) {
        cpu.cycle();
    }

    const CpuCounters window = counterDelta(cpu.counters(), start);
    const FrontendStats& fe = window.frontend;
    const FdipStats& fdip = window.fdip;

    double off_frac =
        static_cast<double>(fe.offPathInstrs) /
        static_cast<double>(fe.onPathInstrs + fe.offPathInstrs);
    std::printf("\nover %llu cycles:\n",
                static_cast<unsigned long long>(window_cycles));
    std::printf("  frontend emitted     : %llu instrs (%.1f%% off-path)\n",
                static_cast<unsigned long long>(fe.instrsEmitted),
                off_frac * 100.0);
    std::printf("  resteers             : %llu (%llu from decode)\n",
                static_cast<unsigned long long>(fe.resteers),
                static_cast<unsigned long long>(fe.decodeResteers));
    std::printf("  prefetches emitted   : %llu (%.1f%% off-path)\n",
                static_cast<unsigned long long>(fdip.emitted),
                100.0 - 100.0 * static_cast<double>(fdip.emittedOnPath) /
                            static_cast<double>(fdip.emitted ? fdip.emitted
                                                             : 1));
    std::printf("  dropped by UDP       : %llu\n",
                static_cast<unsigned long long>(window.udp.droppedFiltered));
    if (udp_engine) {
        std::printf("  useful-set learned   : %llu lines "
                    "(seniority matches %llu)\n",
                    static_cast<unsigned long long>(window.usefulSet.learns),
                    static_cast<unsigned long long>(
                        counterDelta(udp_engine->seniorityStats(),
                                     seniority_start)
                            .matches));
        std::printf("  UDP storage          : %llu bytes (paper: 8KB)\n",
                    static_cast<unsigned long long>(
                        udp_engine->storageBits() / 8));
    }
    std::printf("  retired              : %llu instrs -> IPC %.3f\n",
                static_cast<unsigned long long>(window.retired),
                static_cast<double>(window.retired) /
                    static_cast<double>(window.cycle));
    return 0;
}
