/**
 * @file
 * Example: define a *custom* synthetic workload profile and study how its
 * frontend behaviour responds to FTQ depth — the exact methodology of the
 * paper's Section III analysis, applied to your own application model.
 *
 * Shows the full workload-authoring surface of the public API: footprint,
 * branch predictability mix, call-graph shape, hotness skew, and the
 * data-side behaviour.
 */

#include <cstdio>

#include "sim/runner.h"
#include "stats/table.h"

int
main()
{
    using namespace udp;

    // An "interpreter-like" application: medium footprint, a hot dispatch
    // loop over unpredictable indirect targets, small basic blocks.
    Profile prof;
    prof.name = "interp";
    prof.seed = 2024;
    prof.codeFootprintKB = 768;
    prof.runLenMin = 3;
    prof.runLenMax = 8;
    prof.diamondFrac = 0.5;
    prof.switchFrac = 0.15;          // lots of indirect dispatch
    prof.switchFanoutMin = 8;
    prof.switchFanoutMax = 24;
    prof.indirectNoise = 0.2;        // hard-to-predict targets
    prof.indirectLoadDepFrac = 0.6;  // dispatch on loaded opcode
    prof.numHotFuncs = 10;
    prof.hotWeight = 0.6;
    prof.noise = 0.025;
    prof.dataFootprintKB = 32 * 1024;

    // UDP_BENCH_WARMUP / UDP_BENCH_INSTR set the window, as for every
    // bench.
    RunOptions opts = envRunOptions({250'000, 400'000});

    Table t({"ftq_depth", "ipc", "mpki", "onpath", "useful", "timely",
             "avg_occupancy"});
    for (unsigned depth : {8u, 16u, 32u, 64u, 128u}) {
        Report r = runSim(prof, presets::fdipWithFtq(depth), opts, "");
        t.beginRow();
        t.cell(std::uint64_t{depth});
        t.cell(r.ipc, 3);
        t.cell(r.icacheMpki, 2);
        t.cell(r.onPathRatio, 2);
        t.cell(r.usefulness, 2);
        t.cell(r.timeliness, 2);
        t.cell(r.avgFtqOccupancy, 1);
    }
    std::printf("custom workload '%s': FTQ depth sweep, window %llu "
                "warmup + %llu measured instrs\n\n%s",
                prof.name.c_str(),
                static_cast<unsigned long long>(opts.warmupInstrs),
                static_cast<unsigned long long>(opts.measureInstrs),
                t.toAscii().c_str());

    // And how do the paper's techniques do on it?
    Report base = runSim(prof, presets::fdipBaseline(), opts, "fdip");
    Report uftq = runSim(prof, presets::uftq(UftqMode::AtrAur), opts, "uftq");
    Report udp = runSim(prof, presets::udp8k(), opts, "udp");
    std::printf("\nfdip-32 IPC %.3f | UFTQ-ATR-AUR %+.1f%% | UDP-8K %+.1f%%\n",
                base.ipc, (uftq.ipc / base.ipc - 1.0) * 100.0,
                (udp.ipc / base.ipc - 1.0) * 100.0);
    return 0;
}
