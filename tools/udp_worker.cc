/**
 * @file
 * udp_worker — one worker of a distributed sweep (docs/ROBUSTNESS.md
 * §10). Joins the shared queue directory a udp_sweepd coordinator
 * seeded, reads the sweep spec, expands it deterministically into the
 * same job list the coordinator holds, then claims and executes leases
 * until the sweep drains.
 *
 *   udp_worker --queue /shared/q
 *   udp_worker --queue /shared/q --isolate --mem-mb 4096
 *
 * Exit codes: 0 sweep drained / nothing left, 2 cannot read or parse
 * the queue, 3 queue lost mid-run (pending result flushed to the shard
 * file when --shard-dir is set).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/eventlog.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"

using namespace udp;

namespace {

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --queue DIR [--name S]\n"
        "  [--shard-dir DIR] [--isolate] [--mem-mb N] [--cpu-sec N]\n"
        "  [--wall-sec X] [--poll-ms N] [--max-jobs N] [--delay-ms N] "
        "[--quiet]\n",
        argv0);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string queueDir;
    WorkerOptions wo;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--queue") {
            queueDir = val();
        } else if (arg == "--name") {
            wo.name = val();
        } else if (arg == "--shard-dir") {
            wo.shardDir = val();
        } else if (arg == "--isolate") {
            wo.exec.isolate = true;
        } else if (arg == "--mem-mb") {
            wo.exec.memLimitBytes =
                std::strtoull(val(), nullptr, 10) << 20;
        } else if (arg == "--cpu-sec") {
            wo.exec.cpuLimitSec = std::strtoull(val(), nullptr, 10);
        } else if (arg == "--wall-sec") {
            wo.exec.wallLimitSec = std::strtod(val(), nullptr);
        } else if (arg == "--poll-ms") {
            wo.pollSec = std::strtod(val(), nullptr) / 1000.0;
        } else if (arg == "--max-jobs") {
            wo.maxJobs = std::strtoull(val(), nullptr, 10);
        } else if (arg == "--delay-ms") {
            wo.jobDelayMs = static_cast<unsigned>(std::atoi(val()));
        } else if (arg == "--quiet") {
            wo.quiet = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (queueDir.empty()) {
        usage(argv[0]);
        return 2;
    }

    FsWorkQueue queue(queueDir);
    std::string err;
    if (!queue.connect(&err)) {
        std::fprintf(stderr, "[%s] %s\n", wo.name.c_str(), err.c_str());
        return 2;
    }

    std::string specJson = queue.specJson();
    if (specJson.empty()) {
        std::fprintf(stderr,
                     "[%s] queue serves no spec — this sweep pairs bench "
                     "binaries (--coordinator/--worker-of), not "
                     "udp_worker\n",
                     wo.name.c_str());
        return 2;
    }
    SweepSpec spec;
    std::vector<SweepJob> jobs;
    if (!sweepSpecFromJson(specJson, &spec, &err) ||
        !expandSweepSpec(spec, &jobs, &err)) {
        std::fprintf(stderr, "[%s] bad spec from queue: %s\n",
                     wo.name.c_str(), err.c_str());
        return 2;
    }
    if (!wo.quiet) {
        obs::Event(obs::LogLevel::Info, wo.name, "joined")
            .str("sweep", spec.name)
            .u64("jobs", jobs.size())
            .emit();
    }

    WorkerSummary s = runSweepWorker(queue, jobs, wo);
    if (!wo.quiet) {
        obs::Event(obs::LogLevel::Info, wo.name, "done")
            .u64("executed", s.executed)
            .u64("recorded", s.completed)
            .u64("failed", s.failures)
            .u64("duplicates", s.duplicates)
            .u64("flushed_local", s.flushedLocal)
            .str("queue", s.queueLost ? "lost" : "ok")
            .emit();
    }
    return s.queueLost ? 3 : 0;
}
