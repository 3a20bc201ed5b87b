#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one
workload, checks its outputs and prints one JSON result line.

    python3 perfbench/run.py --workload cycle_loop --seed 0 --seconds 30 \
        --trace 0

Run it from the root of a checkout. Workloads and metrics are described
in perfbench/README.md. --trace 0 prints the end-to-end metrics of the
named workload; --trace 1 runs the separate traced pass of every layer
and prints the per-layer metrics. --regen-digests rewrites the named
workload's committed digests after an intended model change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"
DRIVER = BUILD / "perfbench_driver"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("cycle_loop", "figures", "artifacts")
JOBS = 4  # UDP_JOBS of the figure benches, as the driver's kJobs
SETUP_REPS = 3  # warm builds per pass of a timed run; the traced run takes 7
FIG_WARMUP, FIG_INSTR = 500, 1000
FIG_BENCHES = (
    "fig01_perfect_icache", "fig03_ftq_sweep", "fig04_timeliness",
    "fig05_onpath_ratio", "fig06_usefulness", "fig08_occupancy",
    "fig11_uftq", "fig12_uftq_mpki", "fig13_udp", "fig14_udp_mpki",
    "fig15_lost_instructions", "fig16_btb_sensitivity",
    "fig17_ftq_sensitivity", "table3_optimal_ftq", "ablation_udp")
# Benches that write Report JSONL next to their table.
FIG_SINK_BENCHES = ("fig03_ftq_sweep", "fig13_udp", "table3_optimal_ftq",
                    "ablation_udp")
REQUIRED_SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt",
                    "bench/CMakeLists.txt", "tools/run_all_figs.sh")


class BenchError(Exception):
    pass


def clean_env():
    """The caller's environment minus every simulator knob, so inherited
    UDP_* settings cannot change the measured work."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UDP_")}
    env["UDP_JOBS"] = str(JOBS)
    return env


def build():
    """Configures once per checkout, then brings the driver and the figure
    benches up to date. The log stays out of stdout."""
    log_path = ROOT / ".bench_build" / "build.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(JOBS),
                  "--target", "perfbench_driver", *FIG_BENCHES])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=clean_env()) != 0:
                raise BenchError("build failed, see %s" % log_path)


class Proc:
    """One finished subprocess: stamped stdout lines and its rusage."""

    def __init__(self, cmd, env=None, log=None):
        """stderr goes to `log`, or joins the stamped stdout lines when
        `log` is None."""
        t0 = time.monotonic()
        with open(log or os.devnull, "w") as err:
            p = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, env=env or clean_env(),
                stderr=err if log else subprocess.STDOUT, cwd=ROOT)
            self.lines = [(time.monotonic(), raw.decode())
                          for raw in iter(p.stdout.readline, b"")]
            p.stdout.close()
            # wait4 reports the child plus every descendant it reaped.
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.monotonic() - t0
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024.0
        self.rc = p.returncode

    def json_lines(self):
        return [json.loads(l) for _, l in self.lines if l.startswith("{")]


def load_digests():
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def setup_reps(seed, reps):
    """Seconds of each of `reps` in-process builds of all ten Programs."""
    p = Proc([str(DRIVER), "setup", "--seed", str(seed), "--reps",
              str(reps)], log=WORK / "setup.log")
    lines = p.json_lines()
    if p.rc != 0 or not lines:
        raise BenchError("setup failed (exit %d)" % p.rc)
    return lines[-1]["build_s"]


class Iteration:
    """One unit of a workload's fixed work, checked and measured."""

    def __init__(self, proc, attempted):
        self.proc = proc
        self.attempted = attempted
        self.failed = set()  # names of failed operations
        self.outputs = {}    # operation name -> output text
        self.files = {}      # whole artifacts built from the operations
        self.units = {}      # unit of fixed work -> host seconds
        self.sim = {}        # name -> (simulated instructions, seconds)
        self.reports = []    # Report dicts for the IPC metrics
        self.layers = {}     # per-layer metrics (traced run)


def check_reports(it, reports, measure_target):
    """Fails every operation whose Report breaks an invariant."""
    for name, line in reports.items():
        if not line:
            it.failed.add(name)
            continue
        problems = bl.report_problems(json.loads(line), measure_target)
        if problems:
            print("%s: %s" % (name, "; ".join(problems)), file=sys.stderr)
            it.failed.add(name)


def check_digests(it, section, outputs, digests):
    """Fails every operation whose output differs from its committed
    digest; `digests` is None while the digests are being regenerated."""
    if digests is None:
        return
    bad = bl.digest_mismatches(outputs, digests.get(section, {}))
    for name in sorted(bad):
        print("%s: %s differs from its committed digest" % (section, name),
              file=sys.stderr)
    it.failed |= bad


def run_cycle_loop(seed, digests, traced=False):
    cmd = [str(DRIVER), "cycle_loop", "--seed", str(seed)]
    if traced:
        cmd.append("--profile-pairs")
    proc = Proc(cmd, log=WORK / "cycle_loop.log")
    lines = proc.json_lines()
    head = next((l for l in lines if l["kind"] == "build"), None)
    points = [l for l in lines if l["kind"] == "point"]
    plain = [p for p in points if not p["profiled"]]
    it = Iteration(proc, 30)
    if proc.rc != 0 or head is None:
        raise BenchError("cycle_loop driver failed (exit %d)" % proc.rc)
    name = lambda p: "%s/%s" % (p["workload"], p["config"])
    it.outputs = {name(p): p["report"] for p in plain}
    it.attempted = len(it.outputs)
    check_reports(it, it.outputs, head["measure_target"])
    if seed == 0:
        check_digests(it, "cycle_loop", it.outputs, digests)
    it.reports = [json.loads(p["report"]) for p in plain]
    for p in plain:
        it.units[name(p)] = (p["cpu_init_s"] + p["warmup_s"] + p["measure_s"] +
                             p["collect_s"])
        it.sim[name(p)] = (p["warmup_instr"] + p["measure_instr"],
                           p["warmup_s"] + p["measure_s"])
    if traced:
        profiled = [p for p in points if p["profiled"]]
        for p in profiled:
            # The profiler must not perturb the model.
            if it.outputs.get(name(p)) != p["report"]:
                it.failed.add(name(p))
        it.layers = bl.cycle_loop_layers(plain, profiled)
    return it


def run_figures(seed, digests, traced=False):
    # The figure benches build the committed profiles; the seed offset
    # cannot reach them, so their tables are checked at every seed.
    del seed
    out = WORK / "figures"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = clean_env()
    env.update(UDP_BENCH_WARMUP=str(FIG_WARMUP), UDP_BENCH_INSTR=str(FIG_INSTR),
               UDP_BENCH_TIMEOUT="150")
    # run_all_figs.sh reports failures on stderr: with no log, stderr
    # joins the stamped stream so every outcome line is seen.
    proc = Proc(["bash", str(ROOT / "tools" / "run_all_figs.sh"),
                 str(BUILD / "repo"), str(out)], env=env)
    progress = bl.parse_progress(proc.lines)
    it = Iteration(proc, len(FIG_BENCHES))
    for bench in FIG_BENCHES:
        txt = out / (bench + ".txt")
        ok = progress.get(bench, {}).get("outcome") == "ok"
        it.outputs[bench + ".txt"] = txt.read_text() if ok and txt.exists() \
            else None
    check_digests(it, "figures", it.outputs, digests)

    it.units = {b: w["wall_s"] for b, w in progress.items()}
    for bench in FIG_SINK_BENCHES:
        path = out / (bench + ".jsonl")
        if it.outputs[bench + ".txt"] is None or not path.exists():
            continue
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        rows = [r for r in rows if "error_kind" not in r]
        it.sim[bench] = (sum(bl.simulated_instr(r, FIG_WARMUP) for r in rows),
                         progress[bench]["wall_s"])
        if bench == "fig13_udp":
            it.reports = rows
    if not it.sim or not it.reports:
        raise BenchError("figures produced no sink artifacts")
    if traced:
        for bench in FIG_BENCHES:
            wall = progress.get(bench, {}).get("wall_s")
            if wall:
                it.layers["bench.%s.wall_s" % bench] = bl.metric(wall, "s")
        it.layers["sweep.parallel_eff"] = bl.metric(
            bl.parallel_eff(proc.cpu_s, proc.wall_s, JOBS),
            "ratio")
    return it


def run_artifacts(seed, digests, traced=False):
    out = WORK / "artifacts"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = Proc([str(DRIVER), "artifacts", "--seed", str(seed), "--out",
                 str(out)], log=WORK / "artifacts.log")
    lines = proc.json_lines()
    summary = next((l for l in lines if l["kind"] == "artifacts"), None)
    if proc.rc != 0 or summary is None:
        raise BenchError("artifacts driver failed (exit %d)" % proc.rc)
    points = [l for l in lines if l["kind"] == "point"]
    it = Iteration(proc, len(points))
    for p in points:
        name = "%s/%s" % (p["workload"], p["config"])
        it.outputs[name] = p["fresh"]
        # In-process telemetry and the --resume replay must reproduce the
        # isolated sweep's Report exactly, and the replay must not re-run.
        if p["telemetry"] != p["fresh"] or p["replay"] != p["fresh"] or \
                not p["resumed"]:
            it.failed.add(name)
    check_reports(it, it.outputs, summary["measure_target"])
    for stem in ("fig13.jsonl", "fig13.csv"):
        it.files[stem] = (out / stem).read_text()
        replayed = (out / stem.replace("fig13.", "fig13.resume.")).read_text()
        if not summary["writes_ok"] or replayed != it.files[stem]:
            print("artifacts: --resume did not reproduce %s" % stem,
                  file=sys.stderr)
            it.failed |= set(it.outputs)
    if seed == 0:
        check_digests(it, "artifacts", it.outputs, digests)
        if digests is not None and bl.digest_mismatches(
                it.files, digests.get("artifacts", {})):
            print("artifacts: sink files differ from their committed "
                  "digests", file=sys.stderr)
            it.failed |= set(it.outputs)

    it.reports = [json.loads(p["fresh"]) for p in points if p["fresh"]]
    it.units["pass"] = proc.wall_s
    it.sim["isolated_sweep"] = (
        sum(bl.simulated_instr(r, summary["warmup_target"])
            for r in it.reports), summary["sweep_s"])
    if traced:
        size = lambda *names: sum((out / n).stat().st_size for n in names)
        layers = it.layers
        layers["procexec.ms_per_point"] = bl.metric(
            summary["sweep_s"] / len(points) * 1e3, "ms")
        layers["manifest.bytes"] = bl.metric(size("fig13.manifest.jsonl"), "bytes")
        layers["manifest.replay_ms"] = bl.metric(summary["replay_s"] * 1e3, "ms")
        layers["sink.write_ms"] = bl.metric(summary["sink_write_s"] * 1e3, "ms")
        layers["sink.bytes"] = bl.metric(size("fig13.jsonl", "fig13.csv"),
                                    "bytes")
        layers["telemetry.interval_rows"] = bl.metric(summary["interval_rows"],
                                                 "rows")
        layers["telemetry.write_ms"] = bl.metric(
            summary["telemetry_write_s"] * 1e3, "ms")
        layers["trace.events"] = bl.metric(summary["trace_events"], "events")
        layers["trace.bytes"] = bl.metric(size("trace.json"), "bytes")
        layers["trace.write_s"] = bl.metric(summary["trace_write_s"], "s")
    return it


RUNNERS = {"cycle_loop": run_cycle_loop, "figures": run_figures,
           "artifacts": run_artifacts}


def timed_run(workload, seed, seconds, digests):
    """Repeats the workload's fixed work while another repetition still
    fits in `seconds`, at least twice. Host time takes each unit of work
    at its best repetition: on a shared host, other tenants slow every
    unit by up to 1.7x in phases of seconds to a minute, and the fastest
    repetition is the figure that repeats from run to run."""
    setup, its = [], []
    t0 = time.monotonic()
    while len(its) < 2 or \
            time.monotonic() - t0 + its[-1].proc.wall_s <= seconds:
        # Set-up is sampled before every pass, so its fastest build is
        # drawn from the same host phases as the passes.
        setup += setup_reps(seed, SETUP_REPS)
        its.append(RUNNERS[workload](seed, digests))
    # The model is deterministic: every repetition must match the first.
    for it in its[1:]:
        for name, text in it.outputs.items():
            if text != its[0].outputs.get(name):
                it.failed.add(name)
        if it.files != its[0].files:
            it.failed |= set(it.outputs)

    units = bl.best_of([it.units for it in its])
    sim_s = bl.best_of([{k: s for k, (_, s) in it.sim.items()} for it in its])
    ipc, speedup = bl.ipc_metrics(its[0].reports)
    metrics = {
        "wall_s": bl.metric(sum(units.values()), "s"),
        "setup_s": bl.metric(min(setup), "s"),
        "peak_rss_mb": bl.metric(
            statistics.median(it.proc.peak_rss_mb for it in its), "MB"),
        "cpu_s": bl.metric(min(it.proc.cpu_s for it in its), "s"),
        "sim_minstr_per_s": bl.metric(bl.geomean(
            its[0].sim[k][0] / sec / 1e6 for k, sec in sim_s.items()),
            "Minstr/s"),
        "ipc_geomean": bl.metric(ipc, "instr/cycle"),
        "udp_speedup_geomean": bl.metric(speedup, "ratio"),
    }
    return (sum(it.attempted for it in its),
            sum(len(it.failed) for it in its), metrics)


def traced_run(workload, seed, digests):
    """The separate traced pass: the self-profiler and layer timers on
    every layer, the named workload first."""
    layers = {"workload.build_s": bl.metric(min(setup_reps(seed, 7)), "s")}
    attempted = failed = 0
    for name in (workload,) + tuple(w for w in WORKLOADS if w != workload):
        it = RUNNERS[name](seed, digests, traced=True)
        attempted += it.attempted
        failed += len(it.failed)
        layers.update(it.layers)
    return attempted, failed, layers


def regen_digests(workload):
    """Rewrites the workload's committed digests from a default-seed run."""
    digests = load_digests()
    it = RUNNERS[workload](0, None)
    outputs = {**it.outputs, **it.files}
    digests[workload] = {name: bl.sha256(text)
                         for name, text in sorted(outputs.items())
                         if text is not None}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("wrote %d %s digests to %s" % (len(digests[workload]), workload,
                                         DIGESTS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    missing = [s for s in REQUIRED_SOURCES if not (ROOT / s).is_file()]
    if missing:
        print("perfbench: run from the root of a checkout; missing %s"
              % ", ".join(missing), file=sys.stderr)
        return 2
    try:
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        if args.regen_digests:
            regen_digests(args.workload)
            return 0
        digests = load_digests()
        if args.trace:
            attempted, failed, metrics = traced_run(args.workload, args.seed,
                                                    digests)
        else:
            attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds, digests)
    except (BenchError, ValueError, KeyError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("workload=%s seed=%d trace=%d" % (args.workload, args.seed,
                                            args.trace))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
