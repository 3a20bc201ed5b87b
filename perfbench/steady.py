#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and prints each
end-to-end metric's median, quartiles and spread ((q3 - q1) / median)
against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload cycle_loop --runs 10
    python3 perfbench/steady.py --workload figures --runs 10 --vary-seed

Run it from the root of a checkout. By default every run uses the same
seed (--seed, default 0), so every digest is checked, the spread is host
noise alone, and the exact metrics must read the same on every run
(DIFFERS otherwise). --vary-seed gives run k the seed --seed + k, so the
spread also holds the workload's variation over Programs.

A metric is flagged NOISY when it does not repeat within a tenth
(spread > 0.1) or when its spread exceeds a third of its bound, and OVER
when its spread exceeds the bound itself. With --compare the runs are
made twice and the second median is checked against the first.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

# Simulated, not timed: a fixed seed must reproduce them exactly.
EXACT = ("ipc_geomean", "udp_speedup_geomean")


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    print("  seed %d: correct=%s attempted=%d failed=%d  %s" % (
        seed, result["correct"], result["attempted"], result["failed"],
        " ".join("%s=%.4g" % (n, m["value"])
                 for n, m in result["metrics"].items())), file=sys.stderr)
    return result


def run_set(workload, seeds, seconds):
    results = [one_run(workload, s, seconds) for s in seeds]
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return results, values


def report(bench, values, label, fixed_seed):
    print("%s: %d runs" % (label, len(next(iter(values.values())))))
    print("  %-22s %12s %12s %12s %8s %6s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "flag"))
    for m in bench["end_to_end"]:
        q1, med, q3, sp = bl.spread(values[m["name"]])
        flags = []
        if sp > 0.1 or sp > m["bound"] / 3:
            flags.append("NOISY")
        if sp > m["bound"]:
            flags.append("OVER")
        if fixed_seed and m["name"] in EXACT and \
                len(set(values[m["name"]])) > 1:
            flags.append("DIFFERS")
        print("  %-22s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
            m["name"], q1, med, q3, sp, m["bound"], " ".join(flags)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--compare", action="store_true")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seeds = [args.seed + (k if args.vary_seed else 0)
             for k in range(args.runs)]
    sets = 2 if args.compare else 1
    medians = []
    for k in range(sets):
        results, values = run_set(args.workload, seeds, bench["run_seconds"])
        failed = sum(r["failed"] for r in results)
        report(bench, values, "%s set %d, seeds %d..%d (%d failed "
               "operations)" % (args.workload, k + 1, seeds[0], seeds[-1],
                                failed), not args.vary_seed)
        medians.append({n: bl.spread(v)[1] for n, v in values.items()})
    if args.compare:
        print("second median vs first:")
        for m in bench["end_to_end"]:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print("  %-22s %+8.4f %s" % (m["name"], worse,
                                         "OVER" if worse > m["bound"] else ""))


if __name__ == "__main__":
    main()
