"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout. The driver test needs a built driver
(any benchmark run builds it) and is skipped without one.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

DRIVER = Path(".bench_build/cmake/perfbench_driver")


def report(workload="mysql", config="fdip32", **over):
    r = {"workload": workload, "config": config, "instructions": 400001,
         "cycles": 200000, "ipc": 400001 / 200000, "timeliness": 0.5,
         "l1_hit_ratio": 0.9, "onpath_ratio": 0.7, "usefulness": 0.8,
         "usefulness_hw": 0.8, "cond_mispredict_rate": 0.05,
         "branch_mpki": 4.0, "resteers": 100, "avg_ftq_occupancy": 20.0,
         "decode_corrections": 10, "icache_mpki": 2.0,
         "prefetches_emitted": 50, "udp_dropped": 0,
         "udp_filtered_emits": 0}
    r.update(over)
    return r


def point(config, warmup_s, measure_s, profiled=0, **report_over):
    p = {"workload": "mysql", "config": config, "profiled": profiled,
         "cpu_init_s": 0.001, "warmup_s": warmup_s, "measure_s": measure_s,
         "collect_s": 2e-6, "warmup_instr": 250000, "measure_instr": 400000,
         "report": json.dumps(report(config=config, **report_over))}
    if profiled:
        p["prof_cycles"] = 1000
        p["prof_total_s"] = measure_s * 0.9
        p["prof_phase_s"] = {ph: measure_s * 0.15
                             for ph in bl.PROF_PHASES}
    return p


class MetricDerivation(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(bl.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(bl.geomean([2.0, 2.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            bl.geomean([])
        with self.assertRaises(ValueError):
            bl.geomean([1.0, 0.0])

    def test_parallel_eff(self):
        # 30 CPU seconds in 10 wall seconds on 4 jobs keeps 3 of 4 busy.
        self.assertAlmostEqual(bl.parallel_eff(30.0, 10.0, 4), 0.75)

    def test_spread_matches_statistics_quantiles(self):
        q1, med, q3, sp = bl.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(sp, (q3 - q1) / med)
        self.assertEqual(bl.spread([3.0])[3], 0.0)

    def test_best_of_takes_each_units_fastest_pass(self):
        passes = [{"a": 2.0, "b": 5.0, "c": 1.0}, {"a": 3.0, "b": 4.0}]
        self.assertEqual(bl.best_of(passes), {"a": 2.0, "b": 4.0})

    def test_ipc_metrics_pair_udp_with_fdip_per_app(self):
        reports = [report("a", "fdip32", ipc=1.0),
                   report("a", "udp8k", ipc=1.21),
                   report("b", "fdip32", ipc=4.0),
                   report("b", "udp8k", ipc=4.0),
                   report("b", "uftq", ipc=9.0)]
        ipc, speedup = bl.ipc_metrics(reports)
        self.assertAlmostEqual(ipc, 2.0)
        self.assertAlmostEqual(speedup, math.sqrt(1.21))

    def test_cycle_loop_layers(self):
        plain = [point(c, 0.25, 0.4, udp_dropped=30 if c == "udp8k" else 0,
                       udp_filtered_emits=10 if c == "udp8k" else 0)
                 for c in bl.CYCLE_CONFIGS]
        profiled = [point(c, 0.3, 0.5, profiled=1)
                    for c in bl.CYCLE_CONFIGS]
        m = bl.cycle_loop_layers(plain, profiled)
        self.assertAlmostEqual(m["sim.ns_per_instr.fdip32"]["value"], 1000.0)
        self.assertAlmostEqual(m["sim.warmup_s"]["value"], 0.75)
        self.assertAlmostEqual(m["prof.overhead_frac"]["value"],
                               0.8 / 0.65 - 1)
        self.assertAlmostEqual(m["prof.attributed_frac"]["value"], 0.9)
        self.assertAlmostEqual(m["prof.backend_ns_per_cycle"]["value"],
                               3 * 0.075 / 3000 * 1e9)
        self.assertAlmostEqual(m["core.udp_drop_frac"]["value"], 0.75)
        self.assertEqual(m["frontend.resteers"]["value"], 300)


class DigestChecks(unittest.TestCase):
    def test_perturbed_report_is_a_mismatch(self):
        good = json.dumps(report())
        committed = {"mysql/fdip32": bl.sha256(good),
                     "mysql/udp8k": bl.sha256(good)}
        perturbed = json.dumps(report(cycles=200001))
        bad = bl.digest_mismatches(
            {"mysql/fdip32": good, "mysql/udp8k": perturbed}, committed)
        self.assertEqual(bad, {"mysql/udp8k"})

    def test_missing_output_or_digest_is_a_mismatch(self):
        committed = {"a": bl.sha256("x")}
        self.assertEqual(bl.digest_mismatches({"a": None, "b": "y"},
                                              committed), {"a", "b"})

    def test_report_problems(self):
        self.assertEqual(bl.report_problems(report(), 400000), [])
        self.assertTrue(bl.report_problems(report(), 500000))
        self.assertTrue(bl.report_problems(report(ipc=3.0), 400000))
        self.assertTrue(bl.report_problems(report(usefulness=1.5), 400000))


class ProgressParsing(unittest.TestCase):
    def test_bench_walls_and_outcomes(self):
        lines = [(10.0, "=== fig01_perfect_icache ===\n"),
                 (11.5, "ok       fig01_perfect_icache\n"),
                 (11.5, "=== fig03_ftq_sweep ===\n"),
                 (14.0, "RETRY    fig03_ftq_sweep (hung, resuming)\n"),
                 (15.0, "FAILED   fig03_ftq_sweep (exit 1, see x.log)\n"),
                 (15.0, "=== fig13_udp ===\n"),
                 (15.2, "CRASHED  fig13_udp (SIGSEGV, see y.log)\n"),
                 (16.0, "all benches passed; artifacts in out\n")]
        got = bl.parse_progress(lines)
        self.assertEqual(set(got), {"fig01_perfect_icache",
                                    "fig03_ftq_sweep", "fig13_udp"})
        self.assertAlmostEqual(got["fig01_perfect_icache"]["wall_s"], 1.5)
        self.assertEqual(got["fig01_perfect_icache"]["outcome"], "ok")
        self.assertAlmostEqual(got["fig03_ftq_sweep"]["wall_s"], 3.5)
        self.assertEqual(got["fig03_ftq_sweep"]["outcome"], "failed")
        self.assertEqual(got["fig13_udp"]["outcome"], "crashed")

    def test_table_lines_are_not_progress(self):
        lines = [(1.0, "==============================\n"),
                 (2.0, "ok so far\n")]
        self.assertEqual(bl.parse_progress(lines), {})


@unittest.skipUnless(DRIVER.exists(), "driver not built")
class DriverDigest(unittest.TestCase):
    """A perturbed config must fail the committed digest; the committed
    config must pass it."""

    def first_point(self, *extra):
        out = subprocess.run(
            [str(DRIVER), "cycle_loop", "--seed", "0", "--limit", "1",
             *extra], stdout=subprocess.PIPE, text=True, check=True).stdout
        p = [json.loads(l) for l in out.splitlines()][-1]
        return {"%s/%s" % (p["workload"], p["config"]): p["report"]}

    def test_perturbed_config_counts_as_failed(self):
        digests = json.loads((HERE / "digests.json").read_text())
        committed = digests["cycle_loop"]
        self.assertEqual(bl.digest_mismatches(self.first_point(),
                                              committed), set())
        self.assertEqual(bl.digest_mismatches(self.first_point("--perturb"),
                                              committed), {"mysql/fdip32"})


if __name__ == "__main__":
    unittest.main()
