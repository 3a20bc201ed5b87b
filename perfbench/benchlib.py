"""Pure helpers of the repository benchmark: metric derivation, digest
checks, figure-pipeline progress parsing and steadiness statistics.

Nothing here runs a process, so perfbench/tests can exercise all of it.
"""

import hashlib
import json
import math
import re
import statistics

# Report fields that are ratios and must lie in [0, 1].
RATIO_FIELDS = ("timeliness", "l1_hit_ratio", "onpath_ratio", "usefulness",
                "usefulness_hw", "cond_mispredict_rate")

PROF_PHASES = ("icache", "backend", "fetch", "bpred", "prefetch", "other")
CYCLE_CONFIGS = ("fdip32", "udp8k", "uftq")


def metric(value, unit):
    return {"value": value, "unit": unit}


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    them; a single value has no spread."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.inf


def parallel_eff(cpu_s, wall_s, jobs):
    """sweep.parallel_eff: the share of `jobs` cores the run kept busy."""
    return cpu_s / (wall_s * jobs)


def sha256(text):
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def digest_mismatches(outputs, committed):
    """Names whose output is missing, or whose sha256 differs from the
    committed digest. `outputs` maps name -> text (None = not produced)."""
    bad = set()
    for name, text in outputs.items():
        if text is None or committed.get(name) != sha256(text):
            bad.add(name)
    return bad


def report_problems(report, measure_target):
    """Invariants any Report must satisfy, at any seed."""
    problems = []
    instr = report["instructions"]
    cycles = report["cycles"]
    if instr < measure_target:
        problems.append("instructions %d < target %d" % (instr,
                                                         measure_target))
    if cycles <= 0:
        problems.append("no cycles")
    elif not math.isclose(report["ipc"], instr / cycles, rel_tol=1e-12):
        problems.append("ipc != instructions / cycles")
    for key in RATIO_FIELDS:
        if not 0.0 <= report[key] <= 1.0:
            problems.append("%s out of [0, 1]" % key)
    return problems


# Progress lines of tools/run_all_figs.sh: "=== NAME ===" when a bench
# starts, then one outcome line ("ok       NAME", "FAILED   NAME (...)").
_START = re.compile(r"^=== (\S+) ===$")
_OUTCOME = re.compile(r"^(ok|FAILED|CRASHED|HUNG|INTERRUPTED|MISSING)\s+"
                      r"(\S+)")


def parse_progress(stamped_lines):
    """Maps each bench to {"wall_s", "outcome"} from (time, line) pairs
    stamped as the lines arrived. A RETRY line keeps the bench open."""
    benches = {}
    started = {}
    for t, line in stamped_lines:
        line = line.rstrip("\n")
        m = _START.match(line)
        if m:
            started[m.group(1)] = t
            continue
        m = _OUTCOME.match(line)
        # Only a started bench has an outcome line, except MISSING.
        if m and (m.group(2) in started or m.group(1) == "MISSING"):
            name = m.group(2)
            benches[name] = {"wall_s": t - started.get(name, t),
                             "outcome": m.group(1).lower()}
    return benches


def simulated_instr(report, warmup_target):
    """Instructions a point simulated: the warmup window plus the
    measured ones the Report counts."""
    return warmup_target + report["instructions"]


def ipc_metrics(reports):
    """(ipc_geomean of fdip32, geomean udp8k/fdip32 IPC) over apps."""
    base = {r["workload"]: r["ipc"] for r in reports
            if r["config"] == "fdip32"}
    udp = {r["workload"]: r["ipc"] for r in reports
           if r["config"] == "udp8k"}
    apps = sorted(set(base) & set(udp))
    if not apps:
        raise ValueError("no fdip32/udp8k pairs")
    return (geomean(base[a] for a in apps),
            geomean(udp[a] / base[a] for a in apps))


def best_of(passes):
    """Each unit's fastest time over repeated passes of the same work;
    only units every pass measured are kept."""
    names = set(passes[0]).intersection(*passes[1:])
    return {n: min(p[n] for p in passes) for n in sorted(names)}


def cycle_loop_layers(plain, profiled):
    """Per-layer metrics of the cycle_loop traced run. `plain` are the
    untraced points, `profiled` their self-profiled twins."""
    out = {}
    n = len(plain)
    out["sim.cpu_init_ms"] = metric(
        sum(p["cpu_init_s"] for p in plain) / n * 1e3, "ms")
    out["sim.warmup_s"] = metric(sum(p["warmup_s"] for p in plain), "s")
    out["sim.measure_s"] = metric(sum(p["measure_s"] for p in plain), "s")
    for cfg in CYCLE_CONFIGS:
        pts = [p for p in plain if p["config"] == cfg]
        sec = sum(p["warmup_s"] + p["measure_s"] for p in pts)
        instr = sum(p["warmup_instr"] + p["measure_instr"] for p in pts)
        out["sim.ns_per_instr." + cfg] = metric(sec / instr * 1e9,
                                                "ns/instr")
    out["sim.collect_report_us"] = metric(
        sum(p["collect_s"] for p in plain) / n * 1e6, "us")

    cycles = sum(p["prof_cycles"] for p in profiled)
    for ph in PROF_PHASES:
        sec = sum(p["prof_phase_s"][ph] for p in profiled)
        out["prof.%s_ns_per_cycle" % ph] = metric(sec / cycles * 1e9,
                                                  "ns/cycle")
    out["prof.attributed_frac"] = metric(
        sum(p["prof_total_s"] for p in profiled) /
        sum(p["measure_s"] for p in profiled), "ratio")
    loop = lambda pts: sum(p["warmup_s"] + p["measure_s"] for p in pts)
    out["prof.overhead_frac"] = metric(loop(profiled) / loop(plain) - 1.0,
                                       "ratio")

    reports = [json.loads(p["report"]) for p in plain]
    mean = lambda key: sum(r[key] for r in reports) / len(reports)
    total = lambda key: sum(r[key] for r in reports)
    out["bpred.branch_mpki"] = metric(mean("branch_mpki"), "1/kinstr")
    out["frontend.resteers"] = metric(total("resteers"), "count")
    out["frontend.avg_ftq_occupancy"] = metric(mean("avg_ftq_occupancy"),
                                               "blocks")
    out["fetch.decode_corrections"] = metric(total("decode_corrections"),
                                             "count")
    out["cache.icache_mpki"] = metric(mean("icache_mpki"), "1/kinstr")
    out["prefetch.emitted"] = metric(total("prefetches_emitted"), "count")
    out["prefetch.usefulness"] = metric(mean("usefulness"), "ratio")
    out["prefetch.timeliness"] = metric(mean("timeliness"), "ratio")
    udp = [r for r in reports if r["config"] == "udp8k"]
    dropped = sum(r["udp_dropped"] for r in udp)
    out["core.udp_drop_frac"] = metric(
        dropped / (dropped + sum(r["udp_filtered_emits"] for r in udp)),
        "ratio")
    return out
