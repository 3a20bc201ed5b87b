#!/usr/bin/env python3
"""Print the paper's utility-taxonomy breakdown from telemetry artifacts.

Reads the ".jsonl" file written next to figures' --interval-stats CSV
(rows tagged "row_type":"telemetry_summary"; see docs/TELEMETRY.md) and
prints one row per (workload, config): issued prefetches per source, the
Timely / Late / Unused / Polluting / Pending lifecycle split, and the
derived accuracy / timeliness ratios with late-by percentiles — the same
quantities as the paper's Table III / Fig. 4 discussion.

Also summarizes the cycle-loop self-profiler when present
(docs/OBSERVABILITY.md): "row_type":"profile_summary" rows from figures'
"figures.profile.jsonl" sidecar, and "host_us_per_phase" counter tracks
inside a --trace-out Chrome-trace file, both printed as per-phase
host-time shares.

Usage:
    tools/trace_summary.py out/intervals.jsonl [out/figures.profile.jsonl]
    tools/trace_summary.py out/trace.json

Only the standard library is used.
"""

import argparse
import itertools
import json
import sys

OUTCOMES = ("timely", "late", "unused", "polluting", "pending")
SOURCES = ("fdip", "udp_extra", "eip", "stream")
PHASES = ("fetch", "bpred", "icache", "prefetch", "backend", "other")


def trace_records(lines):
    """The process_name and host_us_per_phase records of a Chrome trace.

    The writer (src/stats/tracefile.h) puts one record per line, each but
    the last followed by a comma, so the file is read a line at a time
    and never held whole. Other records are skipped unparsed, and so is a
    cut-off last line. A trace another tool saved on one line is read
    whole.
    """
    for line in lines:
        if '"process_name"' not in line and '"host_us_per_phase"' not in line:
            continue
        try:
            record = json.loads(line.strip().rstrip(","))
        except json.JSONDecodeError:
            continue  # a trace cut off mid-record
        yield from record.get("traceEvents", [record])


def profiles_from_trace(events):
    """Per-job phase seconds from a Chrome trace's self_profile tracks."""
    names = {}
    phase_us = {}
    for ev in events:
        pid = ev.get("pid")
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            names[pid] = ev.get("args", {}).get("name", f"pid{pid}")
        elif ev.get("ph") == "C" and ev.get("name") == "host_us_per_phase":
            acc = phase_us.setdefault(pid, dict.fromkeys(PHASES, 0.0))
            for p in PHASES:
                acc[p] += float(ev.get("args", {}).get(p, 0.0))
    for pid in sorted(phase_us):
        sec = {p: us / 1e6 for p, us in phase_us[pid].items()}
        yield {"name": names.get(pid, f"pid{pid}"), "phase_sec": sec,
               "cycles": None}


def load_inputs(paths):
    """Split inputs into telemetry_summary rows and profile entries.

    Accepts telemetry/profile JSONL artifacts and --trace Chrome-trace
    files in any order, each read a line at a time; tolerates a truncated
    final line.
    """
    telemetry, profiles = [], []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            lines = itertools.chain([first], fh)
            if '"traceEvents"' in first:
                profiles.extend(profiles_from_trace(trace_records(lines)))
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # crash-safe artifacts may end mid-line
                kind = row.get("row_type")
                if kind == "telemetry_summary":
                    telemetry.append(row)
                elif kind == "profile_summary":
                    name = (f"{row.get('workload', '?')}/"
                            f"{row.get('config', '?')}")
                    sec = {p: float(row.get(f"phase_{p}_sec", 0.0))
                           for p in PHASES}
                    profiles.append({"name": name, "phase_sec": sec,
                                     "cycles": row.get("cycles")})
    return telemetry, profiles


def pct(num, den):
    return 100.0 * num / den if den else 0.0


def fmt_row(cells, widths):
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def print_table(table):
    """Right-aligned columns; table[0] is the header."""
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(table[0]))]
    print(fmt_row(table[0], widths))
    print("  ".join("-" * w for w in widths))
    for row in table[1:]:
        print(fmt_row(row, widths))


def print_profiles(profiles):
    """Table of per-phase host-time shares from the self-profiler."""
    print("self-profiler host time by phase:")
    header = ["job", "host_sec"] + [f"{p}%" for p in PHASES]
    table = [header]
    for e in profiles:
        total = sum(e["phase_sec"].values())
        table.append([
            e["name"],
            f"{total:.3f}",
            *(f"{pct(e['phase_sec'][p], total):.1f}" for p in PHASES),
        ])
    print_table(table)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="trace_summary.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("inputs", nargs="+", metavar="FILE")
    args = parser.parse_args(argv[1:])

    try:
        rows, profiles = load_inputs(args.inputs)
    except OSError as e:
        print(f"trace_summary.py: cannot read {e.filename}: {e.strerror}",
              file=sys.stderr)
        return 2
    if not rows and not profiles:
        print("no telemetry_summary / profile_summary rows or profiler "
              "trace tracks found (run figures with "
              "--interval-stats or --profile; see docs/TELEMETRY.md and "
              "docs/OBSERVABILITY.md)",
              file=sys.stderr)
        return 1
    if not rows:
        if profiles:
            print_profiles(profiles)
        return 0

    header = ["workload", "config", "issued"] + list(OUTCOMES) + [
        "acc%", "timely%", "late_p50", "late_p90", "late_p99"]
    table = [header]
    for r in rows:
        issued = int(r.get("pf_issued_total", 0))
        counts = {o: int(r.get(f"pf_{o}_total", 0)) for o in OUTCOMES}
        used = counts["timely"] + counts["late"]
        table.append([
            r.get("workload", "?"),
            r.get("config", "?"),
            issued,
            *(counts[o] for o in OUTCOMES),
            f"{pct(used, issued):.1f}",
            f"{pct(counts['timely'], used):.1f}",
            int(r.get("pf_late_by_p50", 0)),
            int(r.get("pf_late_by_p90", 0)),
            int(r.get("pf_late_by_p99", 0)),
        ])

    print_table(table)

    # Per-source issue mix, when any non-FDIP source contributed.
    mixed = [r for r in rows
             if any(int(r.get(f"pf_issued_{s}", 0)) for s in SOURCES[1:])]
    if mixed:
        print()
        print("issue mix by source:")
        for r in mixed:
            parts = ", ".join(
                f"{s}={int(r.get(f'pf_issued_{s}', 0))}" for s in SOURCES
                if int(r.get(f"pf_issued_{s}", 0)))
            print(f"  {r.get('workload', '?')}/{r.get('config', '?')}: "
                  f"{parts}")

    if profiles:
        print()
        print_profiles(profiles)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
