#!/usr/bin/env python3
"""Steadiness check of the serving benchmark.

Run from the root of a source checkout:

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
    python3 perfbench/steady.py --trace-check [--workloads a,b]

Runs BENCHMARK.json's command --runs times per workload and set, each run with
its own seed, interleaving the sets run by run so host drift falls on both.
For every end-to-end metric it prints each set's median and quartile spread
((q3 - q1) / median, from statistics.quantiles(n=4)) and how far the later
set's median moved against the first in the metric's worse direction. A
metric passes when every spread except setup_s stays within its bound and no
set's median is worse than the first set's by more than the bound. Writes
the values to .bench_work/steady.json; exits 1 when a check fails.

--trace-check instead makes two traced runs per workload with one seed,
checks that every count metric repeats exactly, and prints the layer
predictions each run states.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace=0):
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct: {lines[-1]}")
    return result, report


def trace_check(bench, workloads):
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    failures = []
    for w in workloads:
        first, report = run_once(bench["command"], w, 1, bench["run_seconds"], trace=1)
        again, _ = run_once(bench["command"], w, 1, bench["run_seconds"], trace=1)
        for name in counts:
            a = first["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            print(f"{w:13} {name:24} {a:>10} {b:>10}{'' if a == b else '  DIFFERS'}")
            if a != b:
                failures.append(f"{w}/{name}")
        for claim, verdict in report.get("predictions", {}).items():
            state = "confirmed" if verdict["confirmed"] else "refuted"
            print(f"{w:13} {claim}: {state} (share {verdict['measured_share']:.4f})")
    print("\nFAILED: " + ", ".join(failures) if failures else "\ncounts repeat exactly")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    if args.trace_check:
        return trace_check(bench, workloads)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {(s, w): {name: [] for name in metrics} for s in range(args.sets)
              for w in workloads}
    probes = []
    for i in range(args.runs):
        for w in workloads:
            for s in range(args.sets):
                seed = 1 + s * 1000 + i
                result, report = run_once(bench["command"], w, seed, bench["run_seconds"])
                for name in metrics:
                    values[(s, w)][name].append(result["metrics"][name]["value"])
                probe = report.get("host_probe_ms", {})
                probes.append((w, s, seed, probe.get("before"), probe.get("after"),
                               report.get("host_steal_share")))
                print(f"run {i + 1}/{args.runs} set {s} {w} seed {seed}: " + ", ".join(
                    f"{n}={result['metrics'][n]['value']:.4g}" for n in metrics),
                      flush=True)

    failures = []
    print(f"\n{'workload':13} {'metric':16} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'drift':>8}")
    for w in workloads:
        for name, spec in metrics.items():
            first = None
            for s in range(args.sets):
                vals = values[(s, w)][name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                if first is None:
                    first, drift = med, 0.0
                else:
                    sign = 1.0 if spec["better"] == "lower" else -1.0
                    drift = sign * (med - first) / first if first else 0.0
                bound = spec["bound"]
                bad = (name != "setup_s" and spread > bound) or drift > bound
                if bad:
                    failures.append(f"{w}/{name}/set{s}")
                print(f"{w:13} {name:16} {s:>3} {med:12.5g} {spread:8.4f} {bound:6.3f} "
                      f"{drift:+8.4f}{'  FAIL' if bad else ''}")
    os.makedirs(".bench_work", exist_ok=True)
    with open(os.path.join(".bench_work", "steady.json"), "w") as f:
        json.dump({"values": {f"{w}/set{s}": v for (s, w), v in values.items()},
                   "probes": probes}, f, indent=1)
    print("\nFAILED: " + ", ".join(failures) if failures else "\nall metrics steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
