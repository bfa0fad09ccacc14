#!/usr/bin/env python3
"""Steadiness check: runs workloads in two alternating sets and compares them.

    python3 perfbench/steady.py [--workload W ...] [--runs N] [--seconds S]
                                [--first-seed K]

Each workload runs N times (default 10), each run with its own seed; runs
alternate between set A and set B. For every metric the script prints the
median, the quartiles (statistics.quantiles(n=4)), the interquartile spread
as a share of the median, each set's median and the difference between the
sets, against the metric's bound in BENCHMARK.json. The fixed CPU and memory
probes that jbench times before and after each run are printed beside it,
so host drift can be told apart from program noise; they are never used as
a gate.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = re.compile(r"(cpu|mem)_probe_ms\s+([\d.]+)\s+ms\s+\(before\)\s+([\d.]+)")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    probes = " ".join(f"{kind}_probe_ms {a} -> {b}"
                      for kind, a, b in PROBE.findall(out.stdout))
    return result, probes


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        sets = {"A": [], "B": []}
        print(f"== {workload}: {args.runs} runs of {seconds} s")
        for i in range(args.runs):
            seed = args.first_seed + i
            result, probes = run_once(workload, seed, seconds)
            label = "AB"[i % 2]
            sets[label].append(result)
            print(f"  run {i + 1:2d} set {label} seed {seed}: correct="
                  f"{result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {probes}",
                  flush=True)
            print("    " + " ".join(f"{k}={v['value']:.5g}" for k, v in
                                    result["metrics"].items()), flush=True)
        runs = sets["A"] + sets["B"]
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'A-B':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, iqr = spread(values)
            a = statistics.median(r["metrics"][name]["value"] for r in sets["A"])
            b = statistics.median(r["metrics"][name]["value"] for r in sets["B"])
            diff = (a - b) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound and iqr > bound / 3:
                flag = "  spread above bound/3"
            print(f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{iqr:8.2%} {diff:+8.2%} {bound if bound else '-':>6}{flag}")


if __name__ == "__main__":
    main()
