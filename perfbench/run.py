#!/usr/bin/env python3
"""Builds jbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload udf_scan|point_rw|analytics \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/ under the
checkout, database files to .bench_data/, and traced runs leave their spans
in .bench_out/. The last line of stdout is the result object with `correct`,
`attempted`, `failed` and `metrics`; build logs go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no jaguar sources under {ROOT}/src; run from a checkout")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "jbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "jbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    jbench = build()
    name = "self-test" if args.self_test else args.workload
    data_dir = os.path.join(ROOT, ".bench_data", f"{name}-{os.getpid()}")
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [jbench, "--data-dir", data_dir]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # run() waits for jbench; on timeout it kills it and waits again.
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        trace = os.path.join(data_dir, f"trace-{args.workload}.json")
        if os.path.isfile(trace):
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            kept = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            shutil.move(trace, kept)
            print(f"perfbench: spans kept in {kept}", file=sys.stderr)
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
