#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/) from the checkout root.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first form runs one workload and ends stdout with one JSON line
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn, prints each report and a summary, and exits non-zero if any
run fails its answer checks.

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, relative to the current directory. Build output goes
to stderr so that the last stdout line stays the result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["serve_cold", "durable_paged"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build(out_dir):
    """Configures and builds strg_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build step failed: %s" % e, file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "strg_perfbench")
    return binary if os.path.isfile(binary) else None


def run_one(binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(out_dir, "work", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1, []
    spans = os.path.join(workdir, "spans.json")
    if trace and os.path.isfile(spans):
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        kept = os.path.join(traces, "%s-seed%d.spans.json" % (workload, seed))
        shutil.move(spans, kept)
        print("span dump kept at %s" % kept, file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    if args.workload != "all":
        code, lines = run_one(binary, out_dir, args.workload, args.seed, args.seconds,
                              args.trace == 1)
        if code != 0 and lines and lines[-1].startswith("{"):
            # A failed answer check still reports its result line.
            print("\n".join(lines))
            return code
        if code != 0:
            print("\n".join(lines), file=sys.stderr)
            return code or 1
        print("\n".join(lines))
        return 0

    worst = 0
    summary = []
    for w in WORKLOADS:
        code, lines = run_one(binary, out_dir, w, args.seed, args.seconds, args.trace == 1)
        print("==== %s (exit %d) ====" % (w, code))
        print("\n".join(lines))
        summary.append("%-14s exit %d  %s" % (w, code, lines[-1] if lines else "(no result)"))
        worst = worst or code
    print("==== summary ====")
    print("\n".join(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
