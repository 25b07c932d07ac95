#!/usr/bin/env python3
"""Builds and runs the PA-FEAT end-to-end benchmark for one workload.

Usage (from the repository root):
    python3 bench_e2e/run.py --workload train-wide --seed 1 --seconds 20 \
        --trace 0

The library and the benchmark are built from source into .bench_build/ in
the repository root (CMake, Release, the top-level build's flags). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics:
  --trace 0  the end-to-end metrics, measured with tracing off;
  --trace 1  the per-layer metrics of a run that traces every other
             operation, with the tracing overhead measured inside it.
The spans of a traced run are written to
.bench_build/traces/<workload>_seed<seed>.json (Chrome trace-event JSON).
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_e2e")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ("train-wide", "serve-open")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; False on failure."""
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "--target", "bench_e2e",
                "--parallel", str(os.cpu_count() or 1)]
    for step in (configure, compile_):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def run_binary(args):
    """Runs one workload; returns its exit code. Its stdout passes through,
    so the result line is the last line printed."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace", "--trace_out",
                    os.path.join(traces, "%s_seed%d.json" %
                                 (args.workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("bench_e2e: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        sys.stderr.write("bench_e2e: build failed\n")
        return 2

    sys.stdout.flush()
    return run_binary(args)

if __name__ == "__main__":
    sys.exit(main())
