#!/usr/bin/env python3
"""Runs one workload of the turtle benchmark.

    python3 turtlebench/run.py --workload tcp_pipelined --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the program (turtled and the
libraries, from this checkout's sources) and the benchmark client with
CMake into $CARGO_TARGET_DIR (default .bench_build), then runs the client.
Everything it writes stays under that directory. The last line of
standard output is the JSON result; see turtlebench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tcp_pipelined", "udp_open_loop", "repro_survey")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"turtlebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    # The benchmark builds the program from this checkout's sources; without
    # them there is nothing to measure.
    for required in ("src/CMakeLists.txt", "tools/turtled/main.cc", "bench/harness.h"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"{required} is missing: run from a full checkout of the repository")
    binary_dir = os.path.join(build_dir, "turtlebench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", binary_dir, "-j", jobs, "--target", "turtlebench", "turtled"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return (os.path.join(binary_dir, "turtlebench"),
            os.path.join(binary_dir, "turtle_tools", "turtled"))


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    client, turtled = build(build_dir)
    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
    command = [client, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}", f"--turtled={turtled}",
               f"--work-dir={work_dir}", f"--trace-out={trace_out}", f"--git-rev={git_rev()}"]
    try:
        # The client stops its own daemon; the timeout is the last resort.
        result = subprocess.run(command, timeout=170)
        code = result.returncode
    except subprocess.TimeoutExpired:
        fail("the benchmark client did not finish within 170 s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
