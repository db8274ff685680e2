#!/usr/bin/env python3
"""Build the switchbench program from this checkout and run one workload.

Run from the root of a checkout of the repository:

    python3 switchbench/run.py --workload churn_zap --seed 1 --seconds 50 --trace 0
    python3 switchbench/run.py --self-test
    python3 switchbench/run.py --workload scale_sharded --seed 1 --capture

The library and the program are built into .bench_build/switchbench at the
repository root (RelWithDebInfo, the repository's default build type).  All
build output goes to standard error; the last line of standard output is
the program's JSON result.  Exit status: the program's (0 ok, 1 failed output
check), or 2 when the checkout cannot be built.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "switchbench")
WORKLOADS = ("paper_static", "churn_zap", "scale_sharded")


def fail(message):
    print(f"switchbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources under {ROOT}; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {done.returncode}")


def run(command, timeout):
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"switchbench: {command[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="paper_static")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the benchmark's self-tests")
    parser.add_argument("--capture", action="store_true",
                        help="print the workload's reference digest, run at parallel_shards 0")
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build(args.jobs)
    selftest = run([os.path.join(BUILD_DIR, "switchbench_selftest")], 60)
    if selftest != 0 or args.self_test:
        sys.exit(selftest)

    program = [os.path.join(BUILD_DIR, "switchbench"), "--workload", args.workload,
              "--seed", str(args.seed)]
    if args.capture:
        sys.exit(run(program + ["--capture", "--shards", "0"], 600))
    trace_out = os.path.join(ROOT, ".bench_build", "traces",
                             f"{args.workload}-seed{args.seed}.trace.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    program += ["--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(BENCH_DIR, "reference_digests.txt"),
               "--trace_out", trace_out]
    sys.stdout.flush()
    sys.exit(run(program, min(175, args.seconds + 150)))


if __name__ == "__main__":
    main()
