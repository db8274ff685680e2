#!/usr/bin/env python3
"""Time one fixed performance row and print it as a bench/trajectory.csv line.

Runs the command after `--` once, with its output discarded, and prints

    commit,nproc,row,wall_s,peak_rss_mb

where wall_s is the command's elapsed wall clock and peak_rss_mb the
child's maximum resident set as wait4 reports it (that high-water mark
starts at the forking interpreter's ~14 MB, so only rows well above that
measure the command).  The numbers depend on the machine and its load:
they go into the trajectory file as history, never into a gate.  Append
with `>>`:

  tools/trajectory_row.py --row 'BM_FullPipeline/peers:100000/shards:4' -- \\
      build/bench_micro_core \\
      --benchmark_filter='BM_FullPipeline/peers:100000/shards:4$' \\
      --benchmark_min_time=0.001 >> bench/trajectory.csv

--commit defaults to `git rev-parse --short HEAD` of the working directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time


def main(argv):
    if "--" not in argv:
        print("trajectory_row: give the command after --", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", required=True, help="row name, e.g. the benchmark name")
    parser.add_argument("--commit", default=None, help="commit id (default: git HEAD)")
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command:
        print("trajectory_row: empty command", file=sys.stderr)
        return 2

    commit = args.commit
    if commit is None:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
    start = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # wait4 reports this child's own usage (not every child's maximum).
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"trajectory_row: {command[0]} exited with {code}", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux.
    peak_kib = usage.ru_maxrss
    print(f"{commit},{os.cpu_count()},{args.row},{wall:.2f},{peak_kib / 1024.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
