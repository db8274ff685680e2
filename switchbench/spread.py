#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 switchbench/spread.py --workload paper_static --seeds 1-10 [--seconds 30] [--trace 0]

Runs switchbench/run.py once per seed, one after another, and prints for
every metric of the JSON line its median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the bound BENCHMARK.json gives it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_from(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds_from(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # "# rep" lines: raw host seconds (the first run_s) and the host
        # probes, per repetition.
        reps = []
        for line in lines:
            if line.startswith("# rep"):
                fields = {}
                for key, _, value in (f.partition("=") for f in line.split() if "=" in f):
                    fields.setdefault(key, value)
                reps.append(fields)
        host = " ".join(
            f"{key} {statistics.median(float(r[key]) for r in reps):.4g}"
            for key in ("run_s", "slice_s", "load_ns") if reps and all(key in r for r in reps))
        print(f"seed {seed}: exit {done.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"repetitions {len(reps)}; medians: host {host}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>6}  values")
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        print(f"{name:28} {mid:14.6g} {spread:11.4f} {bound if bound is not None else '':>6}  "
              + " ".join(f"{v:.6g}" for v in series))


if __name__ == "__main__":
    main()
