#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmark/spread.py [WORKLOAD ...] [--runs 10] [--first-seed 100]

Runs each workload (all four by default) `--runs` times untraced, each
time on another seed, and prints per metric the median and the distance
between the first and third quartile as a share of the median, beside
the metric's bound. A benchmark is steady when every spread is below a
third of its bound; the driver refuses one whose spread exceeds the bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

parser = argparse.ArgumentParser()
parser.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=100)
args = parser.parse_args()

for workload in args.workloads:
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = SPEC["command"] + ["--workload", workload, "--seed", str(seed)]
        command += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited with {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for metric in SPEC["end_to_end"]:
        runs = values[metric["name"]]
        quartiles = statistics.quantiles(runs, n=4)
        median = statistics.median(runs)
        spread = (quartiles[2] - quartiles[0]) / median
        print(
            f"  {metric['name']:<12} median {median:>14.6f} {metric['unit']:<4}"
            f" spread {spread:.4f}  bound {metric['bound']:.2f}"
            f"  min {min(runs):.6g} max {max(runs):.6g}"
        )
