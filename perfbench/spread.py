#!/usr/bin/env python3
"""Run the benchmark repeatedly and print each metric's median and quartiles.

Run from the repository root:

    python3 perfbench/spread.py                       # every workload, seeds 42 and 7, 5 runs each
    python3 perfbench/spread.py --seeds 1-10 --runs 1 # ten runs, one seed each
    python3 perfbench/spread.py --workloads wide-stream --trace

For each workload and seed set it prints, per metric, the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json, flagging a
spread above a third of the bound. Each run's failed share is printed too.
With --trace it also runs untraced and reports the tracing overhead as
traced / untraced rows_per_s.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        sys.exit(f"{workload} seed {seed}: outputs were not correct")
    return result


def summarize(label, results, bounds, raw=False):
    names = list(results[0]["metrics"])
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{label}: {len(results)} runs, failed share {shares}")
    print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "  <-- above bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"  {name:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
        if raw:
            print("      " + " ".join(f"{v:.5g}" for v in values))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="42,7", help="seed list with ranges, e.g. 42,7 or 1-10")
    parser.add_argument("--runs", type=int, default=5, help="runs per seed")
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics and tracing overhead")
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    distinct = len(seeds) > 2 and args.runs == 1
    groups = [seeds] if distinct else [[s] for s in seeds]
    for workload in workloads:
        for group in groups:
            label = f"{workload} seeds {group[0]}-{group[-1]}" if distinct else f"{workload} seed {group[0]}"
            runs = [run(bench, workload, s, seconds, args.trace) for s in group for _ in range(args.runs)]
            summarize(label + (" (traced)" if args.trace else ""), runs, {} if args.trace else bounds, args.raw)
            if args.trace:
                plain = [run(bench, workload, s, seconds, False) for s in group for _ in range(args.runs)]
                traced = statistics.median(r["metrics"]["trace.rows_per_s"]["value"] for r in runs)
                untraced = statistics.median(r["metrics"]["rows_per_s"]["value"] for r in plain)
                print(f"  tracing overhead: traced / untraced rows_per_s = {traced:.6g} / {untraced:.6g} = {traced / untraced:.4f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
