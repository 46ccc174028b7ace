#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, and two-set comparison.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --out set1.json
    python3 perfbench/spread.py --runs 10 --out set2.json
    python3 perfbench/spread.py --compare set1.json set2.json

Each run invokes the command in BENCHMARK.json with a different
--seed (1..runs, or from --first-seed) and keeps the JSON line it prints
last. For every (workload, metric) the script reports the median and the
quartiles from statistics.quantiles(values, n=4), and the quartile
distance as a share of the median. A spread above the metric's bound
(setup_s excepted) fails; one above a third of the bound is flagged as
unsteady. --compare fails when the second set's median is worse than the
first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def manifest():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_sets(bench, runs, first_seed, workloads, trace):
    results = {}
    for w in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            line = json.loads(lines[-1])
            values = {k: v["value"] for k, v in line["metrics"].items()}
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
            for k, v in values.items():
                results.setdefault(w, {}).setdefault(k, []).append(v)
    return results


def summary(values):
    # The middle cut point of the exclusive method is the median.
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(bench, results):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':<15} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, metrics in results.items():
        for k, values in metrics.items():
            med, q1, q3, spread = summary(values)
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s":
                if spread > bound:
                    flag, ok = "FAIL", False
                elif spread > bound / 3:
                    flag = "unsteady"
            print(f"{w:<15} {k:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>6.2%} {bound if bound is not None else '':>6} {flag}")
    return ok


def compare(bench, first, second):
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    ok = True
    for w, metrics in first.items():
        for k, values in metrics.items():
            if k not in better or k not in second.get(w, {}):
                continue
            direction, bound = better[k]
            a, b = statistics.median(values), statistics.median(second[w][k])
            worse = (b - a) / a if direction == "lower" else (a - b) / a
            flag = "FAIL" if worse > bound else ""
            ok = ok and not flag
            print(f"{w:<15} {k:<14} {a:>12.6g} -> {b:>12.6g} worse by {worse:>7.2%} "
                  f"(bound {bound}) {flag}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--out", help="write the collected values here")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    bench = manifest()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    results = run_sets(bench, args.runs, args.first_seed, workloads, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if report(bench, results) else 1)


if __name__ == "__main__":
    main()
