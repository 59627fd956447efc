#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of runs of the same code, interleaved run by run (set A
then set B for each seed and workload), and reports for every
end-to-end metric the spread of each set (quartile distance over the
median, as statistics.quantiles(values, n=4) gives it) and how far set
B's median moved from set A's, both against the metric's bound. Each
run's host.calib_s line is kept beside it, so a set slowed by the host
can be told apart from a program change.

    python3 fzbench/prove.py [--seeds 10] [--first-seed 0] [--workloads a,b]

A metric is flagged SPREAD when either set's spread exceeds a third of
its bound (setup_s included) and SHIFT when the two medians differ by
more than the bound in either direction. Seed 0 is the default first
seed, so the pinned default-seed results are checked in both sets.

Run from the repository root. Results also go to
.bench_build/fzbench-prove.json.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stdout}\n{p.stderr}")
    result = json.loads(lines[-1])
    calib = re.search(r"host\.calib_s ([0-9.]+)", p.stdout)
    walls = re.search(r"operation walls \(s\): (.*)", p.stdout)
    return {
        "workload": workload, "seed": seed, "elapsed_s": time.time() - t0,
        "calib_s": float(calib.group(1)) if calib else None,
        "correct": result["correct"],
        "walls": [float(x) for x in walls.group(1).split()] if walls else [],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default="")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(a.first_seed, a.first_seed + a.seeds)
    runs = []
    for seed in seeds:
        for w in workloads:
            for s in (0, 1):
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                r["set"] = s
                runs.append(r)
                m = " ".join(f"{k}={v:.5g}" for k, v in r["metrics"].items())
                print(f"set {s} {w:<15} seed {seed:<3} {r['elapsed_s']:5.1f}s calib {r['calib_s']} {m}", flush=True)
    ok = all(r["correct"] for r in runs)
    print()
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name] for r in runs if r["workload"] == w and r["set"] == s]
                    for s in (0, 1)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = 1 if metric["better"] == "lower" else -1
            shift = worse * (meds[1] - meds[0]) / meds[0]
            flag = "ok"
            if max(spreads) > bound / 3:
                flag = "SPREAD"
            if abs(shift) > bound:
                flag = "SHIFT"
            print(f"{w:<15} {name:<14} medians {' '.join(f'{m:.5g}' for m in meds):<24} "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads):<12} shift {shift:+.3f} bound {bound} {flag}")
    os.makedirs(".bench_build", exist_ok=True)
    json.dump(runs, open(".bench_build/fzbench-prove.json", "w"), indent=1)
    print("all runs correct" if ok else "SOME RUNS FAILED A CHECK")


if __name__ == "__main__":
    main()
