#!/usr/bin/env python3
"""Steadiness check: run every workload several times and report spread.

    python3 e2ebench/steady.py --rounds 10 [--sets 2]

Each round runs every workload of BENCHMARK.json once through run.py,
at its run_seconds, alternating the workload order between rounds;
round i uses seed i (1..rounds) in every set. For every end-to-end
metric it prints the median and quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, marking it WIDE above a third of the
metric's bound and OVER above the bound; setup_s's spread is printed
but not held to its bound (set-up time is checked only by its median
shift between sets). With --sets 2 the rounds are
repeated as a second set and each metric's median shift between the
sets is checked against its bound too. All runs at one seed, in every
set and of every workload, run the same check set on byte-identical
databases, so they must agree exactly on saving_rm3_pct and
qos_violation_pct; every run must be correct with ok_pct 100. Exit
status 1 if anything is OVER, a worse shift, nondeterministic or
incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("saving_rm3_pct", "qos_violation_pct")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def run_set(rounds, workloads, seconds):
    """Returns {workload: [(seed, result), ...]}."""
    results = {w: [] for w in workloads}
    for i in range(rounds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        seed = i + 1
        for w in order:
            res = run_once(w, seed, seconds)
            results[w].append((seed, res))
            print(f"  round {i + 1} {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    return results


def summarize(results, bounds):
    """Prints the spread table; returns (medians, problems)."""
    medians, problems = {}, []
    for w, runs in results.items():
        print(f"{w} ({len(runs)} runs)")
        for seed, res in runs:
            if not res["correct"] or res["metrics"]["ok_pct"]["value"] != 100:
                problems.append(f"{w} seed {seed}: incorrect or ok_pct below 100")
        for name, bound in bounds.items():
            vals = [res["metrics"][name]["value"] for _, res in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else ""
            if mark == "OVER" and name != "setup_s":
                problems.append(f"{w}/{name}: spread {spread:.3f} over bound {bound}")
            medians[(w, name)] = med
            print(f"  {name:20s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:5.3f}  {mark}")
    return medians, problems


def determinism(sets):
    """Checks that all runs at one seed, of every set and workload, agree
    exactly on the deterministic metrics."""
    problems = []
    for name in DETERMINISTIC:
        by_seed = {}
        for results in sets:
            for w, runs in results.items():
                for seed, res in runs:
                    by_seed.setdefault(seed, {}).setdefault(res["metrics"][name]["value"], []).append(w)
        for seed, vals in sorted(by_seed.items()):
            if len(vals) > 1:
                problems.append(f"{name}: seed {seed} gave {vals}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    problems, sets, medians = [], [], []
    for k in range(args.sets):
        print(f"set {k + 1}: {args.rounds} rounds x {workloads}, {seconds} s each")
        sets.append(run_set(args.rounds, workloads, seconds))
        m, p = summarize(sets[-1], bounds)
        medians.append(m)
        problems += p
    problems += determinism(sets)
    for k in range(1, len(medians)):
        print(f"median shift, set {k + 1} vs set 1 (positive = worse)")
        for (w, name), first in medians[0].items():
            worse = (medians[k][(w, name)] - first) / first if first else 0
            if better[name] == "higher":
                worse = -worse
            mark = "WORSE" if worse > bounds[name] else ""
            if mark:
                problems.append(f"{w}/{name}: set {k + 1} median worse by {worse:.3f}")
            print(f"  {w}/{name:20s} {worse:+.3f}  bound {bounds[name]:.3f}  {mark}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
