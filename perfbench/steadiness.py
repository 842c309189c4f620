#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs `python3 perfbench/run.py` once per (workload, seed) with tracing off,
then for every workload and end-to-end metric prints the median and the
spread: the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median, next to the
metric's bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                    [--seconds N] [--json out.json]
    python3 perfbench/steadiness.py --compare first.json second.json

A metric is steady enough when its spread is below a third of its bound.
--compare reads two sets written by --json and prints, per workload and
metric, each set's median and spread and the drift between the medians:
how much worse either set's median is than the other's, taking each in turn
as the baseline. Two sets agree when both spreads and the drift are within
the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)\n%s%s" %
                         (" ".join(cmd), done.returncode, done.stdout, done.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s\n%s" % (" ".join(cmd), done.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def compare(spec, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    print("| workload | metric | bound | median 1 | spread 1 | median 2 | spread 2 |"
          " drift | within bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in [w for w in first if w in second]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m1, s1 = spread([r[name] for r in first[workload]])
            m2, s2 = spread([r[name] for r in second[workload]])
            drift = max(abs(m2 - m1) / m1, abs(m1 - m2) / m2)
            ok = drift <= bound and max(s1, s2) <= bound
            print("| %s | %s | %.2f | %.6g | %.3f | %.6g | %.3f | %.3f | %s |" %
                  (workload, name, bound, m1, s1, m2, s2, drift, "yes" if ok else "NO"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(spec, sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    raw = {}
    for workload in args.workloads.split(","):
        raw[workload] = [run_once(workload, seed, args.seconds)
                         for seed in range(args.first_seed, args.first_seed + args.seeds)]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)

    print("| workload | metric | median | spread | bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|")
    for workload, runs in raw.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, s = spread([r[name] for r in runs])
            ok = "yes" if s < metric["bound"] / 3 else "NO"
            print("| %s | %s | %.6g %s | %.3f | %.2f | %s |" %
                  (workload, name, median, metric["unit"], s, metric["bound"], ok))


if __name__ == "__main__":
    main()
