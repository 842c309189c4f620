#!/usr/bin/env python3
"""Runs perfbench in two trees as interleaved pairs and compares them.

Usage, from the repository root:

    python3 scripts/paired_perfbench.py --parent DIR --workload W \
        --pairs N --seconds S [--seed K] [--trace 0|1]

DIR is a second checkout (for example `git archive <commit> | tar -x -C DIR`).
Each pair runs `perfbench/run.py` once in DIR ("parent") and once in this
repository ("change"); the side that goes first alternates from pair to
pair, so a drift in the host's load falls on both sides alike. Each tree
builds its own perfbench on its first run. The script prints every pair's
end-to-end metrics as parent -> change, then the medians and how many pairs
the change improved (all three metrics are better when lower). It exits 1
if any run is not `correct`, reports failed operations, or gives no result,
and it writes nothing under either tree's perfbench/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ["op_p50_ms", "done_p50_ms", "setup_s"]


def run_once(tree, args):
    """Runs one perfbench in `tree`; returns (result dict or None, error)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "no JSON result (exit %d)" % done.returncode
    if not result.get("correct") or result.get("failed", 0) != 0:
        return result, "correct=%s failed=%s" % (result.get("correct"), result.get("failed"))
    if done.returncode != 0:
        return result, "exit %d" % done.returncode
    return result, None


def metric(result, name):
    return result["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the other tree's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if not os.path.isfile(os.path.join(trees["parent"], "perfbench", "run.py")):
        print("paired_perfbench: no perfbench/run.py under " + trees["parent"], file=sys.stderr)
        return 2

    ok = True
    values = {side: {m: [] for m in METRICS} for side in trees}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        results = {}
        for side in order:
            result, error = run_once(trees[side], args)
            if error:
                ok = False
                print("pair %d %s: %s" % (pair + 1, side, error), flush=True)
            if result is not None:
                results[side] = result
        if len(results) == 2:
            for side, result in results.items():
                for m in METRICS:
                    values[side][m].append(metric(result, m))
            cells = ["%s %.4g -> %.4g" % (m, metric(results["parent"], m),
                                          metric(results["change"], m)) for m in METRICS]
            print("pair %d (%s first): %s" % (pair + 1, order[0], ", ".join(cells)), flush=True)

    for m in METRICS:
        parent, change = values["parent"][m], values["change"][m]
        if not parent:
            continue
        better = sum(c < p for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        print("median %s: %.4g -> %.4g (%+.1f%%), change lower in %d of %d pairs"
              % (m, p50, c50, 100.0 * (c50 - p50) / p50, better, len(parent)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
