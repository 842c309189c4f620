#!/usr/bin/env python3
"""Runs perfbench in two trees as interleaved pairs and compares them.

Usage, from the repository root:

    python3 scripts/paired_perfbench.py --parent DIR --workload W \
        --pairs N --seconds S [--seed K] [--trace 0|1] \
        [--append-json FILE [--parent-commit SHA]]

DIR is a second checkout (for example `git archive <commit> | tar -x -C DIR`).
Each pair runs `perfbench/run.py` once in DIR ("parent") and once in this
repository ("change"); the side that goes first alternates from pair to
pair, so a drift in the host's load falls on both sides alike. Each tree
builds its own perfbench on its first run. The script prints every pair's
end-to-end metrics as parent -> change, then per metric each side's first
quartile, median and third quartile, how many pairs the change improved
(all three metrics are better when lower), and whether the claim rule
holds: the change is lower in at least 9 of 10 pairs and its median is
lower by more than the parent's interquartile range. It exits 1 if any run
is not `correct`, reports failed operations, or gives no result, and it
writes nothing under either tree's perfbench/.

--append-json FILE appends one record for the invocation to FILE, a JSON
list (created when missing): this tree's commit (with "+dirty" when its
tracked files differ from it), --parent-commit, the workload, seed, pairs,
seconds and trace flag, and per metric each side's quartiles, the change's
wins and the claim rule's verdict.
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


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change):
    """Quartiles, wins and the claim rule for one metric's paired values."""
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(c < p for p, c in zip(parent, change))
    claim = 10 * wins >= 9 * len(parent) and pq[1] - cq[1] > pq[2] - pq[0]
    def named(q):
        return {k: float("%.5g" % v) for k, v in zip(("q1", "median", "q3"), q)}
    return {"parent": named(pq), "change": named(cq),
            "wins": wins, "claim_holds": claim}


def this_commit():
    """HEAD of this tree, with "+dirty" when tracked files differ from it."""
    def git(*cmd):
        return subprocess.run(["git", "-C", ROOT] + list(cmd), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def append_json(path, record):
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = json.load(f)
    records.append(record)
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the other tree's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--append-json", metavar="FILE",
                        help="append this invocation's summary to a JSON list in FILE")
    parser.add_argument("--parent-commit", help="the parent tree's commit, for --append-json")
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

    summary = {}
    for m in METRICS:
        parent, change = values["parent"][m], values["change"][m]
        if not parent:
            continue
        summary[m] = s = summarize(parent, change)
        p, c = s["parent"], s["change"]
        print("%s: parent %.4g / %.4g / %.4g, change %.4g / %.4g / %.4g (q1 / median / q3)"
              % (m, p["q1"], p["median"], p["q3"], c["q1"], c["median"], c["q3"]))
        print("median %s: %.4g -> %.4g (%+.1f%%), change lower in %d of %d pairs; "
              "claim rule (lower in >= 9/10 of pairs, median gap > parent IQR) %s"
              % (m, p["median"], c["median"], 100.0 * (c["median"] - p["median"]) / p["median"],
                 s["wins"], len(parent), "holds" if s["claim_holds"] else "does not hold"))
    if args.append_json and summary:
        append_json(args.append_json, {
            "commit": this_commit(), "parent_commit": args.parent_commit,
            "workload": args.workload, "seed": args.seed, "pairs": len(values["parent"]["op_p50_ms"]),
            "seconds": args.seconds, "trace": args.trace, "metrics": summary})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
