#!/usr/bin/env python3
"""Compares the standing benchmark between a base commit and the working tree.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --base HEAD --pairs 6 --seconds 20

The base ref is exported with `git archive` into a directory outside the
repository. Each pair runs

    python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0

once on the base tree and once on the working tree, with the same seed on
both sides and alternating which side runs first. Pair i uses seed
--seed + i. The last stdout line of each run is its result object.

For every workload and every end-to-end metric in BENCHMARK.json the script
prints the base and change medians with their quartiles, the change/base
ratio of the medians, and how many pairs the change won by the metric's
`better` direction. It flags a change median worse than the metric's bound,
and a metric with a bound of 0.05 or less whose values differ between the
trees for some seed (those metrics count work, so equal seeds should give
equal values). It exits non-zero when a run fails or reports
"correct": false.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_BOUND = 0.05  # metrics bounded this tightly must match per seed


def export_base(ref, dest):
    """Exports the repository at git ref `ref` into the directory `dest`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(tree, workload, seed, seconds):
    """Returns (result object, error text); exactly one is None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "last stdout line is not JSON: %s" % lines[-1][:200]
    if result.get("correct") is not True:
        return None, "the run reported \"correct\": false"
    return result, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    return "%.6g" % v


def report(workload, metrics, runs):
    """Prints one workload's table; returns its flag lines."""
    flags = []
    print("\n### %s (%d pairs)\n" % (workload, len(runs)))
    print("| metric | base median [q1, q3] | change median [q1, q3] "
          "| ratio | change wins |")
    print("|---|---|---|---|---|")
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        pairs = [(seed, b["metrics"][name]["value"],
                  c["metrics"][name]["value"])
                 for seed, b, c in runs
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            flags.append("%s %s: reported by neither tree" % (workload, name))
            continue
        base = [b for _, b, _ in pairs]
        change = [c for _, _, c in pairs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / bmed if bmed else float("nan")
        if better == "lower":
            wins = sum(c < b for _, b, c in pairs)
            worse = cmed > bmed * (1 + bound)
        else:
            wins = sum(c > b for _, b, c in pairs)
            worse = cmed < bmed * (1 - bound)
        print("| %s | %s [%s, %s] | %s [%s, %s] | %s | %d/%d |" % (
            name, fmt(bmed), fmt(bq1), fmt(bq3), fmt(cmed), fmt(cq1),
            fmt(cq3), fmt(ratio), wins, len(pairs)))
        if worse:
            flags.append("%s %s: change median %s is worse than base %s by "
                         "more than the bound %g" % (workload, name, fmt(cmed),
                                                     fmt(bmed), bound))
        if bound <= EXACT_BOUND:
            differ = [seed for seed, b, c in pairs if b != c]
            if differ:
                flags.append("%s %s: values differ between the trees for "
                             "seeds %s" % (workload, name, differ))
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git ref to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in "
                             "BENCHMARK.json)")
    parser.add_argument("--base-dir",
                        help="export the base here and keep it, so a later "
                             "call reuses its build (default: a temporary "
                             "directory, removed at exit)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    base_dir = args.base_dir or tempfile.mkdtemp(prefix="bench_pairs_base_")
    try:
        if not os.path.exists(os.path.join(base_dir, "perfbench", "run.py")):
            os.makedirs(base_dir, exist_ok=True)
            export_base(args.base, base_dir)
        trees = {"base": base_dir, "change": ROOT}
        failures = []
        flags = []
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                results = {}
                for side in order:
                    result, error = run_once(trees[side], workload, seed,
                                             args.seconds)
                    if error:
                        failures.append("%s seed %d %s: %s" % (
                            workload, seed, side, error))
                    results[side] = result
                    sys.stderr.write("%s seed %d %s: %s\n" % (
                        workload, seed, side, "ok" if result else "FAILED"))
                if results["base"] and results["change"]:
                    runs.append((seed, results["base"], results["change"]))
            if runs:
                flags += report(workload, metrics, runs)
        print()
        for line in flags:
            print("FLAG: " + line)
        for line in failures:
            print("FAILED: " + line)
        return 1 if failures else 0
    finally:
        if not args.base_dir:
            shutil.rmtree(base_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
