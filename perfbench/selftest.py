#!/usr/bin/env python3
"""Stationarity and determinism self-test of the Figure 1 benchmark.

Drives fig1_bench at smoke scale (same code paths, tiny sources) and fails
unless, for every workload:
  - two runs with one seed report identical count metrics, end-to-end
    (polled_rows_per_op, wal_bytes_per_atom, freshness_lag_vt_max) and
    per-layer alike, and pass every correctness gate;
  - both runs end with |R| and |S| within 1% of their seeded sizes;
  - with a second seed, each op class's share of the timed ops is within
    1 point of the mix;
  - every reported percentile has at least 10 samples beyond it;
  - the metric names match BENCHMARK.json.

    python3 perfbench/selftest.py [--binary .bench_build/fig1_bench]

Without --binary it builds the driver the way run.py does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIX = {"insert_r": 0.24, "delete_r": 0.24, "insert_s": 0.06,
       "delete_s": 0.06, "point_query": 0.25, "scan_query": 0.15}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Metrics that count work rather than time it: equal seeds, equal values.
COUNTS = ["polled_rows_per_op", "wal_bytes_per_atom", "freshness_lag_vt_max"]
LAYER_COUNTS = ["source.polls_per_op", "source.rows_per_poll",
                "iup.temp_requests_per_update", "iup.atoms_propagated_per_atom",
                "vap.temp_rows_per_op", "qp.rows_returned_per_query",
                "wal.checkpoint_mb"]


class SelfTestFailure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise SelfTestFailure(what)


def run(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    tag = "%s seed %d trace %d" % (workload, seed, trace)
    expect(proc.returncode == 0,
           "%s exited %d: %s%s" % (tag, proc.returncode, proc.stdout[-2000:],
                                   proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    expect(set(result) == RESULT_KEYS, "%s: result keys %s" % (tag, sorted(result)))
    expect(result["correct"] is True, "%s: correctness gate failed" % tag)
    expect(result["failed"] == 0 and result["attempted"] > 0,
           "%s: %d of %d ops failed" % (tag, result["failed"], result["attempted"]))
    return result, report


def counts(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def check_workload(binary, workload, names):
    first, rep1 = run(binary, workload, 1, 0)
    second, rep2 = run(binary, workload, 1, 0)
    expect(counts(first, COUNTS) == counts(second, COUNTS),
           "%s: count metrics differ between runs: %s vs %s"
           % (workload, counts(first, COUNTS), counts(second, COUNTS)))
    for rep in (rep1, rep2):
        for rel in ("R", "S"):
            seeded, final = rep["seeded"][rel], rep["final"][rel]
            expect(abs(final - seeded) <= 0.01 * seeded,
                   "%s: |%s| drifted from %d to %d" % (workload, rel, seeded, final))
        for pct, beyond in rep["samples_beyond"].items():
            expect(beyond >= 10, "%s: %s has only %d samples beyond it"
                   % (workload, pct, beyond))
    expect(set(first["metrics"]) == names["end_to_end"],
           "%s: end-to-end metrics %s differ from BENCHMARK.json"
           % (workload, sorted(first["metrics"])))

    traced1, _ = run(binary, workload, 1, 1)
    traced2, _ = run(binary, workload, 1, 1)
    expect(counts(traced1, LAYER_COUNTS) == counts(traced2, LAYER_COUNTS),
           "%s: per-layer counts differ between runs: %s vs %s"
           % (workload, counts(traced1, LAYER_COUNTS),
              counts(traced2, LAYER_COUNTS)))
    expect(set(traced1["metrics"]) == names["per_layer"],
           "%s: per-layer metrics %s differ from BENCHMARK.json"
           % (workload, sorted(traced1["metrics"])))

    _, rep3 = run(binary, workload, 2, 0)
    for kind, share in MIX.items():
        got = rep3["op_share"][kind]
        expect(abs(got - share) <= 0.01,
               "%s seed 2: %s share %.4f, mix %.2f" % (workload, kind, got, share))
    print("ok %s: counts %s; per-layer counts %s"
          % (workload, counts(first, COUNTS), counts(traced1, LAYER_COUNTS)))


def benchmark_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"] for m in spec["end_to_end"]},
            "per_layer": {m["name"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.path.insert(0, HERE)
        sys.dont_write_bytecode = True
        import run as bench_run
        bench_run.build()
        binary = bench_run.BINARY
    names = benchmark_names()
    try:
        for workload in names["workloads"]:
            check_workload(binary, workload, names)
    except SelfTestFailure as e:
        print("FAIL %s" % e)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
