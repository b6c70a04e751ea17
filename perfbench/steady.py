#!/usr/bin/env python3
"""Steadiness and determinism report for the benchmark.

Run from the root of a checkout:

    python3 perfbench/steady.py                 # steadiness, two sets
    python3 perfbench/steady.py --determinism   # exact counts, trace 1

Steadiness: two sets, one after the other. Each set runs every workload
of BENCHMARK.json once per seed 1..10 with --trace 0 for run_seconds.
For every end-to-end metric and each set it prints the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the
spread (Q3 - Q1) / median, then how far the second set's median moved
from the first's in the metric's worse direction. Flags:

  >0.1        spread wider than a tenth
  >bound/3    spread wider than a third of the metric's bound
  >bound      spread wider than the bound (the acceptance test ignores
              this for setup_s)
  SHIFT       second median worse than the first by more than the bound

It exits 1 if any spread passes its bound (setup_s aside) or any median
shifts by more than its bound, which is the acceptance test two sets of
runs of the same code must pass. Each run's values are printed as they
come.

Determinism: runs each workload twice at seed 1 with --trace 1 and
checks that every metric marked exact in perfbench/metrics.json, and
receipt_kb, reads the same bit for bit. A mismatch is a determinism
failure, whatever its size.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout.strip().splitlines()
    detail, result = json.loads(out[-2]), json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    return detail, result


def summary(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return med, q1, q3, (q3 - q1) / med


def steadiness(bench):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    values = {}  # (set, workload, metric) -> values
    for s in range(1, SETS + 1):
        for w in workloads:
            for seed in range(1, RUNS + 1):
                _, result = run(w, seed, bench["run_seconds"], 0)
                vals = {n: m["value"] for n, m in result["metrics"].items()}
                for n, v in vals.items():
                    values.setdefault((s, w, n), []).append(v)
                print(f"set {s} {w:8s} seed {seed:2d}: "
                      + " ".join(f"{n}={v:.5g}" for n, v in vals.items()), flush=True)
    failing = []
    for w in workloads:
        print(f"\n{w}: {SETS} sets of {RUNS} runs, seeds 1..{RUNS}")
        for n, m in e2e.items():
            bound, lower = m["bound"], m["better"] == "lower"
            meds = []
            for s in range(1, SETS + 1):
                med, q1, q3, spread = summary(values[(s, w, n)])
                meds.append(med)
                flags = [f for f, on in [(">0.1", spread > 0.1), (">bound/3", spread > bound / 3),
                                         (">bound", spread > bound)] if on]
                if spread > bound and n != "setup_s":
                    failing.append((w, n, f"set {s} spread"))
                print(f"  {n:14s} set {s}  median {med:11.6g}  q1 {q1:11.6g}  q3 {q3:11.6g}  "
                      f"spread {spread:7.4f}  {' '.join(flags)}")
            worse = (meds[1] - meds[0]) / meds[0] * (1 if lower else -1)
            shift = worse > bound
            if shift:
                failing.append((w, n, "median shift"))
            print(f"  {n:14s} set 2 median worse than set 1 by {worse:+.4f} "
                  f"(bound {bound}){'  SHIFT' if shift else ''}")
    for w, n, what in failing:
        print(f"FAILS: {w} {n}: {what}")
    return failing


def determinism(bench, metrics_map):
    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        exact = [n for n, m in metrics_map["per_layer"].items() if w in m.get("exact_on", [])]
        (d1, r1), (d2, r2) = (run(w, 1, bench["run_seconds"], 1) for _ in range(2))
        pairs = [(n, r1["metrics"][n]["value"], r2["metrics"][n]["value"]) for n in exact]
        pairs.append(("receipt_kb", d1["end_to_end"]["receipt_kb"]["value"],
                      d2["end_to_end"]["receipt_kb"]["value"]))
        for name, a, b in pairs:
            same = a == b
            if not same:
                failures.append((w, name))
            print(f"  {w:8s} {name:40s} {a!r:>24} {b!r:>24}  {'same' if same else 'DETERMINISM FAILURE'}")
    return failures


def main():
    if sys.argv[1:] not in ([], ["--determinism"]):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if sys.argv[1:] == ["--determinism"]:
        with open("perfbench/metrics.json") as f:
            bad = determinism(bench, json.load(f))
    else:
        bad = steadiness(bench)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
