#!/usr/bin/env python3
"""Steadiness check: are the benchmark's end-to-end metrics repeatable?

    python3 perfbench/steadiness.py [--runs 10]

Run from the repository root. Runs two interleaved sets of every workload in
BENCHMARK.json (set A and set B alternate run by run), each run with its own
seed from 1000 up, through perfbench/run.py --trace 0. Then, per metric x
workload, it prints each set's median and quartiles (statistics.quantiles,
n=4) and checks the two rules the benchmark's bounds stand for:

  spread  (Q3 - Q1) / median of each set stays within the metric's bound;
  agree   the two sets' medians differ by at most the bound, as a share of
          set A's median, in either direction.

It also reports the largest spread as a share of its bound, since a spread
above a third of the bound leaves little margin. Exit code 0 when every run
was correct and every metric on every workload passes both rules.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = "AB"
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (10)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    values = {}  # (set, workload, metric) -> [values]
    broken = []
    seed = FIRST_SEED
    for i in range(args.runs):
        for workload in workloads:
            for s in SETS:
                code, result = run_once(workload, seed, seconds)
                ok = code == 0 and result is not None and result.get("correct") is True
                shown = " ".join("%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                                 for m in metrics
                                 if result and m["name"] in result.get("metrics", {}))
                print("run %d set %s %-12s seed %d: %s %s" % (
                    i + 1, s, workload, seed, "ok" if ok else "FAILED", shown), flush=True)
                if not ok:
                    broken.append((workload, seed))
                if result is not None:
                    for m in metrics:
                        v = result["metrics"].get(m["name"], {}).get("value")
                        if v is not None:
                            values.setdefault((s, workload, m["name"]), []).append(v)
                seed += 1

    passed = not broken
    worst = (0.0, "")
    print()
    print("%-12s %-18s %-5s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "set", "Q1", "median", "Q3", "spread", "bound", "verdict"))
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in SETS:
                sample = values.get((s, workload, name), [])
                if len(sample) < 2:
                    print("%-12s %-18s %-5s too few values" % (workload, name, s))
                    passed = False
                    continue
                q1, med, q3 = statistics.quantiles(sample, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                ok = spread <= bound
                if spread / bound > worst[0]:
                    worst = (spread / bound, "%s %s set %s" % (workload, name, s))
                medians.append(med)
                passed = passed and ok
                print("%-12s %-18s %-5s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" % (
                    workload, name, s, q1, med, q3, 100 * spread, 100 * bound,
                    "ok" if ok else "SPREAD"))
            if len(medians) == 2:
                a, b = medians
                apart = abs(b - a) / a if a else float("inf")
                ok = apart <= bound
                passed = passed and ok
                print("%-12s %-18s %-5s B vs A: %+.2f%% (bound %.0f%%)  %s" % (
                    workload, name, "", 100 * (b - a) / a if a else float("inf"), 100 * bound,
                    "ok" if ok else "DISAGREE"))
    print()
    if worst[1]:
        print("largest spread: %.2f of its bound (%s)" % worst)
    for workload, s in broken:
        print("incorrect or failed run: %s seed %d" % (workload, s))
    print("steady" if passed else "NOT steady")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
