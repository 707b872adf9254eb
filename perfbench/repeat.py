#!/usr/bin/env python3
"""Repeat mode: run each workload N times, one seed per run, and print every
end-to-end metric's median and interquartile spread against its bound in
BENCHMARK.json.

    python3 perfbench/repeat.py                      # 10 runs of every workload
    python3 perfbench/repeat.py --runs 5 --workload learning_rounds
    python3 perfbench/repeat.py --first-seed 1001    # a held-out seed range

spread = (q3 - q1) / median, with q1 and q3 from statistics.quantiles(n=4).
A metric is "steady" when its spread is below a third of its bound. setup_s
is reported but, like the acceptance rule, not held to its bound. Exits
non-zero when a run fails its output check or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for name in workloads:
        results = []
        for i in range(args.runs):
            result = run_once(name, args.first_seed + i, args.seconds)
            if result is None or not result["correct"] or result["failed"]:
                print("%s seed %d: run failed or output check failed: %s"
                      % (name, args.first_seed + i, result))
                ok = False
                continue
            results.append(result)
            print("  seed %d: %s" % (args.first_seed + i, "  ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                  flush=True)
        print("%s: %d runs, seeds %d..%d" % (name, len(results), args.first_seed,
                                            args.first_seed + args.runs - 1))
        if len(results) < 2:
            ok = False
            continue
        print("  %-14s %12s %12s %12s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, q1, q3, s = spread(values)
            bound = metric["bound"]
            if metric["name"] == "setup_s":
                verdict = "(not held)"
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                  % (metric["name"], median, q1, q3, s, bound, verdict))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
