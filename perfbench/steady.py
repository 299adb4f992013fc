#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly, each run
with another seed, and print per metric the median, the quartiles and
the spread (interquartile distance as a share of the median), next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads decide,serve,eval]
                                [--trace 0|1]

Run from the root of the checkout. Prints the machine envelope first:
the run-to-run variation of this benchmark depends on the machine, so
it is measured on each machine, not assumed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def envelope():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "ocaml": out(["ocamlopt", "-version"]),
        "git_rev": out(["git", "rev-parse", "--short", "HEAD"]),
    }


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    print("envelope:", json.dumps(envelope()))
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = 1 + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit("%s seed %d failed" % (w, seed))
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, correct %s, failed share %s" % (
            w, len(results), all(r["correct"] for r in results),
            ", ".join("%.6f" % s for s in shares)))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if sp < bound / 3 else (
                    "within bound" if sp <= bound else "OVER BOUND")
            print("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.1f%%"
                  "  bound %s %s" % (
                      name, med, q1, q3, 100 * sp,
                      "-" if bound is None else "%g%%" % (100 * bound), flag))
            if args.values:
                print("      values: " + " ".join("%.4g" % v for v in values))


if __name__ == "__main__":
    main()
