#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload decide|serve|eval --seed N \
        --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (the first run in a
fresh checkout builds the whole library), runs it, and prints its notes
and, as the last line, the result object. With --trace 0 the result
gains peak_rss_mb: the largest peak resident set among the run's
processes (the benchmark and any shard workers it forked), read from
the kernel's accounting of the reaped process tree.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join("perfbench", "dune-project")):
        sys.exit("run from the root of the checkout")
    if not build():
        sys.exit("build failed")
    proc = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit("bench.exe exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in kB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
