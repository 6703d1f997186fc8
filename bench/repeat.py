"""Repeat run.py over several seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload simulate_1d --runs 10 [--first-seed 1]

Each run is untraced and measures for run_seconds of BENCHMARK.json, as
the end-to-end metrics are measured.  Spread is the interquartile distance
as a share of the median, the noise that a metric's bound in
BENCHMARK.json must exceed.  Every run's last output line is appended to
``.bench_run/repeat-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH, ROOT
from stats import quartiles, spread


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    log = os.path.join(ROOT, ".bench_run", f"repeat-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        last = out.strip().splitlines()[-1]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(last + "\n")
        result = json.loads(last)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  f"failed", file=sys.stderr)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
    for k, vs in values.items():
        q1, med, q3 = quartiles(vs)
        sp = spread(vs) if med else float("nan")
        print(f"{args.workload:<19} {k:<28} median {med:<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp:.4f} (n={len(vs)})")


if __name__ == "__main__":
    main()
