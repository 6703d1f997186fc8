"""Regenerate reference.json, the values run.py checks each iteration against.

    python3 bench/make_reference.py      # from the root of a checkout

Run it only on a commit whose outputs are trusted.  The spectra keep their
eigenvalues, their residuals (each residual sets its eigenvalue's
tolerance) and the labeled well count n0_expected.  sweep_1d keeps the walk
and Witten gaps of sweep.csv and the residual of each gap's eigenpair,
which sweep.csv does not carry; every reference run is traced, and these
are read off the dense solves' spans.  simulate_1d keeps its stationary
well fractions, which do not depend on the walk seed, and the acceptance
rate and final well occupation averaged over SIMULATE_SEEDS walk seeds,
which do.
"""

import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from run import BENCH, ROOT, WORKLOADS, make_input

SIMULATE_SEEDS = range(8)


def _solve_residuals(spans):
    """Residuals of each eigensolve in call order, by the operator it solved."""
    out = {"walk": [], "witten": []}
    kind = None
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] in ("gridop.assemble_walk", "gridop.assemble_witten"):
            kind = s["name"].rsplit("_", 1)[1]
        elif s["name"] == "eigen.smallest_eigs":
            out[kind].append(s["residuals"])
    return out


def _run(name, subcommand, seed, tmp):
    """Trace one run of a workload; returns its JSON output, CSV rows, spans."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run_dir = os.path.join(tmp, f"{name}-{seed}")
    os.makedirs(run_dir)
    cfg = make_input(name, seed, run_dir)
    out = os.path.join(run_dir, "out")
    spans = os.path.join(run_dir, "spans.json")
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    os.path.join(run_dir, "worker.json"),
                    repr(time.monotonic()), cfg,
                    "--run", subcommand, out, "--trace", spans],
                   env=env, check=True)
    with open(spans, encoding="utf-8") as fh:
        spans = json.load(fh)
    with open(os.path.join(out, f"{subcommand}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = []
    if subcommand != "spectrum":
        with open(os.path.join(out, f"{subcommand}.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    return doc, rows, spans


def _reference(name, subcommand, tmp):
    if subcommand == "spectrum":
        doc, _, _ = _run(name, subcommand, 0, tmp)
        return {k: doc[k] for k in ("eigenvalues", "residuals", "n0_expected")}
    if subcommand == "sweep":
        _, rows, spans = _run(name, subcommand, 0, tmp)
        solves = _solve_residuals(spans)
        ref = {}
        for kind, col in (("walk", "measured_gap"), ("witten", "witten_gap")):
            # one row and one solve per h: the workload's potential has two wells
            assert len(rows) == len(solves[kind])
            ref[col] = [float(r[col]) for r in rows]
            ref[f"{kind}_residual"] = [res[int(r["k"]) - 1]
                                       for r, res in zip(rows, solves[kind])]
        return ref
    runs = [_run(name, subcommand, seed, tmp) for seed in SIMULATE_SEEDS]
    wells = [k for k in runs[0][1][-1] if k != "step"]
    return {
        "stationary_fractions": runs[0][0]["stationary_fractions"],
        "acceptance_rate": statistics.fmean(
            doc["acceptance_rate"] for doc, _, _ in runs),
        "final_occupation": [statistics.fmean(
            float(rows[-1][w]) for _, rows, _ in runs) for w in wells],
    }


def main():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_ref") as tmp:
        reference = {name: _reference(name, subcommand, tmp)
                     for name, subcommand in sorted(WORKLOADS.items())}
    with open(os.path.join(BENCH, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
