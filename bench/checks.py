"""Correctness checks of one workload run, and the field-by-field output diff.

Reference values live in reference.json next to this file; they were
produced by make_reference.py from the commit that defined the benchmark.
"""

import csv
import json
import os

# ROADMAP gate: eigenvalues match the reference path to within the solver
# residual, which is about 1e-14 absolute; never tighter than that floor
EIG_FLOOR = 1e-14
SWEEP_REL_ERR = 0.05
FRACTION_TOL = 1e-12
# simulate_1d depends on the walk seed.  Over 4000 chains x 400 steps the
# acceptance rate varies by about 4e-4 between seeds and each final well
# fraction by about 0.005 (binomial), so these bounds pass every seed and
# still fail a walk with a wrong acceptance test or a skipped rejection.
ACCEPTANCE_TOL = 0.01
OCCUPATION_TOL = 0.03


def _load(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _compare_eigs(label, got, want, residuals):
    """Each value within max(EIG_FLOOR, its reference residual) of the reference."""
    if len(got) != len(want):
        return [f"{len(got)} {label}, reference has {len(want)}"]
    problems = []
    for i, (g, w, r) in enumerate(zip(got, want, residuals)):
        tol = max(EIG_FLOOR, r)
        if not abs(g - w) <= tol:
            problems.append(f"{label} {i}: {g!r} differs from {w!r} "
                            f"by more than {tol:.1e}")
    return problems


def _check_spectrum(outdir, ref):
    doc = _load(outdir, "spectrum.json")
    problems = _compare_eigs("eigenvalue", doc["eigenvalues"],
                             ref["eigenvalues"], ref["residuals"])
    # n0_expected is advisory in spectrum.json, so the reference keeps it too
    n0 = ref["n0_expected"]
    if doc["n_small"] != n0 or doc.get("n0_expected", n0) != n0:
        problems.append(f"n_small {doc['n_small']} and n0_expected "
                        f"{doc.get('n0_expected')} must both be {n0}")
    return problems


def _check_sweep(outdir, ref):
    doc = _load(outdir, "sweep.json")
    problems = []
    if doc["passed"] is not True:
        problems.append("sweep did not pass its own rate check")
    if not doc["rel_err"] <= SWEEP_REL_ERR:
        problems.append(f"rel_err {doc['rel_err']!r} > {SWEEP_REL_ERR}")
    with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for kind, col in (("walk", "measured_gap"), ("witten", "witten_gap")):
        problems += _compare_eigs(col, [float(r[col]) for r in rows],
                                  ref[col], ref[f"{kind}_residual"])
    return problems


def _check_simulate(outdir, ref):
    problems = []
    with open(os.path.join(outdir, "simulate.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        return ["simulate.csv has no occupation rows"]
    for row in rows:
        total = sum(float(v) for v in row[1:])
        if not abs(total - 1.0) <= FRACTION_TOL:
            problems.append(f"occupation row at step {row[0]} sums to {total!r}")
            break
    final = [float(v) for v in rows[-1][1:]]
    want = ref["final_occupation"]
    if len(final) != len(want) or not all(
            abs(g - w) <= OCCUPATION_TOL for g, w in zip(final, want)):
        problems.append(f"final occupation {final} is not within "
                        f"{OCCUPATION_TOL} of reference {want}")
    doc = _load(outdir, "simulate.json")
    acc = doc["acceptance_rate"]
    if not abs(acc - ref["acceptance_rate"]) <= ACCEPTANCE_TOL:
        problems.append(f"acceptance_rate {acc!r} is not within "
                        f"{ACCEPTANCE_TOL} of reference "
                        f"{ref['acceptance_rate']!r}")
    got, want = doc["stationary_fractions"], ref["stationary_fractions"]
    if len(got) != len(want) or not all(
            abs(g - w) <= FRACTION_TOL for g, w in zip(got, want)):
        problems.append(f"stationary_fractions {got} != reference {want}")
    return problems


CHECKS = {"spectrum": _check_spectrum, "sweep": _check_sweep,
          "simulate": _check_simulate}


def check(subcommand, outdir, ref):
    """Problems found in a run's outputs (empty when the run is correct)."""
    try:
        return CHECKS[subcommand](outdir, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}/{k}", v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}/{i}", v, out)
    else:
        out[prefix] = value


def data_fields(outdir):
    """Every leaf value of the data outputs (JSON and CSV), keyed by path.

    Metadata sidecars are not data outputs and are left out; nothing inside
    a data file is stripped.
    """
    fields = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name.endswith("_metadata.json"):
            continue
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                _flatten(name, json.load(fh), fields)
        elif name.endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                for r, row in enumerate(csv.reader(fh)):
                    for c, cell in enumerate(row):
                        fields[f"{name}/{r}/{c}"] = cell
    return fields


def differing_fields(a, b):
    """Number of field paths whose values differ or exist on one side only."""
    return sum(1 for k in set(a) | set(b)
               if k not in a or k not in b or a[k] != b[k])
