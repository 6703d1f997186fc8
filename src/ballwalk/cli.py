"""Command line: landscape | spectrum | sweep | predict | simulate | selfcheck.

Outputs are machine-readable (JSON reports, CSV tables), written atomically
into the configured output directory and nowhere else.  Floating point
values are serialized with 17 significant digits so files round-trip
exactly; timestamps live in a separate metadata file so repeated runs of
the same config produce byte-identical data outputs.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure,
4 hypothesis violation.
"""

import os

# Pin BLAS threading before numpy loads anywhere in this process: reduction
# order inside threaded BLAS kernels varies with the thread count, and the
# determinism contract is byte-identical output at any thread setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import sys
import tempfile
import time

import numpy as np

from . import __version__, asympt, config, eigen, gridop, landscape
from . import pipeline, potentials, symbols, walk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4

# the failures of a run that end it with EXIT_NUMERICAL
NUMERICAL_FAILURES = (
    asympt.InsufficientPoints,
    eigen.NoConvergence,
    gridop.TooManyCells, gridop.BallTooSmall, gridop.ResolutionError,
    gridop.MatvecHelperLost,
    landscape.AmbiguousMatch, landscape.NonMorseCritical,
    landscape.BoundaryMergeError,
    walk.RejectionStall, walk.NotRelaxed,
    np.linalg.LinAlgError,
)


# --- serialization -------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def to_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {to_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, type(None)))
                   for v in obj)
        if flat:
            return "[" + ", ".join(to_json(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(outdir: str, name: str, doc: dict, csv_rows=None,
                   csv_header=None, formats=("json", "csv"),
                   metadata=None) -> None:
    """Write the data outputs, then the sidecar with run-dependent fields."""
    if "json" in formats:
        write_atomic(os.path.join(outdir, f"{name}.json"), to_json(doc) + "\n")
    if csv_rows is not None and "csv" in formats:
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row))
        write_atomic(os.path.join(outdir, f"{name}.csv"),
                     "\n".join(lines) + "\n")
    meta = {"tool": f"ballwalk {__version__}",
            "created_unix": time.time(), **(metadata or {})}
    write_atomic(os.path.join(outdir, f"{name}_metadata.json"),
                 to_json(meta) + "\n")


# --- subcommands ----------------------------------------------------------------


def _landscape_doc(lab: landscape.LandscapeLabeling,
                   rep: potentials.HypothesisReport) -> dict:
    crit = []
    # minima and saddles each keep their pair order through the stable sort
    seen = [c for (_, m, s, _) in lab.pairs for c in (m, s) if c is not None]
    for c in sorted(seen + list(lab.non_separating),
                    key=lambda c: (c.index, c.value)):
        crit.append({
            "location": list(c.location),
            "value": c.value,
            "index": c.index,
            "hessian_eigs": list(c.hessian_eigs),
            "hessian_det": c.hessian_det,
        })
    pairs = []
    for (k, m, s, S) in lab.pairs:
        pairs.append({
            "k": k,
            "m": list(m.location),
            "s": None if s is None else list(s.location),
            "S": S,
        })
    return {
        "critical_points": crit,
        "pairs": pairs,
        "n0": lab.n0,
        "n1": lab.n1,
        "warnings": list(lab.warnings),
        "hypotheses": {
            "min_hessian_spectral_gap": rep.min_hessian_spectral_gap,
            "boundary_gradient_min": rep.boundary_gradient_min,
            "generic_ok": rep.generic_ok,
            "min_S_separation": rep.min_S_separation,
        },
    }


def cmd_landscape(cfg: config.RunConfig, outdir: str) -> int:
    lab = pipeline.run_landscape(cfg)
    rep = potentials.check_hypotheses(cfg.spec, cfg.box, lab)
    _write_outputs(outdir, "landscape", doc=_landscape_doc(lab, rep))
    return EXIT_OK if rep.generic_ok else EXIT_HYPOTHESIS


def _solve_fields(run: pipeline.SpectrumRun) -> dict:
    """How one solve went, as kept by its SpectrumRun; nothing recomputed."""
    res = run.result
    # both solver paths bound each residual by tol (1 + |lambda|)
    over_bound = max(r / (res.tol * (1.0 + abs(lam)))
                     for lam, r in zip(res.eigenvalues, res.residual_norms))
    fields = {"boundary_mass": run.boundary_mass,
              "solver": res.solver, "iterations": res.iterations,
              "max_residual": max(res.residual_norms), "tol": res.tol,
              "max_residual_over_bound": over_bound,
              "split_ratio": run.cluster.split_ratio,
              "remainder_over_h": run.cluster.remainder_over_h,
              "seconds": run.seconds}
    if res.shift is not None:
        fields.update(shift=res.shift, factor_nnz=res.factor_nnz)
    if res.matvec_processes is not None:
        fields.update(matvec_processes=res.matvec_processes)
    return fields


def _spectrum_n0(cfg: config.RunConfig) -> int:
    """The number of minima, checked against ``count`` before the solve.

    The cluster has one eigenvalue per minimum: the n0 a full labeling
    reports, which ``spectrum`` does not run.
    """
    critical, _ = landscape.find_critical_points(
        cfg.spec, cfg.box, coarse_spacing=cfg.landscape.coarse_spacing)
    n0 = sum(1 for c in critical if c.index == 0)
    if n0 < 1 or cfg.count <= n0:
        raise config.ConfigError(
            f"spectrum needs n0 >= 1 minima and count > n0 eigenvalues, "
            f"got n0 = {n0} and count = {cfg.count}")
    return n0


def cmd_spectrum(cfg: config.RunConfig, outdir: str) -> int:
    grid = gridop.build_grid(cfg.box, cfg.dx, cell_cap=cfg.cell_cap)
    # arguments run left to right: sampling refuses a potential that is not
    # finite before the minima are counted, and no reference to the samples
    # outlives the assembly
    run = pipeline.run_spectrum(gridop.sample(cfg.spec, grid), grid, cfg.h,
                                cfg.operator, cfg.count,
                                (n0 := _spectrum_n0(cfg)), cfg.solver)
    res = run.result
    doc = {
        "h": run.h,
        "dx": cfg.dx,
        "kind": run.kind,
        "eigenvalues": list(res.eigenvalues),
        "residuals": list(res.residual_norms),
        "n_small": n0,
        "next_eigenvalue": run.cluster.next_eigenvalue,
        "solver": res.solver,
    }
    _write_outputs(outdir, "spectrum", doc=doc, metadata=_solve_fields(run))
    return EXIT_OK


def cmd_sweep(cfg: config.RunConfig, outdir: str) -> int:
    run = pipeline.run_sweep(cfg)
    rep = run.report
    header = ["h", "dx", "k", "measured_gap", "predicted_gap", "ratio",
              "witten_gap", "witten_ratio"]
    rows = [(r.h, cfg.dx, r.k, r.measured, r.predicted, r.ratio,
             r.witten_measured, r.witten_ratio) for r in rep.rows]
    summary = {
        "S_fit": rep.S_fit,
        "S_theory": rep.S_theory,
        "rel_err": rep.rel_err,
        "prefactor_ratio": rep.prefactor_ratio,
        "witten_ratio_median": rep.witten_ratio_median,
        "slope": rep.fit.slope,
        "slope_stderr": rep.fit.slope_stderr,
        "window": list(rep.fit.window),
        "passed": rep.passed,
        "tolerances": rep.tolerances,
    }
    solves = [{"h": r.h, "operator": op, **_solve_fields(r)}
              for pair in zip(run.walk_runs, run.witten_runs)
              for op, r in zip(("walk", "witten"), pair)]
    _write_outputs(outdir, "sweep", doc=summary, csv_rows=rows,
                   csv_header=header, formats=cfg.formats,
                   metadata={"solves": solves})
    return EXIT_OK


def cmd_predict(cfg: config.RunConfig, outdir: str) -> int:
    lab = pipeline.run_landscape(cfg)
    preds = []
    for k in range(1, lab.n0 + 1):
        p = asympt.predict(lab, k, cfg.spec.dimension)
        entry = {
            "k": k,
            "S": p.S,
            "mu": p.mu,
            "det_min": p.det_min,
            "det_saddle": p.det_saddle,
            "gaps": [{"h": h, "walk": p.gap(h), "witten": p.witten_gap(h)}
                     for h in cfg.h_values],
        }
        if p.simple_eigenvalue:
            entry["flag"] = "simple eigenvalue"
        preds.append(entry)
    _write_outputs(outdir, "predict", doc={"n0": lab.n0, "predictions": preds})
    return EXIT_OK


def cmd_simulate(cfg: config.RunConfig, outdir: str) -> int:
    run = pipeline.run_simulation(cfg)
    tr = run.trace
    n0 = tr.occupation.shape[1]
    header = ["step"] + [f"well_{k}_fraction" for k in range(1, n0 + 1)]
    rows = []
    for i, s in enumerate(tr.recorded_steps):
        rows.append((int(s),) + tuple(tr.occupation[i] / tr.n_chains))
    doc = {
        "acceptance_rate": tr.acceptance_rate,
        "exit_time_mean": run.exit_mean,
        "exit_time_ci": ([run.exit_mean - 2 * run.exit_stderr,
                          run.exit_mean + 2 * run.exit_stderr]
                         if run.exit_stderr is not None else None),
        "empirical_gap": (None if run.gap_estimate is None else {
            "rate": run.gap_estimate.rate,
            "ci": [run.gap_estimate.ci_low, run.gap_estimate.ci_high],
        }),
        "stationary_fractions": list(run.stationary_fractions),
    }
    meta = {"acceptance_rate": tr.acceptance_rate,
            "rejection_rounds_max": tr.rejection_rounds_max,
            "rejection_rounds_mean": tr.rejection_rounds_mean,
            "bound_violations": tr.bound_violations,
            "bound_cells": tr.bound_cells,
            "bound_fallbacks": tr.bound_fallbacks,
            "workers": run.workers,
            "ns_per_chain_step": 1e9 * run.seconds / tr.chain_steps,
            "boundary_mass": run.boundary_mass}
    _write_outputs(outdir, "simulate", doc=doc, csv_rows=rows,
                   csv_header=header, formats=cfg.formats, metadata=meta)
    return EXIT_OK


def _selfcheck_rows():
    from scipy.integrate import quad

    rng = np.random.Generator(np.random.Philox(key=99))
    rows = []

    def check(name, value, bound):
        rows.append((value <= bound, name, value, bound))

    def ball_mean_quad(dim, kernel, r):
        """Mean of kernel(r z_1) over the unit ball; polar in 2D."""
        if dim == 1:
            return quad(lambda z: kernel(z * r), -1, 1, epsabs=1e-13)[0] / 2.0
        return quad(lambda t: 2.0 * t * quad(
            lambda a: kernel(r * t * math.cos(a)), 0.0, math.pi,
            epsabs=1e-12)[0] / math.pi, 0.0, 1.0, epsabs=1e-12)[0]

    # multipliers against adaptive quadrature of the defining means
    for name, mean, kernel, r_max, sizes in (
            ("multiplier", symbols.multiplier, math.cos, 30.0, (100, 100)),
            ("imag multiplier", symbols.multiplier_imag,
             lambda u: math.exp(-u), 8.0, (100, 50))):
        for dim, size in zip((1, 2), sizes):
            worst = max(abs(mean(dim, r) - ball_mean_quad(dim, kernel, r))
                        for r in rng.uniform(0.0, r_max, size=size))
            check(f"{name} d={dim} vs quadrature", worst, 1e-9)

    # principal symbol nonnegativity
    spec1 = potentials.builtin("double_well_tilted")
    xs = rng.uniform(-2, 2, size=10000)
    xis = rng.uniform(-20, 20, size=10000)
    p0 = symbols.symbol_principal(spec1, xs[:, None], xis)
    check("principal symbol >= 0 (1e4 samples)", float(-p0.min()), 1e-12)

    # modulus bound of the analytic continuation
    worst = 0.0
    for _ in range(1000):
        xi, tau = rng.uniform(-6, 6), rng.uniform(-4, 4)
        re = quad(lambda z: math.exp(-z * tau) * math.cos(z * xi), -1, 1,
                  epsabs=1e-12)[0] / 2.0
        im = quad(lambda z: math.exp(-z * tau) * math.sin(z * xi), -1, 1,
                  epsabs=1e-12)[0] / 2.0
        worst = max(worst, math.hypot(re, im) - symbols.multiplier_imag(1, abs(tau)))
    check("analytic modulus bound (1e3 samples)", worst, 1e-10)

    # detailed balance and exact eigenpairs of a small assembled walk
    box = potentials.Box.from_pairs([(-2, 2)])
    grid = gridop.build_grid(box, 0.01)
    phi = gridop.sample(spec1, grid)
    op = gridop.assemble_walk(phi, grid, 0.12)
    v = op.stationary_sqrt
    check("walk top eigenpair residual", float(np.linalg.norm(op.matvec(v) - v)), 1e-13)
    # the stochastic matrix t_ij = S_ij sqrt(pi_j / pi_i), from the assembled CSR
    s = op.tocsr()
    pi = op.data.pi.ravel()
    t = s.multiply(1.0 / np.sqrt(pi)[:, None]).multiply(np.sqrt(pi)[None, :])
    check("stochastic row sums", float(np.max(np.abs(t.sum(axis=1) - 1.0))), 1e-14)
    d = (s - s.T).tocoo()
    check("assembled symmetry", 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data))), 0.0)
    flux = t.multiply(pi[:, None])
    fd = (flux - flux.T).tocoo()
    asym = 0.0 if fd.nnz == 0 else float(np.max(np.abs(fd.data)))
    check("detailed balance flux", asym, 1e-15 * float(flux.max()))

    wop = gridop.assemble_witten(phi, grid, 0.12)
    check("gram laplacian kernel residual",
          float(np.linalg.norm(wop.matvec(wop.stationary_sqrt))), 1e-12)

    # the two-process walk apply, forced on, against the one-process apply:
    # entries whose bits differ, sign included
    box2 = potentials.Box.from_pairs([(-1.8, 1.8), (-1.8, 1.8)])
    grid2 = gridop.build_grid(box2, 0.045)
    spec2 = potentials.builtin("three_well")
    op2 = gridop.to_P(gridop.assemble_walk(gridop.sample(spec2, grid2),
                                           grid2, 0.4))
    u = rng.standard_normal(op2.n)
    with gridop.split_rows(op2) as split:
        got = split.matvec(u)
    want = op2.matvec(u)
    check("two-process walk apply bit mismatches", int(np.count_nonzero(
        (got != want) | (np.signbit(got) != np.signbit(want)))), 0)
    return rows


def cmd_selfcheck() -> int:
    t0 = time.perf_counter()
    rows = _selfcheck_rows()
    width = max(len(r[1]) for r in rows)
    ok_all = True
    for ok, name, value, bound in rows:
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  "
              f"value={value:.3e}  bound={bound:.0e}")
    print(f"{'OK' if ok_all else 'FAILED'} ({len(rows)} checks, "
          f"{time.perf_counter() - t0:.1f}s)")
    return EXIT_OK if ok_all else EXIT_NUMERICAL


# --- entry ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ballwalk",
        description="metastable ball-walk spectral laboratory")
    parser.add_argument("--version", action="version",
                        version=f"ballwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("landscape", "spectrum", "sweep", "predict", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--output-dir", default=None,
                       help="override the configured output directory")
    sub.add_parser("selfcheck")

    args = parser.parse_args(argv)
    if args.command == "selfcheck":
        return cmd_selfcheck()

    handlers = {
        "landscape": cmd_landscape,
        "spectrum": cmd_spectrum,
        "sweep": cmd_sweep,
        "predict": cmd_predict,
        "simulate": cmd_simulate,
    }
    try:
        cfg = config.load(args.config)
        return handlers[args.command](cfg, args.output_dir or cfg.output_dir)
    except (config.ConfigError, potentials.NonFiniteValues) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
