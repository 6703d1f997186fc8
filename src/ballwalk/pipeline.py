"""End-to-end runs shared by the command line and the verification suite."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import asympt, eigen, gridop, landscape, potentials, walk
from .config import LandscapeConfig
from .potentials import Box, PotentialSpec


@dataclass
class LandscapeRun:
    labeling: landscape.LandscapeLabeling
    hypotheses: potentials.HypothesisReport


def run_landscape(spec: PotentialSpec, box: Box, land: LandscapeConfig,
                  cell_cap: int = landscape.CELL_CAP) -> LandscapeRun:
    """Label the landscape on its own grid and check the standing hypotheses."""
    lab = landscape.label_potential(
        spec, box, land.dx, coarse_spacing=land.coarse_spacing,
        newton_tolerance=land.newton_tolerance,
        match_radius=land.match_radius, cell_cap=cell_cap)
    rep = potentials.check_hypotheses(spec, box, lab)
    return LandscapeRun(labeling=lab, hypotheses=rep)


@dataclass
class SpectrumRun:
    h: float
    dx: float
    kind: str
    result: eigen.SpectralResult
    cluster: eigen.ClusterReport | None
    seconds: float
    boundary_mass: float | None = None


def run_spectrum(spec: PotentialSpec, grid: gridop.Grid, h: float,
                 kind: str = "walk", count: int = 6, tol: float = 1e-11,
                 max_iter: int = 20000, dense_cutoff: int = eigen.DENSE_CUTOFF,
                 n0_expected: int | None = None,
                 classify: bool = True) -> SpectrumRun:
    t0 = time.perf_counter()
    bmass = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gridop.BoundaryMassWarning)
        if kind == "walk":
            top = gridop.assemble_walk(spec, grid, h)
            bmass = top.data.boundary_mass
            op = gridop.to_P(top)
        elif kind == "witten":
            op = gridop.assemble_witten(spec, grid, h)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    res = eigen.smallest_eigs(op, count=count, tol=tol, max_iter=max_iter,
                              dense_cutoff=dense_cutoff)
    cluster = None
    if classify:
        cluster = eigen.classify_spectrum(res, h=h, n0_expected=n0_expected)
        res = res.classified(cluster)
    return SpectrumRun(h=h, dx=grid.spacing, kind=op.kind, result=res,
                       cluster=cluster, seconds=time.perf_counter() - t0,
                       boundary_mass=bmass)


@dataclass
class SweepRun:
    h_values: tuple[float, ...]
    walk_runs: list
    witten_runs: list
    labeling: landscape.LandscapeLabeling
    report: asympt.ComparisonReport


def run_sweep(spec: PotentialSpec, box: Box, dx: float, h_values,
              land: LandscapeConfig, count: int = 6,
              tol: float = 1e-11, max_iter: int = 20000,
              dense_cutoff: int = eigen.DENSE_CUTOFF,
              cell_cap: int = gridop.CELL_CAP) -> SweepRun:
    """Measure walk and comparison gaps over an h sweep and fit the rate law."""
    h_values = [float(h) for h in h_values]
    # the operator grid is checked against the cap before any labeling
    grid = gridop.build_grid(box, dx, cell_cap=cell_cap)
    lab = run_landscape(spec, box, land).labeling
    n0 = lab.n0
    walk_runs, witten_runs = [], []
    for h in h_values:
        walk_runs.append(run_spectrum(
            spec, grid, h, kind="walk", count=count, tol=tol,
            max_iter=max_iter, dense_cutoff=dense_cutoff, n0_expected=n0))
        witten_runs.append(run_spectrum(
            spec, grid, h, kind="witten", count=count, tol=tol,
            max_iter=max_iter, dense_cutoff=dense_cutoff, n0_expected=n0))
    measured = {k: [r.result.eigenvalues[k - 1] for r in walk_runs]
                for k in range(2, n0 + 1)}
    witten = {k: [r.result.eigenvalues[k - 1] for r in witten_runs]
              for k in range(2, n0 + 1)}
    residuals = {k: [r.result.residual_norms[k - 1] for r in walk_runs]
                 for k in range(2, n0 + 1)}
    report = asympt.compare(h_values, measured, lab, spec.dimension,
                            witten_measured=witten, residuals=residuals)
    return SweepRun(h_values=tuple(h_values), walk_runs=walk_runs,
                    witten_runs=witten_runs, labeling=lab, report=report)


# the stationary histogram of a simulation lives on the landscape grid
SIMULATION_CELL_CAP = 4_000_000


@dataclass
class SimulationRun:
    config: walk.WalkConfig
    trace: walk.WalkTrace
    stationary_fractions: np.ndarray
    gap_estimate: walk.GapEstimate | None
    exit_mean: float | None
    exit_stderr: float | None


def run_simulation(spec: PotentialSpec, box: Box, h: float, n_steps: int,
                   n_chains: int, seed: int, start, land: LandscapeConfig,
                   record_every: int = 1, estimate_gap: bool = False,
                   freeze_exited: bool = False) -> SimulationRun:
    """Simulate the chains; wells and stationary weights share one grid."""
    lab = run_landscape(spec, box, land, cell_cap=SIMULATION_CELL_CAP).labeling
    wmap = walk.well_map(lab)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gridop.BoundaryMassWarning)
        pi = gridop.stationary_histogram(
            gridop.assemble_walk(spec, lab.grid, h))
    fracs = np.array([pi[lab.component_ids.ravel() == k].sum()
                      for k in range(1, lab.n0 + 1)])
    cfg = walk.WalkConfig(spec=spec, h=h, n_steps=n_steps, n_chains=n_chains,
                          seed=seed, start=start, record_every=record_every)
    trace = walk.simulate(cfg, wmap, stationary_weights=pi,
                          freeze_exited=freeze_exited)
    gap_est = None
    exit_mean = exit_se = None
    if trace.start_well is not None and np.any(trace.first_exit_steps > 0):
        exit_mean, exit_se = walk.mean_exit_time(trace)
    if estimate_gap and trace.start_well is not None:
        gap_est = walk.empirical_gap(
            trace, float(fracs[trace.start_well - 1]))
    return SimulationRun(config=cfg, trace=trace, stationary_fractions=fracs,
                         gap_estimate=gap_est, exit_mean=exit_mean,
                         exit_stderr=exit_se)
