"""End-to-end runs of the command line's subcommands.

Each run reads its settings from the records ``config.parse`` returns and
checks what it needs of them before the expensive stage that uses them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import asympt, eigen, gridop, landscape, walk
from .config import ConfigError, RunConfig, SolverConfig


def run_landscape(cfg: RunConfig, cell_cap: int = landscape.CELL_CAP
                  ) -> landscape.LandscapeLabeling:
    """Label the landscape on its own grid."""
    land = cfg.landscape
    return landscape.label_potential(
        cfg.spec, cfg.box, land.dx, coarse_spacing=land.coarse_spacing,
        match_radius=land.match_radius, cell_cap=cell_cap)


@dataclass
class SpectrumRun:
    h: float
    kind: str
    result: eigen.SpectralResult        # without its Ritz vectors
    cluster: eigen.ClusterReport
    seconds: float
    boundary_mass: float | None = None  # walk only: None for a Witten solve


def run_spectrum(phi: np.ndarray, grid: gridop.Grid, h: float, kind: str,
                 count: int, n0: int, solver: SolverConfig) -> SpectrumRun:
    """One solve on the grid samples ``phi``; its Ritz vectors are dropped."""
    t0 = time.perf_counter()
    if kind == "walk":
        op = gridop.to_P(gridop.assemble_walk(phi, grid, h))
    elif kind == "witten":
        op = gridop.assemble_witten(phi, grid, h)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    del phi          # frees the samples of a caller that kept none
    res = eigen.smallest_eigs(op, count=count, tol=solver.tol,
                              max_iter=solver.max_iter)
    return SpectrumRun(h=h, kind=op.kind,
                       result=replace(res, vectors=None),
                       cluster=eigen.classify_spectrum(res, h=h, n0=n0),
                       seconds=time.perf_counter() - t0,
                       boundary_mass=(op.data.boundary_mass
                                      if op.kind == gridop.WALK_P else None))


@dataclass
class SweepRun:
    walk_runs: list
    witten_runs: list
    report: asympt.ComparisonReport


def run_sweep(cfg: RunConfig) -> SweepRun:
    """Measure walk and comparison gaps over an h sweep and fit the rate law."""
    if len(cfg.h_values) < asympt.MIN_FIT_POINTS:
        raise ConfigError(
            f"sweep needs at least {asympt.MIN_FIT_POINTS} h values to fit "
            f"the rate, got {len(cfg.h_values)}")
    # every h's Witten resolution and the operator grid's cell cap are
    # checked before any labeling
    for h in cfg.h_values:
        gridop.require_resolution(cfg.dx, h)
    grid = gridop.build_grid(cfg.box, cfg.dx, cell_cap=cfg.cell_cap)
    phi = gridop.sample(cfg.spec, grid)
    # a ball's Gibbs sum shrinks as h does, so assembling the walk at the
    # last, smallest h refuses an underflow before any labeling or solve
    gridop.assemble_walk(phi, grid, cfg.h_values[-1])
    lab = run_landscape(cfg)
    n0 = lab.n0
    # the split after the cluster needs the eigenvalue above it
    if n0 < 2 or cfg.count <= n0:
        raise ConfigError(
            f"sweep needs n0 >= 2 wells and count > n0 eigenvalues per "
            f"solve, got n0 = {n0} and count = {cfg.count}")
    walk_runs, witten_runs = [], []
    for h in cfg.h_values:
        walk_runs.append(run_spectrum(phi, grid, h, "walk", cfg.count, n0,
                                      cfg.solver))
        witten_runs.append(run_spectrum(phi, grid, h, "witten", cfg.count,
                                        n0, cfg.solver))
    measured = {k: [r.result.eigenvalues[k - 1] for r in walk_runs]
                for k in range(2, n0 + 1)}
    witten = {k: [r.result.eigenvalues[k - 1] for r in witten_runs]
              for k in range(2, n0 + 1)}
    residuals = {k: [r.result.residual_norms[k - 1] for r in walk_runs]
                 for k in range(2, n0 + 1)}
    report = asympt.compare(cfg.h_values, measured, lab, cfg.spec.dimension,
                            witten_measured=witten, residuals=residuals)
    return SweepRun(walk_runs=walk_runs, witten_runs=witten_runs,
                    report=report)


# the stationary histogram of a simulation lives on the landscape grid
SIMULATION_CELL_CAP = 4_000_000


@dataclass
class SimulationRun:
    trace: walk.WalkTrace
    stationary_fractions: np.ndarray
    gap_estimate: walk.GapEstimate | None
    exit_mean: float | None
    exit_stderr: float | None
    workers: int                     # processes the walk ran in
    seconds: float                   # wall time of the walk
    boundary_mass: float             # of the walk the histogram comes from


def run_simulation(cfg: RunConfig) -> SimulationRun:
    """Simulate the chains; wells and stationary weights share one grid."""
    w = cfg.walk
    if w is None:
        raise ConfigError("simulate needs a walk block in the config")
    lab = run_landscape(cfg, cell_cap=SIMULATION_CELL_CAP)
    if w.start_well is not None and not 1 <= w.start_well <= lab.n0:
        raise ConfigError(f"walk.start.well must be a well in 1..{lab.n0}, "
                          f"got {w.start_well}")
    pi, bmass = gridop.stationary_law(lab.values, lab.grid, w.h)
    pi = pi.ravel()
    fracs = np.array([pi[lab.component_ids.ravel() == k].sum()
                      for k in range(1, lab.n0 + 1)])
    t0 = time.perf_counter()
    trace = walk.simulate(w, lab, stationary_weights=pi)
    seconds = time.perf_counter() - t0
    gap_est = None
    exit_mean, exit_se = walk.mean_exit_time(trace)
    if w.estimate_gap:
        gap_est = walk.empirical_gap(
            trace, float(fracs[trace.start_well - 1]))
    return SimulationRun(trace=trace, stationary_fractions=fracs,
                         gap_estimate=gap_est, exit_mean=exit_mean,
                         exit_stderr=exit_se,
                         workers=walk.worker_count(w.n_chains),
                         seconds=seconds,
                         boundary_mass=bmass)
