"""Closed-form gap predictions and Arrhenius fits from h-sweeps.

The predicted leading term for the k-th relaxation rate of the walk is

    gap_k(h) = h / ((2d+4) pi) * mu_k * sqrt|det H(m_k) / det H(s_k)| * e^(-2 S_k / h)

with mu_k the magnitude of the single negative Hessian eigenvalue at the
paired saddle and S_k the barrier height.  The diffusion-limit comparison
operator obeys the same law without the (2d+4) factor.  The uncontrolled
(1 + O(h)) correction is not modeled; comparison tolerances absorb it.

Rate fits regress ln(gap/h) on 1/h, i.e. against the model
gap = prefactor * h * e^(slope/h); fitting ln(gap) directly would bias the
slope by the logarithmic derivative of the h prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import EIG_FLOOR
from .landscape import LandscapeLabeling

MIN_FIT_POINTS = 4        # the fewest admissible points a rate fit accepts
# a sweep passes when the fitted barrier is within RATE_TOLERANCE of S_2
# (relative) and every windowed measured/predicted k = 2 gap is in the band
RATE_TOLERANCE = 0.05
PREFACTOR_BAND = (0.7, 1.3)


class InsufficientPoints(ValueError):
    """Fewer than four admissible sweep points after windowing."""


@dataclass(frozen=True)
class GapPrediction:
    k: int
    S: float
    mu: float                # magnitude of the negative Hessian eigenvalue at s_k
    det_min: float
    det_saddle: float
    dimension: int
    simple_eigenvalue: bool = False   # k = 1: the trivial eigenvalue, gap 0

    def gap(self, h: float) -> float:
        if self.simple_eigenvalue:
            return 0.0
        return self.witten_gap(h) / (2 * self.dimension + 4)

    def witten_gap(self, h: float) -> float:
        if self.simple_eigenvalue:
            return 0.0
        amp = self.mu * math.sqrt(abs(self.det_min / self.det_saddle))
        return h / math.pi * amp * math.exp(-2.0 * self.S / h)


def predict(labeling: LandscapeLabeling, k: int, dimension: int) -> GapPrediction:
    """Prediction data for pair k (k = 1 returns the flagged zero gap)."""
    entry = next((p for p in labeling.pairs if p[0] == k), None)
    if entry is None:
        raise ValueError(f"no pair with index {k} (n0 = {labeling.n0})")
    _, minimum, saddle, S = entry
    if saddle is None:
        return GapPrediction(k=1, S=math.inf, mu=math.nan,
                             det_min=minimum.hessian_det, det_saddle=math.nan,
                             dimension=dimension, simple_eigenvalue=True)
    mu = -saddle.hessian_eigs[0]
    if mu <= 0:
        raise ValueError(f"pair {k} saddle has no negative Hessian eigenvalue")
    return GapPrediction(k=k, S=S, mu=mu, det_min=minimum.hessian_det,
                         det_saddle=saddle.hessian_det, dimension=dimension)


@dataclass(frozen=True)
class SweepFit:
    slope: float                  # estimates -2 S_k
    slope_stderr: float
    prefactor_estimate: float     # gap ~ prefactor * h * e^(slope/h)
    window: tuple[int, ...]       # indices kept by the windowing rule


def fit_rate(h_values, gaps, residuals) -> SweepFit:
    """Least-squares Arrhenius fit over the admissible window.

    Points with gap below 100 machine epsilons, nonpositive gap, or with a
    solver residual exceeding 1 percent of the gap are excluded; at least
    four points must remain.  The prefactor is the geometric mean of
    gap * e^(-slope/h) / h over the window.
    """
    h = np.asarray(h_values, float)
    g = np.asarray(gaps, float)
    r = np.asarray(residuals, float)
    keep = (g > EIG_FLOOR) & (r <= 0.01 * np.abs(g))
    idx = np.nonzero(keep)[0]
    if idx.size < MIN_FIT_POINTS:
        raise InsufficientPoints(
            f"only {idx.size} admissible sweep points "
            f"(need >= {MIN_FIT_POINTS})")
    x = 1.0 / h[idx]
    y = np.log(g[idx] / h[idx])
    n = idx.size
    a = np.vstack([x, np.ones(n)]).T
    coef, res_sq, _, _ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = a @ coef
    dof = max(n - 2, 1)
    s2 = float(np.sum((y - fitted) ** 2)) / dof
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    prefactor = float(np.exp(np.mean(np.log(g[idx]) - slope * x - np.log(h[idx]))))
    return SweepFit(
        slope=slope,
        slope_stderr=stderr,
        prefactor_estimate=prefactor,
        window=tuple(int(i) for i in idx),
    )


@dataclass(frozen=True)
class ComparisonRow:
    h: float
    k: int
    measured: float
    predicted: float
    ratio: float
    witten_measured: float
    witten_ratio: float           # witten_measured / measured


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    fit: SweepFit                     # for k = 2
    S_fit: float                      # -slope/2
    S_theory: float
    rel_err: float
    prefactor_ratio: float            # fitted / predicted prefactor
    witten_ratio_median: float
    passed: bool
    tolerances: dict


def compare(h_values, measured, labeling: LandscapeLabeling, dimension: int,
            witten_measured, residuals) -> ComparisonReport:
    """Measured-vs-predicted table plus the fitted Arrhenius summary.

    ``measured``, ``witten_measured`` and ``residuals`` map each k to its
    values, indexed like h_values; ``measured`` must hold k = 2, which the
    fit and the pass/fail verdict use.
    """
    h = [float(v) for v in h_values]
    rows = []
    for k, gaps in sorted(measured.items()):
        pred = predict(labeling, k, dimension)
        for i, hv in enumerate(h):
            p = pred.gap(hv)
            wm = float(witten_measured[k][i])
            rows.append(ComparisonRow(
                h=hv, k=k, measured=float(gaps[i]), predicted=p,
                ratio=float(gaps[i]) / p if p > 0 else math.inf,
                witten_measured=wm, witten_ratio=wm / float(gaps[i]),
            ))

    fit = fit_rate(h, measured[2], residuals[2])
    pred2 = predict(labeling, 2, dimension)
    s_fit = -fit.slope / 2.0
    rel = abs(s_fit - pred2.S) / pred2.S
    pref_theory = pred2.mu * math.sqrt(abs(pred2.det_min / pred2.det_saddle)) \
        / ((2 * dimension + 4) * math.pi)
    pref_ratio = fit.prefactor_estimate / pref_theory

    wmed = float(np.median([witten_measured[2][i] / measured[2][i]
                            for i in fit.window]))

    in_band = []
    for i in fit.window:
        p = pred2.gap(h[i])
        in_band.append(PREFACTOR_BAND[0] <= measured[2][i] / p <= PREFACTOR_BAND[1])
    passed = rel <= RATE_TOLERANCE and all(in_band)
    return ComparisonReport(
        rows=tuple(rows), fit=fit, S_fit=s_fit, S_theory=pred2.S,
        rel_err=rel, prefactor_ratio=pref_ratio, witten_ratio_median=wmed,
        passed=passed,
        tolerances={"rate_rel_err": RATE_TOLERANCE,
                    "prefactor_band": list(PREFACTOR_BAND)},
    )
