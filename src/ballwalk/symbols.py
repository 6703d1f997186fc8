"""Scalar symbol data of the ball walk: multipliers, amplitudes, expansions.

The walk averages over a ball of radius h, so its Fourier side is governed
by the multiplier

    M(xi) = mean over the unit ball of exp(i z . xi),

a radial function: sin(r)/r in 1D and 2 J1(r)/r in 2D.  Its imaginary-
frequency counterpart  W(tau) = mean of exp(-z . tau)  (>= 1, increasing in
|tau|) controls the symmetrization amplitude of the walk and the principal
symbol of the generator.  Everything here is pure and pointwise; the
operator assembly never calls into this module, which exists for
predictions, diagnostics and cross-checks.  The 2D closed forms use the
Bessel functions J1 and I1 of ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import potentials
from .potentials import PotentialSpec


class QuadratureOverflow(RuntimeError):
    """Exponent too large for the amplitude quadrature (h too small locally)."""


def ball_volume(dim: int) -> float:
    """Volume of the unit ball: 2 (d=1) or pi (d=2)."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    raise ValueError("dimension must be 1 or 2")


def quadratic_coefficient(dim: int) -> float:
    """Coefficient of |xi|^2 in 1 - M(xi) near 0: 1/(2d+4)."""
    return 1.0 / (2 * dim + 4)


@dataclass(frozen=True)
class SymbolParams:
    dimension: int
    h: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not (0.0 < self.h <= 1.0):
            raise ValueError("h must lie in (0, 1]")

    @property
    def ball_volume(self) -> float:
        return ball_volume(self.dimension)

    @property
    def quadratic_coefficient(self) -> float:
        return quadratic_coefficient(self.dimension)


# --- multipliers --------------------------------------------------------------


def multiplier(dim: int, xi) -> np.ndarray:
    """Ball-average Fourier multiplier M(xi); radial, real, M(0) = 1.

    Accepts |xi| as scalars/arrays, or points of shape (..., dim).
    """
    r, single = _radial(dim, xi)
    out = np.empty_like(r)
    small = r < 1e-4
    rs = r[small]
    rb = r[~small]
    if dim == 1:
        out[small] = 1.0 - rs * rs / 6.0 + rs ** 4 / 120.0
        out[~small] = np.sin(rb) / rb
    else:
        out[small] = 1.0 - rs * rs / 8.0 + rs ** 4 / 192.0
        out[~small] = 2.0 * special.j1(rb) / rb
    return float(out[0]) if single else out


def multiplier_imag(dim: int, tau) -> np.ndarray:
    """The multiplier at imaginary frequency: mean of exp(-z . tau) over the ball.

    Radial and >= 1, strictly increasing in |tau|; equals sinh(r)/r in 1D and
    2 I1(r)/r in 2D.
    """
    r, single = _radial(dim, tau)
    out = np.empty_like(r)
    small = r < 1e-4
    rs = r[small]
    rb = r[~small]
    if dim == 1:
        out[small] = 1.0 + rs * rs / 6.0 + rs ** 4 / 120.0
        out[~small] = np.sinh(rb) / rb
    else:
        out[small] = 1.0 + rs * rs / 8.0 + rs ** 4 / 192.0
        out[~small] = 2.0 * special.i1(rb) / rb
    return float(out[0]) if single else out


def _radial(dim: int, x):
    """Reduce frequency arguments to radii; returns (radii, was_single)."""
    arr = np.asarray(x, float)
    if arr.ndim and arr.shape[-1] == dim and dim > 1:
        r = np.sqrt(np.sum(arr * arr, axis=-1))
    else:
        r = np.abs(arr)
    single = r.ndim == 0
    return np.atleast_1d(r), single


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def _unit_ball_nodes(dim: int):
    """Fixed quadrature rule for means over the unit ball.

    1D: 64 Gauss-Legendre nodes on [-1, 1].  2D: 48 radial GL nodes times
    48 equispaced angles (polar decomposition).  Weights sum to 1 (the rule
    computes ball means, not integrals).
    """
    if dim == 1:
        t, w = _gauss_legendre_01(64)
        z = (2.0 * t - 1.0)[:, None]
        return z, w
    t, w = _gauss_legendre_01(48)
    ang = 2.0 * math.pi * np.arange(48) / 48.0
    rho = t
    zx = np.outer(rho, np.cos(ang)).ravel()
    zy = np.outer(rho, np.sin(ang)).ravel()
    # mean over disk: (1/pi) * int rho drho dtheta -> weights 2*rho*w / n_ang
    ww = np.repeat(2.0 * rho * w, 48) / 48.0
    return np.stack([zx, zy], axis=1), ww


def amplitude(spec: PotentialSpec, params: SymbolParams, x) -> float:
    """Symmetrization amplitude of the walk at x.

    Computed as the inverse square root of the ball mean of
    exp((phi(x) - phi(x + z)) / h) over |z| < h, by the fixed tensor rule.
    The exponent is re-centered at the ball minimum of phi before
    exponentiating, so the quadrature never overflows; if the re-centering
    offset itself exceeds 700 the parameters are rejected.
    """
    x = np.asarray(x, float).reshape(-1)
    z, w = _unit_ball_nodes(spec.dimension)
    pts = x[None, :] + params.h * z
    vals = potentials.value(spec, pts)
    vmin = float(np.min(vals))
    offset = (float(potentials.value(spec, x)) - vmin) / params.h
    if offset > 700.0:
        raise QuadratureOverflow(
            f"amplitude exponent {offset:.1f} exceeds 700; h too small for "
            f"the local Lipschitz constant")
    mean = float(np.sum(w * np.exp((vmin - vals) / params.h)))
    log_inv_sq = offset + math.log(mean)
    return math.exp(-0.5 * log_inv_sq)


def amplitude_leading(spec: PotentialSpec, x) -> float:
    """h -> 0 limit of the amplitude: W(|grad phi|)^(-1/2)."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    return float(multiplier_imag(spec.dimension, r)) ** -0.5


def _hessian_ball_mean(spec: PotentialSpec, x) -> float:
    """Ball mean of exp(-grad phi . z) <Hess phi z, z> over the unit ball."""
    x = np.asarray(x, float).reshape(-1)
    z, w = _unit_ball_nodes(spec.dimension)
    g = np.atleast_1d(potentials.gradient(spec, x))
    hess = np.atleast_2d(potentials.hessian(spec, x))
    quad = np.einsum("ni,ij,nj->n", z, hess, z)
    return float(np.sum(w * np.exp(-z @ g) * quad))


def amplitude_correction(spec: PotentialSpec, x) -> float:
    """First h-correction of the amplitude (the coefficient of h)."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    w = float(multiplier_imag(spec.dimension, r))
    return w ** -1.5 * 0.25 * _hessian_ball_mean(spec, x)


def curvature_factor(spec: PotentialSpec, x) -> float:
    """Subprincipal spatial factor; equals -(2d+4)^(-1) * laplacian at critical points."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    w = float(multiplier_imag(spec.dimension, r))
    return -(w ** -2.0) * 0.5 * _hessian_ball_mean(spec, x)


def symbol_principal(spec: PotentialSpec, x, xi) -> float:
    """Principal symbol of the generator: 1 - W(|grad phi|)^(-1) M(xi); >= 0."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    w = float(multiplier_imag(spec.dimension, r))
    m = float(multiplier(spec.dimension, np.asarray(xi, float)))
    return 1.0 - m / w


def symbol_subprincipal(spec: PotentialSpec, x, xi) -> float:
    """Order-h symbol term: curvature factor times the multiplier."""
    m = float(multiplier(spec.dimension, np.asarray(xi, float)))
    return curvature_factor(spec, x) * m
