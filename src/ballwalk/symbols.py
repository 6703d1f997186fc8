"""Scalar symbol data of the ball walk: multipliers and the principal symbol.

The walk averages over a ball of radius h, so its Fourier side is governed
by the multiplier

    M(xi) = mean over the unit ball of exp(i z . xi),

a radial function: sin(r)/r in 1D and 2 J1(r)/r in 2D.  Its imaginary-
frequency counterpart  W(tau) = mean of exp(-z . tau)  (>= 1, increasing in
|tau|) controls the symmetrization amplitude of the walk and the principal
symbol of the generator.  Everything here is pure and pointwise; the
operator assembly never calls into this module, which exists for the
``selfcheck`` command and cross-checks.  The 2D closed forms use the
Bessel functions J1 and I1 of ``scipy.special``, imported when a 2D value
is asked for.  The amplitude and its h-expansion, the unit ball's volume
and the coefficient 1/(2d+4) of |xi|^2 in 1 - M, which only the tests
evaluate, live in the tests' oracles.
"""

from __future__ import annotations

import numpy as np

from . import potentials
from .potentials import PotentialSpec


# --- multipliers --------------------------------------------------------------


def multiplier(dim: int, xi) -> np.ndarray:
    """Ball-average Fourier multiplier M(xi); radial, real, M(0) = 1.

    Accepts |xi| as scalars/arrays, or points of shape (..., dim).
    """
    return _ball_mean(dim, xi, imag=False)


def multiplier_imag(dim: int, tau) -> np.ndarray:
    """The multiplier at imaginary frequency: mean of exp(-z . tau) over the ball.

    Radial and >= 1, strictly increasing in |tau|; equals sinh(r)/r in 1D and
    2 I1(r)/r in 2D.
    """
    return _ball_mean(dim, tau, imag=True)


def _ball_mean(dim: int, x, imag: bool):
    """M (``imag`` False) or W (True): the series 1 -/+ r^2/c2 + r^4/c4
    below r = 1e-4, where the closed form cancels, the closed form above."""
    r, single = _radial(dim, x)
    if dim == 1:
        c2, c4, scale = 6.0, 120.0, 1.0
        closed = np.sinh if imag else np.sin
    else:
        from scipy import special

        c2, c4, scale = 8.0, 192.0, 2.0
        closed = special.i1 if imag else special.j1
    out = np.empty_like(r)
    small = r < 1e-4
    rs = r[small]
    rb = r[~small]
    out[small] = 1.0 + (1.0 if imag else -1.0) * rs * rs / c2 + rs ** 4 / c4
    out[~small] = scale * closed(rb) / rb
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


def symbol_principal(spec: PotentialSpec, x, xi):
    """Principal symbol of the generator: 1 - W(|grad phi|)^(-1) M(xi); >= 0.

    ``x`` is one point or an (N, d) batch with one frequency ``xi`` per
    point; one point gives a float.
    """
    g = potentials.gradient(spec, x)
    tau = np.abs(g[..., 0]) if spec.dimension == 1 else g
    return 1.0 - (multiplier(spec.dimension, xi)
                  / multiplier_imag(spec.dimension, tau))


