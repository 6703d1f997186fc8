"""Analytic Morse potentials with exact derivatives.

Every potential used by the lab is either a named builtin or an explicit
polynomial in d = 1 or 2 variables.  Evaluation, gradient and Hessian are
exact analytic formulas (no numerical differentiation anywhere in the hot
path): Hessian determinants enter the rate predictions multiplicatively,
so derivative noise would pollute the prefactor checks downstream.

Each builtin is written once, as one evaluator that returns any of value,
gradient and Hessian and shares their subexpressions; a polynomial is
evaluated by one rule for the derivative of a monomial by a multi-index.
``value``, ``gradient``, ``value_and_gradient`` and ``hessian`` all go
through that one evaluator, so the parts they return agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# smallest |Hessian eigenvalue| of a critical point, and smallest gap between
# two barrier values, that count as nondegenerate
MORSE_TOLERANCE = 1e-8
GENERIC_TOLERANCE = 1e-6
# lattice points per box axis of the Lipschitz scale max |grad phi|
LIPSCHITZ_POINTS = 200


class DimensionMismatch(ValueError):
    """Point dimension does not match the potential's dimension."""


class NonFiniteValues(ValueError):
    """The potential is not finite at some cell of a grid on its box."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, one (lo, hi) pair per dimension."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi length mismatch")
        if any(not (l < u) for l, u in zip(self.lo, self.hi)):
            raise ValueError("degenerate box")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.hi, float) - np.asarray(self.lo, float)

    def contains(self, x) -> bool:
        x = np.asarray(x, float).reshape(-1)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    @staticmethod
    def from_pairs(pairs) -> "Box":
        pairs = [(float(a), float(b)) for a, b in pairs]
        return Box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


# --- builtin catalogue -------------------------------------------------------

# three_well parameters were calibrated on the [-2.4, 2.4]^2 box so that the
# three Gaussian wells have distinct depths, the paired barrier values
# (about 1.06 and 0.61) clear the spectral-cluster detector at the 2D sweep
# scales, and the quartic confinement keeps the walk's boundary_mass (its
# stationary mass within one jump of the box edge) negligible.
_THREE_WELL = {
    "centers": ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.45)),
    "depths": (1.6, 1.3, 1.05),
    "sigma2": 0.32,          # 2*sigma^2 of each Gaussian
    "confine": 0.06,         # coefficient of x^4 + y^4
}


# Each builtin is one function f(pts, params, want) of the (N, d) points.
# ``want`` names the parts to return, a subsequence of "vgh" (value,
# gradient, Hessian); they come back in that order as arrays of shape (N,),
# (N, d) and (N, d, d).  Parts asked for together share their
# subexpressions, and a part not asked for is not computed.  The 1D value
# alone stays one expression, so numpy reuses its temporaries in place.


def _pick(want, *parts):
    """Call the thunks of the parts named in ``want``, in "vgh" order."""
    return tuple(part() for key, part in zip("vgh", parts) if key in want)


def _double_well_tilted(pts, params, want):
    t = float(params[0]) if params else 0.3
    x = pts[:, 0]
    if want == "v":
        return ((x * x - 1.0) ** 2 + t * x,)
    q = x * x - 1.0
    return _pick(want, lambda: q ** 2 + t * x,
                 lambda: (4.0 * x * q + t)[:, None],
                 lambda: (12.0 * x * x - 4.0)[:, None, None])


def _single_well(pts, params, want):
    x = pts[:, 0]
    return _pick(want, lambda: x * x, lambda: 2.0 * pts[:, 0:1],
                 lambda: np.full((pts.shape[0], 1, 1), 2.0))


def _three_well(pts, params, want):
    p = _THREE_WELL
    c, s2 = p["confine"], p["sigma2"]
    x, y = pts[:, 0], pts[:, 1]
    # products, not powers: x ** 4 calls libm pow, about 10 times slower
    xx, yy = x * x, y * y
    if "v" in want:
        v = c * (xx * xx + yy * yy)
    if "g" in want:
        gx, gy = 4.0 * c * (xx * x), 4.0 * c * (yy * y)
    if "h" in want:
        hxx, hyy = 12.0 * c * xx, 12.0 * c * yy
        hxy = np.zeros_like(x)
    for (cx, cy), a in zip(p["centers"], p["depths"]):
        dx, dy = x - cx, y - cy
        e = a * np.exp(-(dx ** 2 + dy ** 2) / s2)
        if "v" in want:
            v = v - e
        if "g" in want:
            gx, gy = gx + e * 2.0 * dx / s2, gy + e * 2.0 * dy / s2
        if "h" in want:
            hxx = hxx + e * (2.0 / s2 - 4.0 * dx * dx / (s2 * s2))
            hyy = hyy + e * (2.0 / s2 - 4.0 * dy * dy / (s2 * s2))
            hxy = hxy - e * 4.0 * dx * dy / (s2 * s2)
    return _pick(want, lambda: v, lambda: np.stack([gx, gy], axis=1),
                 lambda: np.stack([hxx, hxy, hxy, hyy], 1).reshape(-1, 2, 2))


# name -> (dimension, evaluator)
_BUILTINS = {
    "double_well_tilted": (1, _double_well_tilted),
    # the tilted evaluator at tilt 0, whatever the params: bit for bit the
    # untilted formulas, but for the sign of a zero gradient
    "double_well": (1, lambda pts, params, want:
                    _double_well_tilted(pts, (0.0,), want)),
    "single_well": (1, _single_well),
    "three_well": (2, _three_well),
}


def _monomial_derivative(pts, expo, c, alpha):
    """d^alpha (c x^expo) at the rows of pts, or None where it vanishes.

    The coefficient c e (e - 1) ... is formed left to right over the
    dimensions, then each remaining power multiplies in turn; value,
    gradient and Hessian all round in this one order.
    """
    coef = c
    for e, a in zip(expo, alpha):
        if a > e:
            return None
        for i in range(a):
            coef = coef * (e - i)
    term = np.full(pts.shape[0], coef)
    for j, (e, a) in enumerate(zip(expo, alpha)):
        if e - a:
            term = term * pts[:, j] ** (e - a)
    return term


def _polynomial(pts, monomials, want):
    """The polynomial's evaluator: each entry of a part is the sum over the
    monomials, in order, of one of their derivatives."""
    n, d = pts.shape

    def part(*axes):            # the derivative once along each of axes
        alpha = tuple(axes.count(m) for m in range(d))
        out = np.zeros(n)
        for expo, c in monomials:
            term = _monomial_derivative(pts, expo, c, alpha)
            if term is not None:
                out = out + term
        return out

    def hessian():
        h = np.empty((n, d, d))
        for j in range(d):
            for k in range(j, d):
                h[:, j, k] = h[:, k, j] = part(j, k)
        return h

    return _pick(want, part,
                 lambda: np.stack([part(j) for j in range(d)], axis=1), hessian)


# --- spec --------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Morse potential: a named builtin or an explicit polynomial.

    ``monomials`` is a tuple of (exponents, coefficient) pairs where
    ``exponents`` has one nonnegative integer per dimension.  ``params``
    feeds the builtins (e.g. the tilt of the tilted double well).
    """

    dimension: int
    form: str                                   # "builtin" | "polynomial"
    name: str = ""
    monomials: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.form == "builtin":
            if self.name not in _BUILTINS:
                raise ValueError(f"unknown builtin potential {self.name!r}")
            if _BUILTINS[self.name][0] != self.dimension:
                raise DimensionMismatch(
                    f"builtin {self.name!r} is {_BUILTINS[self.name][0]}-dimensional")
        elif self.form == "polynomial":
            if not self.monomials:
                raise ValueError("polynomial potential needs monomials")
            for expo, _ in self.monomials:
                if len(expo) != self.dimension:
                    raise DimensionMismatch("monomial exponent length != dimension")
                if any(int(e) < 0 or int(e) != e for e in expo):
                    raise ValueError("monomial exponents must be nonnegative integers")
        else:
            raise ValueError(f"unknown potential form {self.form!r}")


def builtin(name: str, params=()) -> PotentialSpec:
    dim = _BUILTINS[name][0]
    return PotentialSpec(dimension=dim, form="builtin", name=name,
                         params=tuple(float(p) for p in params))


def polynomial(monomials, dimension=None) -> PotentialSpec:
    """The polynomial sum of c x^exponents over the (exponents, c) pairs."""
    if any(int(e) != e for expo, _ in monomials for e in expo):
        raise ValueError("monomial exponents must be nonnegative integers")
    mono = tuple((tuple(int(e) for e in expo), float(c)) for expo, c in monomials)
    if dimension is None:
        dimension = len(mono[0][0])
    return PotentialSpec(dimension=dimension, form="polynomial", monomials=mono)


def _as_points(spec: PotentialSpec, x):
    """Normalize input to an (N, d) array; remember if it was a single point."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite evaluation point")
    if arr.ndim == 0:
        if spec.dimension != 1:
            raise DimensionMismatch("scalar point for a multi-dimensional potential")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if arr.shape[0] != spec.dimension:
            raise DimensionMismatch(
                f"point has dimension {arr.shape[0]}, spec has {spec.dimension}")
        return arr.reshape(1, -1), True
    if arr.ndim == 2 and arr.shape[1] == spec.dimension:
        return arr, False
    raise DimensionMismatch(f"bad point array shape {arr.shape}")


def _evaluate(spec: PotentialSpec, x, want: str):
    """The parts of phi named in ``want`` at one point or a batch.

    A point gives the value as a float and the derivatives with the point
    axis dropped; a batch gives the arrays as computed.
    """
    pts, single = _as_points(spec, x)
    if spec.form == "builtin":
        parts = _BUILTINS[spec.name][1](pts, spec.params, want)
    else:
        parts = _polynomial(pts, spec.monomials, want)
    if single:
        return tuple(float(p[0]) if p.ndim == 1 else p[0] for p in parts)
    return parts


def value(spec: PotentialSpec, x):
    """Evaluate the potential at one point (d,) or a batch (N, d)."""
    return _evaluate(spec, x, "v")[0]


def gradient(spec: PotentialSpec, x):
    """Exact analytic gradient, shape (d,) for a point or (N, d) for a batch."""
    return _evaluate(spec, x, "g")[0]


def value_and_gradient(spec: PotentialSpec, x):
    """``(value(spec, x), gradient(spec, x))``, bit for bit, in one pass."""
    return _evaluate(spec, x, "vg")


def hessian(spec: PotentialSpec, x):
    """Exact analytic Hessian, symmetric, shape (d, d) or (N, d, d)."""
    return _evaluate(spec, x, "h")[0]


def max_gradient_norm(spec: PotentialSpec, box: Box) -> float:
    """Max |grad phi| over a dense lattice in the box (used as a Lipschitz scale)."""
    axes = [np.linspace(lo, hi, LIPSCHITZ_POINTS)
            for lo, hi in zip(box.lo, box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    g = gradient(spec, pts)
    return float(np.max(np.sqrt(np.sum(g * g, axis=1))))


# --- hypothesis report -------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Checks of the standing assumptions on a computational box.

    The growth of the potential at infinity cannot be certified from a
    finite box; only the gradient on a boundary shell is inspected, and the
    global growth condition remains a documented assumption.  Degeneracy
    is not flagged: critical-point detection refuses a degenerate point, so
    ``min_hessian_spectral_gap`` always exceeds MORSE_TOLERANCE.
    """

    min_hessian_spectral_gap: float
    boundary_gradient_min: float
    generic_ok: bool
    min_S_separation: float


def _boundary_shell_points(box: Box, samples_per_face: int) -> np.ndarray:
    """Sample a thin shell inside each face of the box."""
    d = box.dimension
    depth = 0.01 * float(np.min(box.extent))
    n_depth = 5
    n_tan = max(1, int(math.ceil(samples_per_face / n_depth)))
    pts = []
    for axis in range(d):
        for side in (0, 1):
            face = box.hi[axis] - depth if side else box.lo[axis]
            if d == 1:
                pts.append(np.linspace(face, face + depth, samples_per_face)[:, None])
                continue
            other = 1 - axis
            tan = np.linspace(box.lo[other], box.hi[other], n_tan)
            for o in np.linspace(0.0, depth, n_depth):
                block = np.empty((n_tan, 2))
                block[:, axis] = face + o
                block[:, other] = tan
                pts.append(block)
    return np.vstack(pts)


def check_hypotheses(spec: PotentialSpec, box: Box, labeling) -> HypothesisReport:
    """Populate a HypothesisReport for a labeled landscape.

    ``labeling`` must come from the landscape module for the same spec and
    box.  Failures are reported as flags, never raised.
    """
    d = spec.dimension
    # the paired critical points: every labeling pairs its global minimum
    crits = [c for (_, m, s, _) in labeling.pairs for c in (m, s)
             if c is not None]
    min_gap = min(min(abs(e) for e in c.hessian_eigs) for c in crits)

    shell = _boundary_shell_points(box, samples_per_face=100 * d)
    g = gradient(spec, shell)
    boundary_gradient_min = float(np.min(np.sqrt(np.sum(g * g, axis=1))))

    finite_S = [S for (_, _, _, S) in labeling.pairs if math.isfinite(S)]
    if len(finite_S) >= 2:
        finite_S = sorted(finite_S)
        min_sep = min(b - a for a, b in zip(finite_S, finite_S[1:]))
    else:
        min_sep = math.inf
    generic_ok = min_sep > GENERIC_TOLERANCE

    return HypothesisReport(
        min_hessian_spectral_gap=float(min_gap),
        boundary_gradient_min=boundary_gradient_min,
        generic_ok=generic_ok,
        min_S_separation=float(min_sep),
    )
