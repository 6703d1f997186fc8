"""Analytic Morse potentials with exact derivatives.

Every potential used by the lab is either a named builtin or an explicit
polynomial in d = 1 or 2 variables.  Evaluation, gradient and Hessian are
exact analytic formulas (no numerical differentiation anywhere in the hot
path): Hessian determinants enter the rate predictions multiplicatively,
so derivative noise would pollute the prefactor checks downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MORSE_TOLERANCE = 1e-8
GENERIC_TOLERANCE = 1e-6


class DimensionMismatch(ValueError):
    """Point dimension does not match the potential's dimension."""


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
# scales, and the quartic confinement pushes the boundary Gibbs mass below
# the operator module's guard.
_THREE_WELL = {
    "centers": ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.45)),
    "depths": (1.6, 1.3, 1.05),
    "sigma2": 0.32,          # 2*sigma^2 of each Gaussian
    "confine": 0.06,         # coefficient of x^4 + y^4
}


def _dwt_params(params):
    tilt = params[0] if params else 0.3
    return float(tilt)


def _builtin_table():
    # dimension, value, gradient, Hessian, and value with gradient in one pass
    return {
        "double_well_tilted": (1, _dwt_value, _dwt_grad, _dwt_hess,
                               _dwt_value_grad),
        "double_well": (1, _dw_value, _dw_grad, _dw_hess, _dw_value_grad),
        "single_well": (1, _sw_value, _sw_grad, _sw_hess, _sw_value_grad),
        "three_well": (2, _tw_value, _tw_grad, _tw_hess, _tw_value_grad),
    }


def _dwt_value(pts, params):
    t = _dwt_params(params)
    x = pts[:, 0]
    return (x * x - 1.0) ** 2 + t * x


def _dwt_grad(pts, params):
    t = _dwt_params(params)
    x = pts[:, 0]
    return (4.0 * x * (x * x - 1.0) + t)[:, None]


def _dwt_value_grad(pts, params):
    t = _dwt_params(params)
    x = pts[:, 0]
    q = x * x - 1.0
    return q ** 2 + t * x, (4.0 * x * q + t)[:, None]


def _dwt_hess(pts, params):
    x = pts[:, 0]
    return (12.0 * x * x - 4.0)[:, None, None]


def _dw_value(pts, params):
    x = pts[:, 0]
    return (x * x - 1.0) ** 2


def _dw_grad(pts, params):
    x = pts[:, 0]
    return (4.0 * x * (x * x - 1.0))[:, None]


def _dw_value_grad(pts, params):
    x = pts[:, 0]
    q = x * x - 1.0
    return q ** 2, (4.0 * x * q)[:, None]


def _dw_hess(pts, params):
    x = pts[:, 0]
    return (12.0 * x * x - 4.0)[:, None, None]


def _sw_value(pts, params):
    x = pts[:, 0]
    return x * x


def _sw_grad(pts, params):
    return 2.0 * pts[:, 0:1]


def _sw_value_grad(pts, params):
    return _sw_value(pts, params), _sw_grad(pts, params)


def _sw_hess(pts, params):
    return np.full((pts.shape[0], 1, 1), 2.0)


def _tw_value(pts, params):
    p = _THREE_WELL
    x, y = pts[:, 0], pts[:, 1]
    out = p["confine"] * (x ** 4 + y ** 4)
    for (cx, cy), a in zip(p["centers"], p["depths"]):
        out = out - a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / p["sigma2"])
    return out


def _tw_grad(pts, params):
    p = _THREE_WELL
    x, y = pts[:, 0], pts[:, 1]
    gx = 4.0 * p["confine"] * x ** 3
    gy = 4.0 * p["confine"] * y ** 3
    for (cx, cy), a in zip(p["centers"], p["depths"]):
        e = a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / p["sigma2"])
        gx = gx + e * 2.0 * (x - cx) / p["sigma2"]
        gy = gy + e * 2.0 * (y - cy) / p["sigma2"]
    return np.stack([gx, gy], axis=1)


def _tw_value_grad(pts, params):
    p = _THREE_WELL
    s2 = p["sigma2"]
    x, y = pts[:, 0], pts[:, 1]
    out = p["confine"] * (x ** 4 + y ** 4)
    gx = 4.0 * p["confine"] * x ** 3
    gy = 4.0 * p["confine"] * y ** 3
    for (cx, cy), a in zip(p["centers"], p["depths"]):
        dx, dy = x - cx, y - cy
        e = a * np.exp(-(dx ** 2 + dy ** 2) / s2)
        out = out - e
        gx = gx + e * 2.0 * dx / s2
        gy = gy + e * 2.0 * dy / s2
    return out, np.stack([gx, gy], axis=1)


def _tw_hess(pts, params):
    p = _THREE_WELL
    s2 = p["sigma2"]
    x, y = pts[:, 0], pts[:, 1]
    hxx = 12.0 * p["confine"] * x ** 2
    hyy = 12.0 * p["confine"] * y ** 2
    hxy = np.zeros_like(x)
    for (cx, cy), a in zip(p["centers"], p["depths"]):
        dx, dy = x - cx, y - cy
        e = a * np.exp(-(dx * dx + dy * dy) / s2)
        hxx = hxx + e * (2.0 / s2 - 4.0 * dx * dx / (s2 * s2))
        hyy = hyy + e * (2.0 / s2 - 4.0 * dy * dy / (s2 * s2))
        hxy = hxy - e * 4.0 * dx * dy / (s2 * s2)
    h = np.empty((pts.shape[0], 2, 2))
    h[:, 0, 0] = hxx
    h[:, 1, 1] = hyy
    h[:, 0, 1] = hxy
    h[:, 1, 0] = hxy
    return h


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
            table = _builtin_table()
            if self.name not in table:
                raise ValueError(f"unknown builtin potential {self.name!r}")
            if table[self.name][0] != self.dimension:
                raise DimensionMismatch(
                    f"builtin {self.name!r} is {table[self.name][0]}-dimensional")
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
    dim = _builtin_table()[name][0]
    return PotentialSpec(dimension=dim, form="builtin", name=name,
                         params=tuple(float(p) for p in params))


def polynomial(monomials, dimension=None) -> PotentialSpec:
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


def value(spec: PotentialSpec, x):
    """Evaluate the potential at one point (d,) or a batch (N, d)."""
    pts, single = _as_points(spec, x)
    if spec.form == "builtin":
        out = _builtin_table()[spec.name][1](pts, spec.params)
    else:
        out = np.zeros(pts.shape[0])
        for expo, c in spec.monomials:
            term = np.full(pts.shape[0], c)
            for j, e in enumerate(expo):
                if e:
                    term = term * pts[:, j] ** e
            out = out + term
    return float(out[0]) if single else out


def gradient(spec: PotentialSpec, x):
    """Exact analytic gradient, shape (d,) for a point or (N, d) for a batch."""
    pts, single = _as_points(spec, x)
    if spec.form == "builtin":
        out = _builtin_table()[spec.name][2](pts, spec.params)
    else:
        out = np.zeros_like(pts)
        for expo, c in spec.monomials:
            for j, e in enumerate(expo):
                if e == 0:
                    continue
                term = np.full(pts.shape[0], c * e)
                for k, ek in enumerate(expo):
                    p = ek - 1 if k == j else ek
                    if p:
                        term = term * pts[:, k] ** p
                out[:, j] += term
    return out[0] if single else out


def value_and_gradient(spec: PotentialSpec, x):
    """``(value(spec, x), gradient(spec, x))``, bit for bit, in one pass.

    The builtins share their common subexpressions between the two;
    polynomials evaluate them separately.
    """
    pts, single = _as_points(spec, x)
    if spec.form != "builtin":
        return value(spec, x), gradient(spec, x)
    val, grad = _builtin_table()[spec.name][4](pts, spec.params)
    return (float(val[0]), grad[0]) if single else (val, grad)


def hessian(spec: PotentialSpec, x):
    """Exact analytic Hessian, symmetric, shape (d, d) or (N, d, d)."""
    pts, single = _as_points(spec, x)
    if spec.form == "builtin":
        out = _builtin_table()[spec.name][3](pts, spec.params)
    else:
        d = spec.dimension
        out = np.zeros((pts.shape[0], d, d))
        for expo, c in spec.monomials:
            for j in range(d):
                for k in range(j, d):
                    if j == k:
                        e = expo[j]
                        if e < 2:
                            continue
                        coef = c * e * (e - 1)
                    else:
                        if expo[j] == 0 or expo[k] == 0:
                            continue
                        coef = c * expo[j] * expo[k]
                    term = np.full(pts.shape[0], coef)
                    for m, em in enumerate(expo):
                        p = em
                        if m == j:
                            p -= 1
                        if m == k:
                            p -= 1
                        if p:
                            term = term * pts[:, m] ** p
                    out[:, j, k] += term
                    if k != j:
                        out[:, k, j] += term
    return out[0] if single else out


def laplacian(spec: PotentialSpec, x):
    h = hessian(spec, x)
    return np.trace(h, axis1=-2, axis2=-1)


def max_gradient_norm(spec: PotentialSpec, box: Box, n_per_axis: int = 400) -> float:
    """Max |grad phi| over a dense lattice in the box (used as a Lipschitz scale)."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in zip(box.lo, box.hi)]
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
    global growth condition remains a documented assumption.
    """

    morse_ok: bool
    min_hessian_spectral_gap: float
    boundary_gradient_min: float
    generic_ok: bool
    min_S_separation: float
    morse_tolerance: float = MORSE_TOLERANCE
    generic_tolerance: float = GENERIC_TOLERANCE


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


def check_hypotheses(spec: PotentialSpec, box: Box, labeling,
                     morse_tolerance: float = MORSE_TOLERANCE,
                     generic_tolerance: float = GENERIC_TOLERANCE) -> HypothesisReport:
    """Populate a HypothesisReport for a labeled landscape.

    ``labeling`` must come from the landscape module for the same spec and
    box.  Failures are reported as flags, never raised.
    """
    d = spec.dimension
    crits = list(labeling.minima) + [s for s in labeling.saddles if s is not None]
    if crits:
        min_gap = min(min(abs(e) for e in c.hessian_eigs) for c in crits)
    else:
        min_gap = math.inf
    morse_ok = min_gap > morse_tolerance

    shell = _boundary_shell_points(box, samples_per_face=100 * d)
    g = gradient(spec, shell)
    boundary_gradient_min = float(np.min(np.sqrt(np.sum(g * g, axis=1))))

    finite_S = [S for (_, _, _, S) in labeling.pairs if math.isfinite(S)]
    if len(finite_S) >= 2:
        finite_S = sorted(finite_S)
        min_sep = min(b - a for a, b in zip(finite_S, finite_S[1:]))
    else:
        min_sep = math.inf
    generic_ok = min_sep > generic_tolerance

    return HypothesisReport(
        morse_ok=morse_ok,
        min_hessian_spectral_gap=float(min_gap),
        boundary_gradient_min=boundary_gradient_min,
        generic_ok=generic_ok,
        min_S_separation=float(min_sep),
        morse_tolerance=morse_tolerance,
        generic_tolerance=generic_tolerance,
    )
