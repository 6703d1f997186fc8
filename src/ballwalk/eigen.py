"""Low-lying spectra of the grid operators and the split after their cluster.

The exponentially small eigenvalues are computed from the generator
(where they sit at the bottom and are resolvable in absolute precision),
never from the transition operator near 1 where they would drown in
rounding.  The solver depends on the kind of the operator alone:

- walk generators (WALK_P): ARPACK's implicitly restarted Lanczos
  (scipy's ``eigsh``; Lehoucq and Sorensen, SIAM J. Matrix Anal. Appl. 17,
  1996), which reorthogonalizes fully.  That is not optional here: the
  spectrum splits into clusters separated by ten or more orders of
  magnitude, and selective schemes lose the tiny cluster.  A rank-one term
  moves the exact kernel vector above the wanted end;
- Gram Laplacians (WITTEN0), in every dimension: the same ARPACK run on
  the inverse of A - sigma I for a fixed sigma < 0 (the spectral
  transformation of Ericsson and Ruhe, Math. Comp. 35, 1980), with one
  sparse LU factor of the (2d+1)-point matrix, applied between two
  projections off the kernel.  The wanted eigenvalues become the largest
  of the inverse and converge in a few dozen solves; each is reported as
  the Rayleigh quotient of its Ritz vector on A.

Each path uses a fixed number of Lanczos vectors (``ncv``), chosen by
measurement.  On both paths the exact kernel pair is prepended and every
residual is computed explicitly on the operator.

The exponentially small cluster has exactly n0 eigenvalues, one per well
of the landscape, and the rest of the spectrum lies O(h) above it.  So the
cluster is counted, not searched for: ``classify_spectrum`` reports the
split after the n0-th eigenvalue, whatever its ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gridop
from .gridop import WALK_P, WITTEN0, GridOperator

# solver defaults: residual tolerance and budget of Krylov applies
TOL = 1e-11
MAX_ITER = 20000
# Philox key of every start vector and of ARPACK's restarts, so repeats of a
# solve are identical
SEED = 20177
# shift of the inverted Gram Laplacian, in units of h: far enough below the
# kernel to keep A - sigma I well conditioned, close enough that the
# exponentially small eigenvalues stay well apart from the O(h) remainder
SHIFT_OVER_H = -0.07
EIG_FLOOR = 100 * np.finfo(float).eps
# Lanczos vectors ARPACK keeps on each Krylov path (raised to 2 count - 1
# when more pairs are wanted)
WALK_NCV = 20
WITTEN_NCV = 13
# where the rank-one term puts the walk generator's kernel: at the top of
# its spectrum [0, 2], above every wanted eigenvalue
KERNEL_SHIFT = 2.0


class NoConvergence(RuntimeError):
    """A Krylov solve exceeded its apply budget, or ARPACK failed."""


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple[float, ...]          # kernel first, then ascending
    residual_norms: tuple[float, ...]
    solver: str                             # LANCZOS | SHIFT_INVERT
    iterations: int                         # Krylov applies: matvecs or solves
    tol: float                              # residual tolerance of the solve
    vectors: np.ndarray | None = None       # columns, aligned with eigenvalues
    shift: float | None = None              # SHIFT_INVERT: sigma of A - sigma I
    factor_nnz: int | None = None           # SHIFT_INVERT: entries of L and U


@dataclass(frozen=True)
class ClusterReport:
    next_eigenvalue: float                  # the first above the cluster
    split_ratio: float
    remainder_over_h: float                 # next_eigenvalue / h


# --- solvers -------------------------------------------------------------------


def smallest_eigs(op: GridOperator, count: int, tol: float = TOL,
                  max_iter: int = MAX_ITER) -> SpectralResult:
    """Lowest eigenvalues of a WALK_P or WITTEN0 operator.

    ARPACK's Lanczos on a walk generator, shift-invert Lanczos on a Gram
    Laplacian.  A solve makes at most ``max_iter`` operator applies.
    Residual norms are always computed explicitly on the operator itself.
    """
    if op.kind not in (WALK_P, WITTEN0):
        raise ValueError(f"spectrum of kind {op.kind} is not supported")
    if count > 20:
        raise ValueError("count must be at most 20")
    if count >= op.n:
        raise ValueError("count must be smaller than the matrix size")
    if op.kind == WALK_P:
        return _lanczos_path(op, count, tol, max_iter)
    return _shift_invert_path(op, count, tol, max_iter)


def _start_vector(n: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=SEED))
    return gen.standard_normal(n)


def _lanczos_path(op: GridOperator, count: int, tol: float,
                  max_iter: int) -> SpectralResult:
    """ARPACK's Lanczos on A + c k k^T, which moves the exact kernel k to c.

    ARPACK stops once ||r|| <= tol max(eps^(2/3), |theta|), which implies
    ||r|| <= tol (1 + |lambda|).  The stricter test is relied on: it
    bounds each residual by tol |lambda| plus rounding, so the
    exponentially small pairs end at the rounding floor (about 1e-15),
    within the 1% of the gap that the rate fit admits down to h = 0.06 in
    1D, where the gap is 7e-13.  Run on A + I, ARPACK would bound each
    residual by tol alone.
    """
    kernel = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)

    def apply(u):
        w = op.matvec(u)
        w += (KERNEL_SHIFT * (kernel @ u)) * kernel
        return w

    theta, vecs, applies = _eigsh(apply, op.n, count, WALK_NCV, "SA", tol,
                                  max_iter, "LANCZOS")
    return _ritz_result(op, kernel, vecs, theta, "LANCZOS", tol, applies)


def _shift_invert_path(op: GridOperator, count: int, tol: float,
                       max_iter: int) -> SpectralResult:
    """ARPACK's Lanczos on (A - shift I)^-1 off the kernel.

    A Ritz value theta of the inverse gives shift + 1/theta, and the
    residual on A of its Ritz pair is at most ||A - shift I|| ||r|| / theta
    for the Krylov residual r; ARPACK's test ||r|| <= tol' theta with
    tol' = tol / ||A - shift I|| keeps that within tol (1 + |lambda|).  The
    reported eigenvalue is the Rayleigh quotient of the Ritz vector on A:
    shift + 1/theta carries the solves' rounding, about eps ||A - shift I||,
    which on 1D grids is a large part of the exponentially small gaps.
    """
    # scipy.sparse.linalg loads only when a factorization runs
    import scipy.sparse.linalg

    shift = SHIFT_OVER_H * op.h
    m = gridop.witten_matrix(op, shift)
    # Gershgorin bound on ||A - shift I|| (symmetric: column sums = row sums)
    norm_m = float(np.max(np.add.reduceat(np.abs(m.data), m.indptr[:-1])))
    # A - shift I is SPD, so no pivoting is needed and the minimum-degree
    # order of its pattern keeps the fill low; a panel of one column avoids
    # SuperLU's panel work arrays
    lu = scipy.sparse.linalg.splu(
        m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=1,
        options={"SymmetricMode": True})
    del m
    kernel = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)

    def apply(u):
        # the kernel's 1/|shift| would be the largest eigenvalue: project
        # it out on both sides
        w = lu.solve(u - (kernel @ u) * kernel)
        w -= (kernel @ w) * kernel
        return w

    _, vecs, applies = _eigsh(apply, op.n, count, WITTEN_NCV, "LA",
                              tol / norm_m, max_iter, "SHIFT_INVERT")
    factor_nnz = int(lu.nnz)
    del lu          # the residuals below need only A
    return _ritz_result(op, kernel, vecs, None, "SHIFT_INVERT", tol,
                        applies, shift=shift, factor_nnz=factor_nnz)


def _eigsh(apply, n: int, count: int, ncv: int, which: str, tol: float,
           max_iter: int, solver: str):
    """``count - 1`` extreme pairs of ``apply`` by ARPACK, and its applies.

    At most ``max_iter`` applies are made; a run that needs more, or that
    ARPACK reports as failed, raises NoConvergence.
    """
    # scipy.sparse.linalg loads only when a Krylov solve runs
    import scipy.sparse.linalg as sla

    applies = 0

    def counted(u):
        nonlocal applies
        if applies == max_iter:
            raise NoConvergence(f"{solver.lower()} did not converge in "
                                f"{max_iter} operator applies")
        applies += 1
        return apply(u)

    k = count - 1           # the kernel pair is prepended afterwards
    try:
        # rng seeds ARPACK's fresh start after a breakdown, so repeats of a
        # solve stay identical; each ARPACK iteration applies at least once,
        # so the apply budget binds before maxiter does
        theta, vecs = sla.eigsh(
            sla.LinearOperator((n, n), matvec=counted, dtype=float), k=k,
            which=which, v0=_start_vector(n), tol=tol, rng=SEED,
            ncv=min(n, max(ncv, 2 * k + 1)), maxiter=max_iter)
    except (sla.ArpackError, sla.ArpackNoConvergence) as exc:
        raise NoConvergence(f"{solver.lower()}: {exc}") from exc
    return theta, vecs, applies


def _ritz_result(op: GridOperator, kernel: np.ndarray, ritz: np.ndarray,
                 lam: np.ndarray | None, solver: str, tol: float,
                 iterations: int, **fields) -> SpectralResult:
    """The unit ``kernel`` pair plus the Ritz pairs, residuals taken on ``op``.

    ``lam`` holds the Ritz eigenvalues; if it is None, each is the Rayleigh
    quotient of its Ritz vector on ``op``.  The kernel pair comes first by
    construction and the Ritz pairs follow in ascending order: the kernel's
    computed value is rounding noise, which can exceed an exponentially
    small gap.
    """
    vecs = np.column_stack([kernel, ritz])
    vals = np.empty(vecs.shape[1])
    res = np.empty(vals.size)
    ak = op.matvec(kernel)
    vals[0] = kernel @ ak
    res[0] = np.linalg.norm(ak - vals[0] * kernel)
    for i in range(1, vals.size):
        x = vecs[:, i]
        ax = op.matvec(x)
        vals[i] = x @ ax if lam is None else lam[i - 1]
        res[i] = np.linalg.norm(ax - vals[i] * x)
    order = np.concatenate([[0], 1 + np.argsort(vals[1:])])
    return SpectralResult(
        eigenvalues=tuple(float(vals[i]) for i in order),
        residual_norms=tuple(float(res[i]) for i in order),
        solver=solver, iterations=iterations, tol=tol,
        vectors=vecs[:, order], **fields)


# --- cluster classification ----------------------------------------------------


def classify_spectrum(res: SpectralResult, h: float, n0: int) -> ClusterReport:
    """The split between the ``n0`` smallest eigenvalues and the rest.

    ``n0`` is the number of wells.  The split's ratio, with the lower value
    clamped at the solver floor, is reported and not judged: a small one
    says that h is too large for the cluster to stand apart.
    """
    lam = res.eigenvalues
    if not 1 <= n0 < len(lam):
        raise ValueError(f"n0 = {n0} is not in 1..{len(lam) - 1}")
    nxt = lam[n0]
    return ClusterReport(
        next_eigenvalue=nxt,
        split_ratio=float(nxt / max(lam[n0 - 1], EIG_FLOOR)),
        remainder_over_h=nxt / h,
    )
