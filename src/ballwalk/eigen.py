"""Low-lying spectra of the grid operators, cluster detection, quasimodes.

The exponentially small eigenvalues are computed from the generator
(where they sit at the bottom and are resolvable in absolute precision),
never from the transition operator near 1 where they would drown in
rounding.  The solver depends on the size and the kind of the operator:

- up to ``dense_cutoff`` cells, either kind: a dense path that computes
  only the lowest ``count`` pairs by bisection and inverse iteration on a
  tridiagonal matrix, the operator itself when it is tridiagonal (every
  1D Gram Laplacian is), otherwise its Householder reduction inside
  LAPACK's ``syevr``; the top of the spectrum, which scales the residual
  tolerance, comes from a short sparse Lanczos run;
- larger walk generators (WALK_P): Lanczos with full reorthogonalization,
  deflation of the exact kernel vector, and thick restarts.  Full
  reorthogonalization is not optional here: the spectrum splits into
  clusters separated by ten or more orders of magnitude, and selective
  schemes lose the tiny cluster;
- larger Gram Laplacians (WITTEN0): the same Lanczos run on the inverse
  of A - sigma I for a fixed sigma < 0 (the spectral transformation of
  Ericsson and Ruhe, Math. Comp. 35, 1980), with one sparse LU factor of
  the (2d+1)-point matrix.  The wanted eigenvalues become the largest in
  modulus of the inverse and converge in a few dozen solves; each is
  reported as the Rayleigh quotient of its Ritz vector on A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import gridop, potentials
from .gridop import WALK_P, WITTEN0, Grid, GridOperator
from .landscape import LandscapeLabeling

# solver defaults: residual tolerance, Krylov step budget, and the largest
# operator the dense path takes
TOL = 1e-11
MAX_ITER = 20000
DENSE_CUTOFF = 3000
# shift of the inverted Gram Laplacian, in units of h: far enough below the
# kernel to keep A - sigma I well conditioned, close enough that the
# exponentially small eigenvalues stay well apart from the O(h) remainder
SHIFT_OVER_H = -0.07
EIG_FLOOR = 100 * np.finfo(float).eps
# columns per block when a thick restart rotates the Lanczos basis in place
RESTART_BLOCK = 4096


class NoConvergence(RuntimeError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class LossOfOrthogonality(RuntimeError):
    pass


class AmbiguousCluster(RuntimeError):
    """No admissible spectral split below the 0.1 h cap."""


class EmptySupport(RuntimeError):
    """A quasimode cutoff vanished everywhere (epsilon too large)."""


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple[float, ...]          # ascending, of the generator
    residual_norms: tuple[float, ...]
    solver: str                             # DENSE | LANCZOS | SHIFT_INVERT
    iterations: int                         # Krylov steps: matvecs or LU solves
    tol: float                              # effective residual tolerance
    vectors: np.ndarray | None = None       # columns, aligned with eigenvalues
    shift: float | None = None              # SHIFT_INVERT: sigma of A - sigma I
    factor_nnz: int | None = None           # SHIFT_INVERT: entries of L and U
    restarts: int = 0                       # Lanczos: thick restarts
    breakdown_retries: int = 0              # Lanczos: fresh starts at breakdown


@dataclass(frozen=True)
class ClusterReport:
    n_small: int
    cluster_threshold: float
    next_eigenvalue: float
    split_ratio: float
    remainder_over_h: float                 # next_eigenvalue / h


@dataclass(frozen=True)
class QuasimodeSet:
    vectors: np.ndarray                     # (n_cells, n0), unit columns
    epsilon: float
    gram: np.ndarray                        # vectors^T vectors
    raw_norms: tuple[float, ...]            # l2 norms before normalization


# --- solvers -------------------------------------------------------------------


def smallest_eigs(op: GridOperator, count: int, tol: float = TOL,
                  max_iter: int = MAX_ITER, dense_cutoff: int = DENSE_CUTOFF,
                  seed: int = 20177) -> SpectralResult:
    """Lowest eigenvalues of a WALK_P or WITTEN0 operator.

    Dense path for small grids (only the lowest ``count`` pairs are
    computed); above ``dense_cutoff`` deflated thick-restart Lanczos on a
    walk generator and shift-invert Lanczos on a Gram Laplacian.  Residual
    norms are always computed explicitly on the operator itself.
    """
    if op.kind not in (WALK_P, WITTEN0):
        raise ValueError(f"spectrum of kind {op.kind} is not supported")
    if count > 20:
        raise ValueError("count must be at most 20")
    n = op.n
    if count >= n:
        raise ValueError("count must be smaller than the matrix size")
    if n <= dense_cutoff:
        return _dense_path(op, count, seed)
    if op.kind == WITTEN0:
        return _shift_invert_path(op, count, tol, max_iter, seed)
    return _lanczos_path(op, count, tol, max_iter, seed)


def _dense_path(op: GridOperator, count: int, seed: int) -> SpectralResult:
    # scipy.linalg and scipy.sparse.linalg load only when a dense solve runs
    import scipy.linalg
    import scipy.sparse.linalg

    s = op.tocsr()
    rows = np.repeat(np.arange(op.n), np.diff(s.indptr))
    if np.all(np.abs(s.indices - rows) <= 1):
        # tridiagonal, as every 1D Gram Laplacian is: bisection and
        # inverse iteration on the two bands
        lam, v = scipy.linalg.eigh_tridiagonal(
            s.diagonal(), s.diagonal(1), select="i",
            select_range=(0, count - 1))
    else:
        lam, v = scipy.linalg.eigh(s.toarray(), overwrite_a=True,
                                   subset_by_index=[0, count - 1])
    # the subset solves do not see the top of the spectrum, which sets the
    # rounding scale of the tolerance
    norm_a = abs(float(scipy.sparse.linalg.eigsh(
        s, k=1, which="LM", v0=_start_vector(op.n, seed),
        return_eigenvectors=False)[0]))
    res = np.linalg.norm(s @ v - v * lam[None, :], axis=0)
    eff_tol = 50.0 * op.n * np.finfo(float).eps * max(norm_a, 1.0)
    return SpectralResult(
        eigenvalues=tuple(float(x) for x in lam),
        residual_norms=tuple(float(r) for r in res),
        solver="DENSE", iterations=0, tol=eff_tol, vectors=v)


def _start_vector(n: int, seed: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal(n)


def _lanczos_path(op: GridOperator, count: int, tol: float, max_iter: int,
                  seed: int) -> SpectralResult:
    run = _lanczos(op.matvec, op.stationary_sqrt, count, max_iter, seed,
                   lambda theta: tol * (1.0 + np.abs(theta)),
                   window=max(60, 4 * count + 24))
    return _ritz_result(op, run, run.theta, "LANCZOS", tol, max_iter)


def _shift_invert_path(op: GridOperator, count: int, tol: float,
                       max_iter: int, seed: int) -> SpectralResult:
    """Lanczos on -(A - shift I)^-1; a Ritz value theta gives shift - 1/theta.

    The residual on A of a Ritz pair is ||(A - shift I) r|| / |theta| for
    its Krylov residual r, so the Krylov stopping test is scaled by
    |theta| / ||A - shift I|| to keep the residual on A within
    tol (1 + |lambda|).  The reported eigenvalue is the Rayleigh quotient
    of the Ritz vector on A: shift - 1/theta carries the solves' rounding,
    about eps ||A - shift I||, which on 1D grids exceeds the dense path's
    own error.
    """
    # scipy.sparse.linalg loads only when a factorization runs
    import scipy.sparse.linalg

    shift = SHIFT_OVER_H * op.h
    m = gridop.shifted_witten_csc(op, shift)
    # Gershgorin bound on ||A - shift I|| (symmetric: column sums = row sums)
    norm_m = float(np.max(np.add.reduceat(np.abs(m.data), m.indptr[:-1])))
    # A - shift I is SPD, so no pivoting is needed and the minimum-degree
    # order of its pattern keeps the fill low; a panel of one column avoids
    # SuperLU's panel work arrays
    lu = scipy.sparse.linalg.splu(
        m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=1,
        options={"SymmetricMode": True})
    del m

    def stop_tol(theta):
        lam = shift - 1.0 / theta
        return tol * (1.0 + np.abs(lam)) * np.abs(theta) / norm_m

    def apply(u):
        w = lu.solve(u)
        w *= -1.0
        return w

    # the transformed spectrum converges in a few dozen steps with or without
    # restarts, so a short window keeps the basis small beside the factor
    run = _lanczos(apply, op.stationary_sqrt, count, max_iter, seed, stop_tol,
                   window=max(16, 2 * count + 4))
    factor_nnz = int(lu.nnz)
    del lu          # the residuals below need only A
    return _ritz_result(op, run, None, "SHIFT_INVERT", tol, max_iter,
                        shift=shift, factor_nnz=factor_nnz)


@dataclass(frozen=True)
class _LanczosRun:
    basis: np.ndarray           # (k, n) orthonormal Krylov basis
    coords: np.ndarray          # (k, want) Ritz vectors in that basis
    theta: np.ndarray           # the wanted Ritz values, ascending
    res_est: np.ndarray         # their Krylov residual estimates
    steps: int
    converged: bool
    restarts: int
    breakdown_retries: int


def _ritz_result(op: GridOperator, run: _LanczosRun, lam: np.ndarray | None,
                 solver: str, tol: float, max_iter: int,
                 **fields) -> SpectralResult:
    """Exact kernel pair plus the Ritz pairs, residuals taken on ``op``.

    ``lam`` holds the Ritz eigenvalues; if it is None, each is the Rayleigh
    quotient of its Ritz vector on ``op``.
    """
    deflate = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)
    vecs = np.column_stack([deflate, run.basis.T @ run.coords])
    vals = np.empty(vecs.shape[1])
    vals[0] = deflate @ op.matvec(deflate)
    res = np.empty(vals.size)
    for i in range(vals.size):
        x = vecs[:, i]
        ax = op.matvec(x)
        if i:
            vals[i] = x @ ax if lam is None else lam[i - 1]
        res[i] = np.linalg.norm(ax - vals[i] * x)
    order = np.argsort(vals)
    result = SpectralResult(
        eigenvalues=tuple(float(vals[i]) for i in order),
        residual_norms=tuple(float(res[i]) for i in order),
        solver=solver, iterations=run.steps, tol=tol,
        vectors=vecs[:, order], restarts=run.restarts,
        breakdown_retries=run.breakdown_retries, **fields)
    if not run.converged:
        raise NoConvergence(
            f"{solver.lower()} did not converge in {max_iter} steps "
            f"(worst residual estimate {run.res_est.max():.3e})",
            partial=result)
    return result


def _lanczos(apply, kernel: np.ndarray, count: int, max_iter: int, seed: int,
             stop_tol, window: int) -> _LanczosRun:
    """Lowest ``count - 1`` Ritz pairs of ``apply`` off the kernel vector.

    Thick-restart Lanczos with full reorthogonalization and a basis of at
    most ``window`` vectors; a Ritz pair has converged once its residual
    estimate is at most ``stop_tol(theta)``.
    """
    n = kernel.size
    deflate = kernel / np.linalg.norm(kernel)
    m_max = min(n - 1, window)
    keep = min(m_max - 8, 2 * count + 8)

    basis = np.empty((m_max + 1, n))
    hmat = np.zeros((m_max + 1, m_max + 1))

    def orthogonalize(w, k):
        # two passes of classical Gram-Schmidt against the kernel and basis
        coeffs = np.zeros(k)
        for _ in range(2):
            w -= (deflate @ w) * deflate
            if k:
                c = basis[:k] @ w
                w -= basis[:k].T @ c
                coeffs += c
        return w, coeffs

    r = _start_vector(n, seed)
    r, _ = orthogonalize(r, 0)
    r /= np.linalg.norm(r)
    basis[0] = r
    k = 1                 # current basis size
    steps = restarts = breakdown_retries = 0

    while True:
        w = apply(basis[k - 1])
        steps += 1
        w, coeffs = orthogonalize(w, k)
        hmat[:k, k - 1] = coeffs
        beta = np.linalg.norm(w)

        hk = hmat[:k, :k]
        hk = 0.5 * (hk + hk.T)
        theta, s = np.linalg.eigh(hk)
        res_est = np.abs(beta * s[k - 1, :])

        want = min(count - 1, k)   # kernel pair is prepended afterwards
        done = k >= want and np.all(res_est[:want] <= stop_tol(theta[:want]))
        if done or steps >= max_iter:
            return _LanczosRun(basis=basis[:k], coords=s[:, :want],
                               theta=theta[:want], res_est=res_est[:want],
                               steps=steps, converged=bool(done),
                               restarts=restarts,
                               breakdown_retries=breakdown_retries)

        coupling = beta
        if beta <= 1e-13 * max(1.0, np.abs(theta).max(initial=1.0)):
            # invariant subspace hit: continue in a fresh random direction,
            # which carries no coupling to the previous Lanczos vector
            breakdown_retries += 1
            if breakdown_retries > 5:
                raise LossOfOrthogonality(
                    "repeated breakdowns while expanding the Krylov basis")
            w = _start_vector(n, seed + 13 * breakdown_retries)
            w, _ = orthogonalize(w, k)
            beta = np.linalg.norm(w)
            coupling = 0.0

        if k == m_max:
            # thick restart: keep the lowest Ritz vectors plus the residual,
            # rotating the basis in place one block of columns at a time
            for j in range(0, n, RESTART_BLOCK):
                cols = slice(j, j + RESTART_BLOCK)
                basis[:keep, cols] = s[:, :keep].T @ basis[:k, cols]
            hmat[:, :] = 0.0
            hmat[:keep, :keep] = np.diag(theta[:keep])
            arrow = coupling * s[k - 1, :keep]
            hmat[keep, :keep] = arrow
            hmat[:keep, keep] = arrow
            basis[keep] = w / beta
            k = keep + 1
            restarts += 1
            continue

        basis[k] = w / beta
        hmat[k, k - 1] = coupling
        hmat[k - 1, k] = coupling
        k += 1


# --- cluster classification ----------------------------------------------------


def classify_spectrum(res: SpectralResult, h: float, ratio_min: float = 1e3,
                      cap: float = 0.1) -> ClusterReport:
    """Locate the split between the exponentially small cluster and the rest.

    Among all consecutive splits whose geometric-midpoint threshold lies
    below cap*h and whose eigenvalue ratio (with the lower value clamped at
    the solver floor) is at least ratio_min, the one with the largest
    threshold wins; everything below it counts as the small cluster.
    """
    lam = np.asarray(res.eigenvalues, float)
    if lam.size < 2:
        raise ValueError("need at least two eigenvalues to classify")
    best = None
    for i in range(lam.size - 1):
        lo = max(lam[i], EIG_FLOOR)
        hi = lam[i + 1]
        if hi <= 0:
            continue
        thresh = math.sqrt(lo * hi)
        ratio = hi / lo
        if thresh < cap * h and ratio >= ratio_min:
            if best is None or thresh > best[1]:
                best = (i + 1, thresh, ratio)
    if best is None:
        raise AmbiguousCluster(
            f"no spectral split with ratio >= {ratio_min:g} below {cap:g}*h; "
            f"eigenvalues {lam.tolist()}")
    n_small, thresh, ratio = best
    nxt = float(lam[n_small])
    return ClusterReport(
        n_small=n_small,
        cluster_threshold=float(thresh),
        next_eigenvalue=nxt,
        split_ratio=float(ratio),
        remainder_over_h=nxt / h,
    )


# --- quasimodes ----------------------------------------------------------------


def default_cutoff_margin(labeling: LandscapeLabeling) -> float:
    """Half of one tenth of the smallest distance between critical points."""
    pts = [np.asarray(m.location) for m in labeling.minima]
    pts += [np.asarray(s.location) for s in labeling.saddles if s is not None]
    pts += [np.asarray(s.location) for s in labeling.non_separating]
    if len(pts) < 2:
        return 0.1
    dmin = min(np.linalg.norm(a - b)
               for i, a in enumerate(pts) for b in pts[i + 1:])
    return float(dmin / 20.0)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def build_quasimodes(grid: Grid, spec, labeling: LandscapeLabeling, h: float,
                     epsilon: float | None = None,
                     collar_divisor: float = 4.0) -> QuasimodeSet:
    """Cutoff Gibbs states attached to each well.

    For the global well the cutoff is identically one.  For k >= 2 the
    cutoff is the indicator of (component of {phi < phi(s_k) - eps}
    containing m_k) minus the eps-ball around s_k, mollified by a
    piecewise-cubic ramp over a collar of width eps/collar_divisor.
    Normalization is by the discrete norm, not the stationary-phase formula.
    """
    if epsilon is None:
        epsilon = default_cutoff_margin(labeling)
    phi = potentials.value(spec, grid.points()).reshape(grid.dims)
    structure = ndimage.generate_binary_structure(grid.dimension, 1)
    cols = []
    raw_norms = []
    for (k, m, s, S) in labeling.pairs:
        phi_m = m.value
        if s is None:
            chi = np.ones(grid.dims)
        else:
            level = s.value - epsilon
            mask = phi < level
            labels, _ = ndimage.label(mask, structure=structure)
            mcell = grid.cell_of(m.location)
            comp = labels[mcell]
            if comp == 0:
                raise EmptySupport(
                    f"minimum of pair {k} is not below the cutoff level; "
                    f"epsilon = {epsilon} too large")
            inside = labels == comp
            # excise the epsilon-ball around the paired saddle
            pts = grid.points()
            d2 = np.sum((pts - np.asarray(s.location)) ** 2, axis=1)
            inside &= (d2 > epsilon * epsilon).reshape(grid.dims)
            if not np.any(inside):
                raise EmptySupport(f"cutoff of pair {k} vanished everywhere")
            dist = ndimage.distance_transform_edt(~inside) * grid.spacing
            chi = _smoothstep(1.0 - dist * collar_divisor / epsilon)
        vec = (chi * np.exp(-(phi - phi_m) / h)).ravel()
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise EmptySupport(f"quasimode of pair {k} vanished everywhere")
        cols.append(vec / norm)
        raw_norms.append(norm)
    vectors = np.column_stack(cols)
    gram = vectors.T @ vectors
    return QuasimodeSet(vectors=vectors, epsilon=float(epsilon), gram=gram,
                        raw_norms=tuple(raw_norms))


def subspace_alignment(quasi: QuasimodeSet, eigvecs: np.ndarray) -> float:
    """Smallest principal-angle cosine between quasimode span and eigenspace."""
    qq, _ = np.linalg.qr(quasi.vectors)
    ee, _ = np.linalg.qr(eigvecs)
    sv = np.linalg.svd(qq.T @ ee, compute_uv=False)
    return float(sv.min())


def power_second_eigenvalue(op: GridOperator, iters: int = 2000,
                            seed: int = 4242) -> float:
    """Power-iteration estimate of the second eigenvalue of the walk operator.

    Deflates the known top eigenpair (1, stationary_sqrt) and iterates; used
    as an independent cross-check of 1 - lambda_2(P).
    """
    v0 = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)
    x = _start_vector(op.n, seed)
    x -= (v0 @ x) * v0
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = op.matvec(x)
        y -= (v0 @ y) * v0
        lam_new = float(x @ y)
        ny = np.linalg.norm(y)
        if ny == 0:
            break
        x = y / ny
        if abs(lam_new - lam) <= 1e-13 * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return lam
