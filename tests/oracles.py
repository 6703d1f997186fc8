"""Independent oracles the tests check the package against.

Everything here deliberately avoids the code paths under test: derivatives
come from central differences, multiplier values from adaptive quadrature
of the defining integrals, the landscape pairing from a top-down
flood-fill of sublevel sets at each saddle value, the persistence sweep
from a cell-by-cell union-find, the Gram Laplacian from sparse products
of its difference factors and its 1D gap from Sturm counts in 40-digit
arithmetic, the walk's row sums from its assembled matrix, the ball-walk
sampler from its slot-by-slot and single-chain forms and its well
occupation and exit times from the exact law of the discrete chain, and
the walk's second eigenvalue from power iteration, and the exponentially
small cluster's size from the splits of the computed spectrum.

Two groups of theory live here because no command evaluates them: the
walk's symmetrization amplitude with its h-expansion (and the ball
constants it uses), and the quasimodes (cutoff Gibbs states of the
wells).  The acceptance tests check them against the quadratures above
and against the computed spectra.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import ndimage, sparse
from scipy.integrate import quad

from ballwalk import eigen, gridop, landscape, potentials, symbols, walk


# --- derivatives ----------------------------------------------------------------


def fd_gradient(spec, x, step=1e-5):
    x = np.asarray(x, float).reshape(-1)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (potentials.value(spec, x + e)
                - potentials.value(spec, x - e)) / (2 * step)
    return g


def fd_hessian(spec, x, step=1e-5):
    x = np.asarray(x, float).reshape(-1)
    h = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        gp = np.atleast_1d(potentials.gradient(spec, x + e))
        gm = np.atleast_1d(potentials.gradient(spec, x - e))
        h[:, j] = (gp - gm) / (2 * step)
    return h


# --- multiplier integrals ---------------------------------------------------------


def multiplier_quad(dim, r, tol=1e-12):
    """Adaptive quadrature of the ball mean of cos(z . xi), |xi| = r."""
    if dim == 1:
        return quad(lambda z: math.cos(z * r), -1, 1, epsabs=tol)[0] / 2.0
    inner = lambda t: quad(lambda a: math.cos(r * t * math.cos(a)),
                           0.0, math.pi, epsabs=tol)[0] / math.pi
    return quad(lambda t: 2.0 * t * inner(t), 0.0, 1.0, epsabs=tol)[0]


def multiplier_imag_quad(dim, r, tol=1e-12):
    if dim == 1:
        return quad(lambda z: math.exp(-z * r), -1, 1, epsabs=tol)[0] / 2.0
    inner = lambda t: quad(lambda a: math.exp(-r * t * math.cos(a)),
                           0.0, math.pi, epsabs=tol)[0] / math.pi
    return quad(lambda t: 2.0 * t * inner(t), 0.0, 1.0, epsabs=tol)[0]


def multiplier_complex_modulus_quad(xi, tau, tol=1e-12):
    """|ball mean of exp(i z (xi + i tau))| in 1D."""
    re = quad(lambda z: math.exp(-z * tau) * math.cos(z * xi), -1, 1,
              epsabs=tol)[0] / 2.0
    im = quad(lambda z: math.exp(-z * tau) * math.sin(z * xi), -1, 1,
              epsabs=tol)[0] / 2.0
    return math.hypot(re, im)


def amplitude_quad(spec, h, x, tol=1e-12):
    """Adaptive quadrature of the inverse-square amplitude, then invert."""
    x = np.asarray(x, float).reshape(-1)
    if spec.dimension == 1:
        val = quad(lambda z: math.exp(
            (potentials.value(spec, x) - potentials.value(spec, x + z)) / h),
            -h, h, epsabs=tol)[0] / (2.0 * h)
    else:
        phi_x = potentials.value(spec, x)
        def ring(rho):
            return quad(lambda a: math.exp(
                (phi_x - potentials.value(
                    spec, x + rho * np.array([math.cos(a), math.sin(a)]))) / h),
                0.0, 2.0 * math.pi, epsabs=tol)[0]
        val = quad(lambda rho: rho * ring(rho), 0.0, h,
                   epsabs=tol)[0] / (math.pi * h * h)
    return val ** -0.5


def hessian_mean_quad(spec, x, tol=1e-12):
    """1D ball mean of exp(-phi' z) phi'' z^2 (for the amplitude correction)."""
    g = float(np.atleast_1d(potentials.gradient(spec, x))[0])
    hess = float(np.atleast_2d(potentials.hessian(spec, x))[0, 0])
    return quad(lambda z: math.exp(-g * z) * hess * z * z, -1, 1,
                epsabs=tol)[0] / 2.0


# --- symbol expansions ----------------------------------------------------------
#
# The walk's symmetrization amplitude and its h-expansion, with the unit
# ball's volume and the multiplier's quadratic coefficient: theory that no
# command evaluates, checked here against the quadratures above.


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


def amplitude(spec, params: SymbolParams, x) -> float:
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


def amplitude_leading(spec, x) -> float:
    """h -> 0 limit of the amplitude: W(|grad phi|)^(-1/2)."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    return float(symbols.multiplier_imag(spec.dimension, r)) ** -0.5


def _hessian_ball_mean(spec, x) -> float:
    """Ball mean of exp(-grad phi . z) <Hess phi z, z> over the unit ball."""
    x = np.asarray(x, float).reshape(-1)
    z, w = _unit_ball_nodes(spec.dimension)
    g = np.atleast_1d(potentials.gradient(spec, x))
    hess = np.atleast_2d(potentials.hessian(spec, x))
    form = np.einsum("ni,ij,nj->n", z, hess, z)
    return float(np.sum(w * np.exp(-z @ g) * form))


def amplitude_correction(spec, x) -> float:
    """First h-correction of the amplitude (the coefficient of h)."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    w = float(symbols.multiplier_imag(spec.dimension, r))
    return w ** -1.5 * 0.25 * _hessian_ball_mean(spec, x)


def laplacian(spec, x):
    """Trace of the exact Hessian at one point (d,) or a batch (N, d)."""
    return np.trace(potentials.hessian(spec, x), axis1=-2, axis2=-1)


def curvature_factor(spec, x) -> float:
    """Subprincipal spatial factor; equals -(2d+4)^(-1) * laplacian at critical points."""
    g = potentials.gradient(spec, np.asarray(x, float))
    r = float(np.linalg.norm(np.atleast_1d(g)))
    w = float(symbols.multiplier_imag(spec.dimension, r))
    return -(w ** -2.0) * 0.5 * _hessian_ball_mean(spec, x)


def symbol_subprincipal(spec, x, xi) -> float:
    """Order-h symbol term: curvature factor times the multiplier."""
    m = float(symbols.multiplier(spec.dimension, np.asarray(xi, float)))
    return curvature_factor(spec, x) * m


# --- cluster split ----------------------------------------------------------------


def admissible_split(eigenvalues, i, h) -> bool:
    """Whether the split after the i-th eigenvalue (1-based) stands apart.

    Its ratio, with the lower value clamped at the solver floor, is at least
    1e3 and its geometric midpoint lies below 0.1 h: a split that a search
    over all splits of the computed spectrum would accept.
    """
    lo = max(eigenvalues[i - 1], eigen.EIG_FLOOR)
    hi = eigenvalues[i]
    return hi > 0 and hi / lo >= 1e3 and math.sqrt(lo * hi) < 0.1 * h


# --- 1D benchmark critical data ---------------------------------------------------


def tilted_double_well_points(tilt=0.3):
    """Critical points of (x^2-1)^2 + tilt*x from companion-matrix roots."""
    roots = np.sort(np.roots([4.0, 0.0, -4.0, tilt]).real)
    out = []
    for r in roots:
        val = (r * r - 1.0) ** 2 + tilt * r
        curv = 12.0 * r * r - 4.0
        out.append((float(r), float(val), float(curv)))
    return out


def tilted_double_well_S2(tilt=0.3):
    pts = tilted_double_well_points(tilt)
    mins = [p for p in pts if p[2] > 0]
    saddle = [p for p in pts if p[2] < 0][0]
    shallow = max(mins, key=lambda p: p[1])
    return saddle[1] - shallow[1]


# --- critical-point Newton ---------------------------------------------------------


def scalar_newton(spec, box, seeds, tolerance, max_iter=60):
    """Damped Newton from each seed in turn: (points, failed seeds)."""
    found = []
    failures = []
    for seed in seeds:
        x = np.array(seed, float)
        ok = False
        for _ in range(max_iter):
            gx = potentials.gradient(spec, x)
            if np.linalg.norm(gx) <= tolerance:
                ok = True
                break
            hx = potentials.hessian(spec, x)
            try:
                step = np.linalg.solve(hx, -gx)
            except np.linalg.LinAlgError:
                break
            norm = np.linalg.norm(step)
            if norm > 0.5:
                step = step * (0.5 / norm)
            x = x + step
            if not box.contains(x):
                break
        if not ok or not box.contains(x):
            failures.append(tuple(float(v) for v in seed))
            continue
        if any(np.linalg.norm(x - p) <= 10 * tolerance for p in found):
            continue
        found.append(x)
    return found, failures


# --- flood-fill labeling oracle ----------------------------------------------------


def floodfill_labeling(spec, box, dx, margin=1e-9):
    """Top-down labeling by exhaustive sublevel-set component analysis.

    For every index-1 critical point, decides separation by flood-filling
    {phi < phi(s) - margin} and comparing the components of the two descent
    sides; then labels minima from the highest separating value downward.
    Returns pairs [(minimum, saddle_or_None, S)] relabeled so S decreases.

    The margin is clamped from below by |mu| dx^2 (mu the saddle's negative
    curvature): grid samples undershoot the true saddle value by up to
    |mu| dx^2 / 8, so the literal continuum margin cannot separate
    components on any affordable grid.
    """
    crit, _ = landscape.find_critical_points(spec, box)
    minima = [c for c in crit if c.index == 0]
    saddles = [c for c in crit if c.index == 1]

    shape = tuple(int(round((hi - lo) / dx)) for lo, hi in zip(box.lo, box.hi))
    axes = [lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
            for (lo, hi), n in zip(zip(box.lo, box.hi), shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = potentials.value(spec, pts).reshape(shape)
    structure = ndimage.generate_binary_structure(len(shape), 1)
    spacing = box.extent / np.asarray(shape, float)

    def cell_of(p):
        idx = np.floor((np.asarray(p) - np.asarray(box.lo)) / spacing)
        return tuple(int(v) for v in np.clip(idx, 0, np.asarray(shape) - 1))

    def components(level):
        lab, _ = ndimage.label(vals < level, structure=structure)
        return lab

    def descent_cells(s):
        hess = np.atleast_2d(potentials.hessian(spec, s.location))
        w, v = np.linalg.eigh(hess)
        direction = v[:, 0]
        delta = 3.0 * float(np.max(spacing))
        a = np.asarray(s.location) + delta * direction
        b = np.asarray(s.location) - delta * direction
        return cell_of(a), cell_of(b)

    def level_of(s):
        mu = abs(s.hessian_eigs[0])
        return s.value - max(margin, mu * float(np.max(spacing)) ** 2)

    separating = []
    for s in sorted(saddles, key=lambda c: -c.value):
        lab = components(level_of(s))
        ca, cb = descent_cells(s)
        la, lb = lab[ca], lab[cb]
        if la > 0 and lb > 0 and la != lb:
            separating.append(s)

    # ties between refined minimum values (symmetric landscapes) resolve by
    # the grid birth sample and then the cell index, exactly as the sweep
    # does; the birth cell is the grid-local minimum next to the refined one
    def birth_sample(c):
        cell = np.asarray(cell_of(c.location))
        lo = np.maximum(cell - 2, 0)
        hi = np.minimum(cell + 3, np.asarray(shape))
        window = vals[tuple(slice(a, b) for a, b in zip(lo, hi))]
        local = np.unravel_index(np.argmin(window), window.shape)
        idx = tuple(int(a + o) for a, o in zip(lo, local))
        return float(vals[idx]), idx

    global_min = min(minima,
                     key=lambda c: (round(c.value, 9),) + birth_sample(c))
    labeled = {id(global_min)}
    pairs = [(global_min, None, math.inf)]
    for s in sorted(separating, key=lambda c: -c.value):
        lab = components(level_of(s))
        min_cells = {id(m): lab[cell_of(m.location)] for m in minima}
        taken = {min_cells[i] for i in labeled if min_cells[i] > 0}
        ca, cb = descent_cells(s)
        cand = {lab[ca], lab[cb]} - taken - {0}
        assert len(cand) == 1, f"ambiguous component for saddle at {s.location}"
        comp = cand.pop()
        inside = [m for m in minima
                  if id(m) not in labeled and min_cells[id(m)] == comp]
        assert inside, f"no unlabeled minimum in the component of {s.location}"
        m = min(inside, key=lambda c: c.value)
        labeled.add(id(m))
        pairs.append((m, s, s.value - m.value))
    rest = sorted(pairs[1:], key=lambda t: -t[2])
    return [pairs[0]] + rest


# --- union-find persistence sweep ----------------------------------------------
#
# The sublevel-set sweep as it was before merge ranks came from component
# counts: a union-find over the cells, visited one at a time in increasing
# value order.  The counting sweep must return an equal pairing.


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, i):
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union_into(self, child_root, parent_root):
        self.parent[child_root] = parent_root


def union_find_persistence(values):
    """Union-find sweep of grid values in increasing order (elder rule).

    ``values`` is a grid-shaped array; adjacency is axis-neighborhood.  A
    component is born at each local-minimum cell; when two components first
    touch, the younger (higher birth value, ties by cell index) dies and a
    merge event records the connecting cell and the max of the two touching
    cells' values.
    """
    values = np.asarray(values, float)
    if not np.all(np.isfinite(values)):
        raise ValueError("grid values must be finite")
    shape = values.shape
    flat = values.ravel()
    n = flat.size
    order = np.lexsort((np.arange(n), flat))  # value asc, index asc on ties
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    strides = []
    s = 1
    for size in reversed(shape):
        strides.append(s)
        s *= size
    strides = list(reversed(strides))

    uf = _UnionFind(n)
    birth_cell = np.full(n, -1, dtype=np.int64)    # root -> birth flat index
    processed = np.zeros(n, dtype=bool)
    events = []

    idx_nd = np.unravel_index(np.arange(n), shape)
    coords = np.stack(idx_nd, axis=1)

    for flat_i in order:
        ci = coords[flat_i]
        neighbor_roots = {}
        for axis, stride in enumerate(strides):
            for delta in (-1, 1):
                cj = ci[axis] + delta
                if cj < 0 or cj >= shape[axis]:
                    continue
                nb = flat_i + delta * stride
                if not processed[nb]:
                    continue
                r = uf.find(nb)
                prev = neighbor_roots.get(r)
                # remember, per neighboring component, the touching neighbor
                if prev is None or rank[nb] < rank[prev]:
                    neighbor_roots[r] = nb
        processed[flat_i] = True
        if not neighbor_roots:
            birth_cell[flat_i] = flat_i
            continue
        roots = sorted(neighbor_roots,
                       key=lambda r: (flat[birth_cell[r]], birth_cell[r]))
        elder = roots[0]
        uf.union_into(flat_i, elder)
        for r in roots[1:]:
            nb = neighbor_roots[r]
            merge_value = max(float(flat[flat_i]), float(flat[nb]))
            events.append(landscape.MergeEvent(
                birth_cell=tuple(int(v) for v in coords[birth_cell[r]]),
                birth_value=float(flat[birth_cell[r]]),
                merge_cell=tuple(int(v) for v in ci),
                merge_value=merge_value,
            ))
            uf.union_into(r, elder)

    survivor = uf.find(order[-1])
    events.sort(key=lambda e: (-e.persistence, e.birth_cell))
    return landscape.PersistencePairing(
        events=tuple(events),
        survivor_cell=tuple(int(v) for v in coords[birth_cell[survivor]]),
    )


def witten_gap_1d(op, lo, hi, rel=1e-18):
    """Smallest eigenvalue of L L^T for the factor L of a 1D Gram Laplacian.

    L L^T has the nonzero spectrum of the operator L^T L and no kernel, so
    its smallest eigenvalue is the operator's gap.  Its entries come from
    the factor coefficients of ``op.data``, the doubles taken as exact:
    f^2 (ep_i^2 + em_i^2) on the diagonal and -f^2 ep_i em_(i+1) beside it.
    Sturm counts in 40 digits bisect the bracket [lo, hi], which must hold
    that eigenvalue and no smaller one, to a relative width of ``rel``.
    """
    data = op.data
    with mpmath.workdps(40):
        f2 = mpmath.mpf(data.factor) ** 2
        ep = [mpmath.mpf(v) for v in data.eplus[0].tolist()]
        em = [mpmath.mpf(v) for v in data.eminus[0].tolist()]
        diag = [f2 * (p * p + m * m) for p, m in zip(ep, em)]
        off2 = [(f2 * p * m) ** 2 for p, m in zip(ep[:-1], em[1:])]
        tiny = mpmath.mpf(10) ** -80

        def below(x):
            # negative pivots of L L^T - x I: the eigenvalues below x
            q = diag[0] - x
            count = int(q < 0)
            for d, e2 in zip(diag[1:], off2):
                q = d - x - e2 / (q if q != 0 else tiny)
                count += q < 0
            return count

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        if below(lo) != 0 or below(hi) == 0:
            raise ValueError(f"[{lo}, {hi}] does not bracket the gap")
        while hi - lo > rel * lo:
            mid = (lo + hi) / 2
            if below(mid):
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def power_second_eigenvalue(op, iters=2000, seed=4242):
    """Power-iteration estimate of the second eigenvalue of the walk operator.

    Deflates the known top eigenpair (1, stationary_sqrt) and iterates; used
    as an independent cross-check of 1 - lambda_2(P).
    """
    v0 = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)
    x = np.random.Generator(np.random.Philox(key=seed)).standard_normal(op.n)
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


def walk_well_law(labeling, h, start_well, n_steps):
    """Exact well occupation and exit law of the discrete walk.

    The chain lives on the labeling's grid, jumps with t_ij = w g_j / B_i
    and starts from its stationary law g B restricted to ``start_well``, as
    ``simulate`` draws a well start.  A step of the row vector is
    p <- w g * correlate(p / B, foot), which is p T; the same step on a
    copy zeroed outside the start well after each step keeps the mass that
    has not left yet.  Returns the expected fraction in each well at steps
    0..n_steps, shape (n_steps + 1, n0), and the survival P(tau > t) for
    the first step tau outside the start well.
    """
    grid, phi = labeling.grid, labeling.values
    g = np.exp(-(phi - phi.min()) / h)
    foot = gridop._ball_footprint(grid.dimension, h, grid.spacing)
    w = grid.spacing ** grid.dimension
    big_b = w * gridop._correlate(g, foot)
    wells = labeling.component_ids
    inside = wells == start_well
    p = np.where(inside, g * big_b, 0.0)
    p /= p.sum()
    alive = p
    occupation = np.empty((n_steps + 1, labeling.n0))
    survival = np.empty(n_steps + 1)
    for t in range(n_steps + 1):
        if t:
            p = w * g * gridop._correlate(p / big_b, foot)
            alive = np.where(inside,
                             w * g * gridop._correlate(alive / big_b, foot),
                             0.0)
        occupation[t] = np.bincount(wells.ravel(), weights=p.ravel(),
                                    minlength=labeling.n0 + 1)[1:]
        survival[t] = alive.sum()
    return occupation, survival


def row_prefix_correlate(arr, foot):
    """Stencil sum of arr, each footprint row one prefix-sum difference."""
    rows = arr.reshape(-1, arr.shape[-1])
    foot = foot.reshape(-1, foot.shape[-1])
    nx, ny = rows.shape
    k = foot.shape[1] // 2
    kr = foot.shape[0] // 2
    pre = np.zeros((nx, ny + 2 * k + 1))
    np.cumsum(rows, axis=1, out=pre[:, k + 1:k + 1 + ny])
    pre[:, k + 1 + ny:] = pre[:, k + ny:k + 1 + ny]
    out = np.zeros_like(rows)
    for di, half in zip(range(-kr, kr + 1), foot.sum(axis=1) // 2):
        if abs(di) >= nx:
            continue
        dst = slice(max(0, -di), nx - max(0, di))
        src = slice(max(0, di), nx + min(0, di))
        out[dst] += pre[src, k + half + 1:k + half + 1 + ny]
        out[dst] -= pre[src, k - half:k - half + ny]
    return out.reshape(arr.shape)


def walk_row_sums(op):
    """Row sums of the stochastic matrix t_ij = S_ij sqrt(pi_j / pi_i).

    S is the assembled CSR of a walk operator.  Only the rows whose whole
    stencil has sqrt(pi) > 0 are returned: where pi underflows the quotient
    is undefined.
    """
    root = np.sqrt(op.data.pi.ravel())
    lost = ndimage.correlate((root == 0).reshape(op.grid.dims).astype(float),
                             op.data.foot.astype(float), mode="constant")
    keep = lost.ravel() == 0
    return (op.tocsr() @ root)[keep] / root[keep]


def witten_gram_product(op):
    """sum_j L_j^T L_j of a Gram Laplacian from its sparse factors."""
    f = op.data.factor
    idx = np.arange(op.n).reshape(op.grid.dims)
    total = None
    for axis in range(op.grid.dimension):
        base = np.delete(idx, -1, axis=axis).ravel()
        fwd = np.delete(idx, 0, axis=axis).ravel()
        rows = np.arange(base.size)
        lmat = sparse.csr_matrix(
            (np.concatenate([f * op.data.eplus[axis].ravel(),
                             -f * op.data.eminus[axis].ravel()]),
             (np.concatenate([rows, rows]), np.concatenate([fwd, base]))),
            shape=(base.size, op.n))
        term = (lmat.T @ lmat).tocsr()
        total = term if total is None else (total + term).tocsr()
    total.sort_indices()
    return total


# --- slot-by-slot ball-walk sampler ------------------------------------------------
#
# The sampler as it was before each rejection round became one batched
# evaluation: uniforms mixed one slot at a time, the lower bound taken
# chain-major with a square root per probe, and a Python loop over the
# proposal slots of every round.  The batched sampler must reproduce it
# bit for bit.


def slot_loop_uniforms(seed, step, rnd, chains, n_slots):
    with np.errstate(over="ignore"):
        base = walk._mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * walk._GOLDEN
                           + np.uint64(1))
        base = walk._mix64(base ^ np.uint64(step) * walk._GOLDEN)
        base = walk._mix64(base ^ np.uint64(rnd) * walk._MIX2)
        lanes = walk._mix64(base ^ chains.astype(np.uint64) * walk._GOLDEN)
        out = np.empty((chains.size, n_slots))
        for s in range(n_slots):
            word = walk._mix64(lanes ^ np.uint64(s + 1) * walk._MIX1)
            out[:, s] = (word >> np.uint64(11)) * (1.0 / (1 << 53))
    return out


def slot_loop_lower_bound(spec, h, x):
    x = np.atleast_2d(x)
    offs, cover = walk._ball_probe_offsets(spec.dimension, h)
    pts = (x[:, None, :] + offs[None, :, :]).reshape(-1, spec.dimension)
    vals = potentials.value(spec, pts).reshape(x.shape[0], -1)
    grads = potentials.gradient(spec, pts)
    gn = np.sqrt(np.sum(grads * grads, axis=1)).reshape(x.shape[0], -1)
    return vals.min(axis=1) - 1.5 * cover * gn.max(axis=1)


def slot_loop_propose(x, h, u):
    if x.shape[1] == 1:
        return x + h * (2.0 * u[:, :1] - 1.0)
    theta = 2.0 * math.pi * u[:, 0]
    rho = h * np.sqrt(u[:, 1])
    return x + np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)


def slot_loop_advance_all(spec, h, pos, seed, step_index, active=None):
    """One exact move per chain, one proposal slot at a time.

    Returns (accepted, proposed, rounds, chain_rounds, violations): chains
    moved, proposals made, rejection rounds run, pending chains summed over
    the rounds, and proposals with phi(y) below the lower bound.
    """
    d = spec.dimension
    pending = np.arange(pos.shape[0]) if active is None else active
    if pending.size == 0:
        return 0, 0, 0, 0, 0
    lower = np.empty(pos.shape[0])
    lower[pending] = slot_loop_lower_bound(spec, h, pos[pending])
    accepted = proposed = chain_rounds = violations = 0
    rnd = 0
    while pending.size:
        if rnd >= walk.MAX_REJECTION_ROUNDS:
            raise walk.RejectionStall(
                f"{pending.size} chains stuck after {rnd} rounds "
                f"at step {step_index}")
        u = slot_loop_uniforms(seed, step_index, rnd, pending,
                               walk._SLOTS * (d + 1))
        u = u.reshape(pending.size, walk._SLOTS, d + 1)
        chain_rounds += pending.size
        settled = np.zeros(pending.size, dtype=bool)
        for s in range(walk._SLOTS):
            live = ~settled
            if not np.any(live):
                break
            rows = pending[live]
            y = slot_loop_propose(pos[rows], h, u[live, s, :d])
            phi_y = potentials.value(spec, y)
            violations += int(np.count_nonzero(phi_y < lower[rows]))
            logacc = np.minimum(0.0, (lower[rows] - phi_y) / h)
            acc = u[live, s, d] <= np.exp(logacc)
            proposed += rows.size
            accepted += int(acc.sum())
            hit = rows[acc]
            pos[hit] = y[acc]
            idx_live = np.nonzero(live)[0]
            settled[idx_live[acc]] = True
        pending = pending[~settled]
        rnd += 1
    return accepted, proposed, rnd, chain_rounds, violations


def single_chain_step(x, spec, h, rng):
    """One exact move of a single chain, using an ordinary generator."""
    x = np.asarray(x, float).reshape(1, -1)
    lower = walk.ball_lower_bound(spec, h, x)
    for _ in range(walk.MAX_REJECTION_ROUNDS):
        u = rng.random((spec.dimension + 1, 1))
        y = walk._propose(x, h, u)[0]
        phi_y = float(potentials.value(spec, y))
        if u[spec.dimension, 0] <= math.exp(min(0.0, (lower[0] - phi_y) / h)):
            return y
    raise walk.RejectionStall(
        "single-chain step exceeded the rejection budget")


# --- quasimodes --------------------------------------------------------------------
#
# Cutoff Gibbs states attached to each well, which the quasimode diagnostics
# compare with the computed eigenspaces.


class EmptySupport(RuntimeError):
    """A quasimode cutoff vanished everywhere (epsilon too large)."""


@dataclass(frozen=True)
class QuasimodeSet:
    vectors: np.ndarray                     # (n_cells, n0), unit columns
    epsilon: float
    gram: np.ndarray                        # vectors^T vectors
    raw_norms: tuple[float, ...]            # l2 norms before normalization


def default_cutoff_margin(labeling) -> float:
    """Half of one tenth of the smallest distance between critical points."""
    pts = [np.asarray(m.location) for (_, m, _, _) in labeling.pairs]
    pts += [np.asarray(s.location) for (_, _, s, _) in labeling.pairs
            if s is not None]
    pts += [np.asarray(s.location) for s in labeling.non_separating]
    if len(pts) < 2:
        return 0.1
    dmin = min(np.linalg.norm(a - b)
               for i, a in enumerate(pts) for b in pts[i + 1:])
    return float(dmin / 20.0)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def build_quasimodes(grid, spec, labeling, h: float,
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
            comp = labels.flat[grid.cells_of(m.location)]
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
