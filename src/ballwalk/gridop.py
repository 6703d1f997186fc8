"""Grid discretization of the ball walk and of its diffusion-limit comparison.

The finite-state chain is defined intrinsically on the grid: from cell i the
walk jumps to cell j inside the radius-h ball with probability proportional
to the Gibbs weight of cell j, normalized over the clipped stencil.  With
uniform cell weights w = dx^d this gives

    t_ij = w g_j / B_i,     B_i = w * sum over the ball of g,    g = e^(-phi/h),

which satisfies detailed balance exactly for pi_i proportional to g_i B_i.
The operator stored here is the symmetrized form

    S_ij = w c_i c_j on the stencil,      c_i = sqrt(g_i / B_i),

assembled directly in this manifestly symmetric shape (never symmetrized
after the fact), so S == S^T entry for entry and the top eigenpair
(1, sqrt(pi)) holds to rounding.  All Gibbs weights are taken relative to
the box minimum of phi, which keeps every exponential representable down to
very small h.

The comparison operator is a Gram-form twisted difference Laplacian,
sum_j L_j^T L_j, whose factors annihilate the discrete Gibbs ground state
by construction; building the Gram form (instead of discretizing the
second-order expression directly) guarantees positive semidefiniteness and
an exact discrete kernel.

``WalkData.boundary_mass``, the stationary mass within one jump of the box
edge, is what truncating the walk on R^d to the box costs; assembly returns
it and warns of nothing.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import select
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import potentials
from .potentials import Box, PotentialSpec

CELL_CAP = 300_000
# the jump radius h must span at least this many cells: h >= MIN_H_OVER_DX dx
MIN_H_OVER_DX = 8

WALK_T = "WALK_T"
WALK_P = "WALK_P"
WITTEN0 = "WITTEN0"


class TooManyCells(ValueError):
    pass


class BallTooSmall(ValueError):
    """The jump radius must cover at least MIN_H_OVER_DX cells per axis."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the well width (need dx <= sqrt(h)/10)."""


class MatvecHelperLost(RuntimeError):
    """The forked process summing half of each walk apply's rows died."""


@dataclass(frozen=True)
class Grid:
    box: Box
    spacing: float
    dims: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    def axes(self) -> list[np.ndarray]:
        return [lo + (np.arange(n) + 0.5) * self.spacing
                for lo, n in zip(self.box.lo, self.dims)]

    def points(self) -> np.ndarray:
        """All cell centers, shape (n_cells, d), C-order flattening."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def coordinate(self, cell, offset=0.5) -> np.ndarray:
        """Point at fractional ``offset`` inside a cell (0.5: its center).

        ``cell`` is one index tuple or an (n, d) array of them, and
        ``offset`` broadcasts against it.
        """
        return (np.asarray(self.box.lo, float)
                + (np.asarray(cell, float) + offset) * self.spacing)

    def cells_of(self, pts: np.ndarray) -> np.ndarray:
        """Flat C-order cell index of one (d,) point or of an (n, d) batch.

        A point outside the box counts in the nearest edge cell.
        """
        return self.nearest_cells(self.floor(pts))

    def floor(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell indices (..., d) of points, not clipped to the box."""
        return np.floor((pts - np.asarray(self.box.lo)) / self.spacing).astype(np.int64)

    def nearest_cells(self, idx: np.ndarray) -> np.ndarray:
        """Flat C-order index of the box cell nearest each ``floor`` index."""
        # maximum and minimum, and the flattening by hand: np.clip and
        # np.ravel_multi_index cost more per call on the sampler's batches
        idx = np.minimum(np.maximum(idx, 0), np.subtract(self.dims, 1))
        flat = idx[..., 0]
        for axis in range(1, len(self.dims)):
            flat = flat * self.dims[axis] + idx[..., axis]
        return flat


def build_grid(box: Box, dx: float, cell_cap: int = CELL_CAP) -> Grid:
    """Cell-centered uniform grid on the box with spacing dx."""
    if not (dx > 0):
        raise ValueError(f"dx must be positive, got {dx}")
    dims = []
    for lo, hi in zip(box.lo, box.hi):
        n = int(round((hi - lo) / dx))
        if n < 1 or abs(n * dx - (hi - lo)) > 1e-9 * (hi - lo):
            raise ValueError(
                f"box extent {hi - lo} is not commensurate with dx = {dx}")
        dims.append(n)
    total = int(np.prod(dims))
    if total > cell_cap:
        raise TooManyCells(f"grid would have {total} cells (cap {cell_cap})")
    return Grid(box=box, spacing=float(dx), dims=tuple(dims))


@dataclass(frozen=True)
class WalkData:
    """Assembly arrays of the walk: S_ij = w c_i c_j on the footprint."""

    c: np.ndarray              # sqrt(g / B), grid-shaped
    foot: np.ndarray           # boolean ball stencil
    w: float                   # cell weight dx^d
    pi: np.ndarray             # stationary law g B / sum(g B), grid-shaped
    boundary_mass: float       # stationary mass within one jump of the edge


@dataclass(frozen=True)
class WittenData:
    """Factor coefficients of the Gram Laplacian, one array per axis."""

    eplus: list                # e^(dphi/2h) over each axis's forward pairs
    eminus: list               # e^(-dphi/2h)
    factor: float              # h / dx


@dataclass
class GridOperator:
    """Symmetric operator on grid functions, with its exact distinguished vector.

    ``stationary_sqrt`` is the unit-norm exact eigenvector of the trivial
    eigenvalue: sqrt of the stationary weights for the walk kinds, the
    discrete Gibbs ground state for the Gram-form Laplacian.  ``data``
    holds the walk's ``WalkData`` or the Laplacian's ``WittenData``.
    ``helper`` is set only on the copy ``split_rows`` makes, whose walk
    applies sum half the grid's rows in a forked process.
    """

    kind: str
    grid: Grid
    h: float
    stationary_sqrt: np.ndarray
    data: WalkData | WittenData = field(repr=False)
    helper: _RowHelper | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n_cells

    def matvec(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, float)
        if self.helper is not None:
            return self.helper.apply(u)
        if self.kind in (WALK_T, WALK_P):
            out = _walk_T_matvec(self.data, self.grid, u)
            if self.kind == WALK_P:
                np.subtract(u, out, out=out)
            return out
        return _witten_matvec(self.data, self.grid, u)

    def tocsr(self):
        """The operator's matrix, with sorted indices, built on each call."""
        if self.kind in (WALK_T, WALK_P):
            s = _walk_T_csr(self.data, self.grid)
            if self.kind == WALK_P:
                s = (sparse.identity(self.n, format="csr") - s).tocsr()
        else:
            s = witten_matrix(self, 0.0).tocsr()
        s.sort_indices()
        return s


# --- walk assembly -------------------------------------------------------------


def _ball_footprint(dim: int, h: float, dx: float) -> np.ndarray:
    """Boolean stencil of cells with |offset| * dx < h (center included)."""
    k = int(math.ceil(h / dx)) - 1          # strict inequality
    offsets = np.meshgrid(*[np.arange(-k, k + 1)] * dim, indexing="ij")
    # sqrt(x * x) is |x| exactly for these integers, so 1D needs no branch
    return np.sqrt(sum(o * o for o in offsets)) * dx < h


def sample(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """phi at the cell centers, grid-shaped: the input of both assemblies."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        phi = potentials.value(spec, grid.points()).reshape(grid.dims)
    if not np.all(np.isfinite(phi)):
        raise potentials.NonFiniteValues(
            f"the potential is not finite on its grid of spacing {grid.spacing}")
    return phi


def _gibbs_sums(phi: np.ndarray, grid: Grid, h: float):
    """g = e^(-(phi - min phi)/h), the ball footprint, and B, dx^d times
    the sum of g over each ball."""
    dx = grid.spacing
    if h < MIN_H_OVER_DX * dx:
        raise BallTooSmall(f"h = {h} must be at least {MIN_H_OVER_DX} dx = "
                           f"{MIN_H_OVER_DX * dx}")
    g = np.exp(-(phi - float(np.min(phi))) / h)
    foot = _ball_footprint(grid.dimension, h, dx)
    return g, foot, dx ** grid.dimension * _correlate(g, foot)


def _stationary(g: np.ndarray, big_b: np.ndarray, grid: Grid, h: float):
    """pi = g B normalized, and its mass within one jump of the box edge."""
    pi = g * big_b
    pi /= np.sum(pi)
    edge = int(math.ceil(h / grid.spacing))
    border = np.ones(grid.dims, dtype=bool)
    border[tuple(slice(edge, n - edge) for n in grid.dims)] = False
    return pi, float(np.sum(pi[border]))


def stationary_law(phi: np.ndarray, grid: Grid, h: float):
    """The walk's normalized stationary law (grid-shaped) and boundary mass.

    It divides by no Gibbs sum, so it holds where ``assemble_walk``
    refuses: a cell whose ball sum underflows to 0 has pi = 0.
    """
    g, _, big_b = _gibbs_sums(phi, grid, h)
    return _stationary(g, big_b, grid, h)


def assemble_walk(phi: np.ndarray, grid: Grid, h: float) -> GridOperator:
    """Symmetrized walk operator on the grid samples ``phi`` (``sample``).

    A cell whose ball's Gibbs sum underflows to 0 raises NonFiniteValues.
    """
    g, foot, big_b = _gibbs_sums(phi, grid, h)
    empty = np.count_nonzero(big_b == 0.0)
    if empty:
        raise potentials.NonFiniteValues(
            f"at h = {h} the Gibbs sum e^(-(phi - min phi)/h) over the ball "
            f"of {empty} cells underflows to 0, so the walk's transition "
            f"probabilities there are 0/0: shrink the box or raise h")
    pi, boundary_mass = _stationary(g, big_b, grid, h)
    v = np.sqrt(g * big_b)
    v = v / np.linalg.norm(v.ravel())
    data = WalkData(c=np.sqrt(g / big_b), foot=foot,
                    w=grid.spacing ** grid.dimension, pi=pi,
                    boundary_mass=boundary_mass)
    return GridOperator(kind=WALK_T, grid=grid, h=float(h),
                        stationary_sqrt=v.ravel(), data=data)


def to_P(op: GridOperator) -> GridOperator:
    """The generator I - S of the symmetrized walk (shares assembly data)."""
    if op.kind != WALK_T:
        raise ValueError(f"to_P expects a {WALK_T} operator, got {op.kind}")
    return GridOperator(kind=WALK_P, grid=op.grid, h=op.h,
                        stationary_sqrt=op.stationary_sqrt, data=op.data)


def _correlate(arr: np.ndarray, foot: np.ndarray) -> np.ndarray:
    """Sum of arr over the stencil around each cell, zero outside the box.

    One shifted add per footprint tap, taps in raster order from zero: the
    sum ``ndimage.correlate`` forms in constant mode, bit for bit.  The
    output keeps the zero-padded input's layout, so each tap's shift is one
    flat offset and its add one contiguous slice.
    """
    k = np.asarray(foot.shape) // 2
    padded = np.zeros(np.add(arr.shape, 2 * k))
    padded[tuple(slice(a, a + m) for a, m in zip(k, arr.shape))] = arr
    flat = padded.ravel()
    # entries up to the last cell: each tap's slice then ends in the padding
    span = np.ravel_multi_index(np.subtract(arr.shape, 1), padded.shape) + 1
    out = np.zeros(padded.size)
    for start in np.ravel_multi_index(np.nonzero(foot), padded.shape).tolist():
        out[:span] += flat[start:start + span]
    return out.reshape(padded.shape)[tuple(map(slice, arr.shape))]


def _prefix_correlate(arr: np.ndarray, foot: np.ndarray) -> np.ndarray:
    """Stencil sum like ``_correlate`` for footprints of centered row segments.

    One prefix sum of each row gives every centered window sum as a
    difference of two of its columns; 2D grids sum their balls through
    ``_BallRows``, and 1D is that one subtraction.  The result is accurate
    relative to the row sums of |arr|, not entry by entry: where arr spans
    many orders of magnitude the small sums lose their digits.  Matvecs can
    afford that; operator assembly keeps the exact ``_correlate``.
    """
    if arr.ndim == 2:
        return _BallRows(foot, arr.shape, 0, arr.shape[0])(arr)
    # _BallRows gives a 1D line, as one row, the same bytes, but through it
    # the sweep_1d benchmark's wall time read 0.096 -> 0.104, 0.102 -> 0.110
    # and 0.102 -> 0.108 s (3 alternating pairs on a 2-vCPU VM, all slower),
    # so 1D keeps its branch.
    n, k = arr.size, foot.size // 2
    half = int(np.count_nonzero(foot)) // 2
    # pre[m] is the sum of the zero-padded line over its first m entries
    pre = np.zeros(n + 2 * k + 1)
    np.cumsum(arr, out=pre[k + 1:k + 1 + n])
    pre[k + 1 + n:] = pre[k + n]
    return pre[k + half + 1:k + half + 1 + n] - pre[k - half:k - half + n]


class _BallRows:
    """Ball sums of a 2D grid function over its rows ``r0`` to ``r1 - 1``.

    One row-wise prefix sum gives every centered window sum as a difference
    of two of its columns.  A ball has few distinct row half-widths (6 of 17
    rows at h = 0.145, dx = 0.018), so the window sums are formed once per
    half-width and added, shifted, into each output row whose ball row of
    that half-width lies in the grid.  Only the rows the balls reach, kr
    either side, are prefix-summed.  Every entry meets the same window sums,
    added in the same order, whatever ``r0`` and ``r1`` are: two instances
    that split the rows give the bits of one over all rows, sign included.

    The buffers and the plan of adds are made once, so an instance kept
    across applies allocates nothing.  Window sums and output keep the
    padded layout of the prefix sums, entry (i, j) at flat i * width + j,
    so a half-width's window sums are one flat subtraction and a row shift
    one flat add; the pad columns only carry values that no entry with
    j < ny reads.
    """

    def __init__(self, foot: np.ndarray, dims: tuple, r0: int, r1: int):
        nx, ny = dims
        k, kr = foot.shape[1] // 2, foot.shape[0] // 2
        self.rows = slice(r0, r1)
        self.reach = slice(max(0, r0 - kr), min(nx, r1 + kr))
        lo = self.reach.start
        self.k, self.ny = k, ny
        width = ny + 2 * k + 1
        # pre[:, m] is the sum of the zero-padded row over its first m entries
        self.pre = np.zeros((self.reach.stop - lo, width))
        self.seg = np.empty(self.pre.size - 2 * k - 1)
        self.out = np.empty((r1 - r0) * width)
        halves = foot.sum(axis=1) // 2
        self.plan = []            # (window ends, [(output, window sums)])
        for half in np.unique(halves).tolist():
            adds = []
            for di in (np.flatnonzero(halves == half) - kr).tolist():
                # the output rows whose ball row i + di is in the grid
                first, last = max(r0, -di), min(r1, nx - di)
                if first < last:
                    m = (last - first) * width - 2 * k - 1
                    dst, src = (first - r0) * width, (first + di - lo) * width
                    adds.append((slice(dst, dst + m), slice(src, src + m)))
            self.plan.append((k + half + 1, k - half, adds))

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        """The sums over the rows' balls, from ``arr`` on the reached rows.

        The result is a view of a buffer that the next call overwrites.
        """
        k, ny, pre, seg, out = self.k, self.ny, self.pre, self.seg, self.out
        np.cumsum(arr, axis=1, out=pre[:, k + 1:k + 1 + ny])
        pre[:, k + 1 + ny:] = pre[:, k + ny:k + 1 + ny]
        del arr                 # frees a temporary input no caller keeps
        flat = pre.ravel()
        out.fill(0.0)
        for start, stop, adds in self.plan:
            np.subtract(flat[start:start + seg.size],
                        flat[stop:stop + seg.size], out=seg)
            for dst, src in adds:
                out[dst] += seg[src]
        return out.reshape(-1, pre.shape[1])[:, :ny]


def _walk_T_matvec(data: WalkData, grid: Grid, u: np.ndarray) -> np.ndarray:
    summed = _prefix_correlate(data.c * u.reshape(grid.dims), data.foot)
    # (w c) summed, rounded as one product per entry
    out = np.multiply(data.c, data.w)
    out *= summed
    return out.ravel()


def _walk_rows(data: WalkData, kind: str, sums: _BallRows, u: np.ndarray,
               out: np.ndarray) -> None:
    """The rows ``sums.rows`` of the walk apply on grid-shaped u, into out.

    Each entry is rounded as in ``GridOperator.matvec``.
    """
    r = sums.rows
    summed = sums(data.c[sums.reach] * u[sums.reach])
    np.multiply(data.c[r], data.w, out=out)
    out *= summed
    if kind == WALK_P:
        np.subtract(u[r], out, out=out)


def _walk_T_csr(data: WalkData, grid: Grid):
    # entries are e_i * e_j with e = sqrt(w) c, so S_ij and S_ji round identically
    e = (math.sqrt(data.w) * data.c).ravel()
    n = grid.n_cells
    k = data.foot.shape[0] // 2
    index = np.arange(n).reshape(grid.dims)
    rows, cols = [], []
    for off in np.argwhere(data.foot) - k:
        # cells i whose neighbor i + off is inside the box, and those neighbors
        rows.append(index[tuple(slice(max(0, -o), max(0, min(m, m - o)))
                                for o, m in zip(off, grid.dims))].ravel())
        cols.append(index[tuple(slice(max(0, o), max(0, min(m, m + o)))
                                for o, m in zip(off, grid.dims))].ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return sparse.csr_matrix((e[rows] * e[cols], (rows, cols)), shape=(n, n))


# --- walk applies over two processes --------------------------------------------

# fewest cells of a 2D walk grid whose applies run in two processes (see
# ``matvec_processes``).  Timing whole walk solves on three_well (one
# process against two, 15-21 alternating trials per grid on a 2-vCPU VM),
# two were faster in 10-15 of 15 trials from 20,164 cells up (median ratio
# 0.89-0.96).  From 10,000 to 16,900 cells the ratio read 0.94-1.08 with a
# helper that sleeps between applies and 0.95-0.98 with one that polls:
# the fork and the pipe round trips ate most of the gain.
SPLIT_MIN_CELLS = 20_000
# seconds the helper polls its wake pipe after an apply before it sleeps on
# it.  Within ARPACK runs on spectrum_2d_walk (2-vCPU VM), a sleeping
# helper woke 90-180 us late (median, p90), 12-14 ms per solve, while
# ARPACK's own work between two applies takes about 1.6 ms
HELPER_POLL_S = 0.005


def usable_cpus() -> int:
    """CPUs this process may run on; 1 without ``fork`` or an affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def matvec_processes(op: GridOperator) -> int:
    """Processes a Krylov solve's applies of ``op`` should run in.

    Two for a walk operator on a 2D grid of at least ``SPLIT_MIN_CELLS``
    cells when this process may use two CPUs: ``split_rows`` then pays.
    One otherwise, 1D grids included.
    """
    split = (op.kind in (WALK_T, WALK_P) and op.grid.dimension == 2
             and op.n >= SPLIT_MIN_CELLS and usable_cpus() >= 2)
    return 2 if split else 1


class _RowHelper:
    """The parent's end of a forked process that sums the grid's last rows.

    Input and output vectors live in one anonymous shared ``mmap``.  Each
    apply copies the rows the helper's balls reach into it, wakes the
    helper with one byte, sums the first ``mid`` rows here, and waits for
    the helper's byte that says rows ``mid`` on are written.  After each
    apply the helper polls its wake pipe for ``HELPER_POLL_S`` before it
    sleeps on it.
    """

    def __init__(self, op: GridOperator):
        self.kind, self.data, self.dims = op.kind, op.data, op.grid.dims
        nx = self.dims[0]
        self.mid = nx // 2
        self.shared = mmap.mmap(-1, 2 * op.n * 8)
        self.vin = np.frombuffer(self.shared, float, op.n).reshape(self.dims)
        self.vout = np.frombuffer(self.shared, float, op.n,
                                  op.n * 8).reshape(self.dims)
        wake_r, self.wake = os.pipe()
        self.done, done_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (wake_r, self.wake, self.done, done_w):
                os.close(fd)
            raise
        if self.pid == 0:
            self._serve(wake_r, done_w)
        os.close(wake_r)
        os.close(done_w)
        # made after the fork, so that no page of it is shared copy-on-write
        self.near = _BallRows(op.data.foot, self.dims, 0, self.mid)
        # the rows the helper's balls reach
        self.far = slice(max(0, self.mid - op.data.foot.shape[0] // 2), nx)

    def _serve(self, wake: int, done: int):
        """Body of the helper: the far rows of one apply per wake byte.

        It never returns, and ``os._exit`` skips the buffers and exit
        handlers it shares with the parent; it ends when the parent closes
        its end of the wake pipe, and if it dies, the parent reads EOF
        instead of its byte.
        """
        code = 1
        try:
            os.close(self.wake)
            os.close(self.done)
            far = _BallRows(self.data.foot, self.dims, self.mid, self.dims[0])
            os.set_blocking(wake, False)
            while _polled_byte(wake, HELPER_POLL_S):
                _walk_rows(self.data, self.kind, far, self.vin,
                           self.vout[far.rows])
                os.write(done, b"\0")
            code = 0
        finally:
            os._exit(code)

    def apply(self, u: np.ndarray) -> np.ndarray:
        shaped = u.reshape(self.dims)
        self.vin[self.far] = shaped[self.far]
        try:
            os.write(self.wake, b"\0")
        except BrokenPipeError:
            self._lost()
        out = np.empty(self.dims)
        _walk_rows(self.data, self.kind, self.near, shaped, out[:self.mid])
        if not os.read(self.done, 1):
            self._lost()
        out[self.mid:] = self.vout[self.mid:]
        return out.ravel()

    def _lost(self):
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        raise MatvecHelperLost(
            f"the process summing rows {self.mid} to {self.dims[0] - 1} of "
            f"each walk apply died (exit status "
            f"{os.waitstatus_to_exitcode(status)})")

    def close(self):
        os.close(self.wake)
        os.close(self.done)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        del self.vin, self.vout         # the mmap closes once nothing views it
        self.shared.close()


def _polled_byte(fd: int, seconds: float) -> bytes:
    """One byte from the non-blocking ``fd``, b"" at end of file.

    The read is retried for ``seconds``, then waited for in ``select``.
    """
    deadline = time.perf_counter() + seconds
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                select.select([fd], [], [])


@contextlib.contextmanager
def split_rows(op: GridOperator):
    """A copy of the 2D walk operator ``op`` whose applies use two processes.

    Within the block, a forked helper sums the ball over the second half of
    the grid's rows of each ``matvec`` while this process sums the first
    half; the result equals ``op.matvec``'s bit for bit.  The helper is
    reaped when the block ends, on every path; if it dies, the apply
    raises MatvecHelperLost.
    """
    if op.kind not in (WALK_T, WALK_P) or op.grid.dimension != 2:
        raise ValueError(f"split_rows expects a 2D walk operator, got "
                         f"{op.kind} in {op.grid.dimension}D")
    helper = _RowHelper(op)
    try:
        yield replace(op, helper=helper)
    finally:
        helper.close()


# --- twisted-difference Gram Laplacian ----------------------------------------


def require_resolution(dx: float, h: float) -> None:
    """Raise ResolutionError unless dx <= sqrt(h)/10, the Witten grid rule."""
    if dx > math.sqrt(h) / 10.0:
        raise ResolutionError(
            f"dx = {dx} too coarse for h = {h}; need dx <= sqrt(h)/10 = "
            f"{math.sqrt(h) / 10:.4g}")


def assemble_witten(phi: np.ndarray, grid: Grid, h: float) -> GridOperator:
    """Gram-form twisted difference Laplacian whose kernel is the Gibbs state.

    Each factor acts along one axis on cells that have a forward neighbor:

        (L u)_i = (h/dx) * (u_fwd * e^(dphi/2h) - u * e^(-dphi/2h)),

    dphi the forward difference of the grid samples ``phi`` (``sample``).
    Rows without a forward neighbor
    are omitted (homogeneous truncation).  The vector e^(-(phi-min)/h) is
    an exact null vector of every factor up to rounding.
    """
    dx = grid.spacing
    require_resolution(dx, h)
    phi_min = float(np.min(phi))
    eplus, eminus = [], []
    for axis in range(grid.dimension):
        dphi = np.diff(phi, axis=axis)
        eplus.append(np.exp(dphi / (2.0 * h)))
        eminus.append(np.exp(-dphi / (2.0 * h)))
    # the kernel exponent spans hundreds of units; extended precision keeps
    # the neighbor-to-neighbor rounding of exp below the residual budget
    wide = np.exp(-(phi.ravel() - phi_min).astype(np.longdouble) / np.longdouble(h))
    kernel = (wide / np.sqrt(np.sum(wide * wide))).astype(float)
    return GridOperator(kind=WITTEN0, grid=grid, h=float(h),
                        stationary_sqrt=kernel,
                        data=WittenData(eplus=eplus, eminus=eminus,
                                        factor=h / dx))


def _witten_matvec(data: WittenData, grid: Grid, u: np.ndarray) -> np.ndarray:
    shaped = u.reshape(grid.dims)
    out = np.zeros_like(shaped)
    f = data.factor
    for axis in range(grid.dimension):
        ep = data.eplus[axis]
        em = data.eminus[axis]
        fwd = _shift_view(shaped, axis)
        lu = f * (fwd * ep - _trim_view(shaped, axis) * em)
        # transpose factor: scatter back onto base and forward cells
        _trim_view(out, axis)[...] += -f * em * lu
        _shift_view(out, axis)[...] += f * ep * lu
    return out.ravel()


def _shift_view(arr, axis):
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(1, None)
    return arr[tuple(sl)]


def _trim_view(arr, axis):
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(0, -1)
    return arr[tuple(sl)]


def witten_matrix(op: GridOperator, shift: float):
    """The Gram Laplacian minus shift*I in CSC, built afresh and not cached.

    The matrix is the (2d+1)-point stencil of sum_j L_j^T L_j, written
    straight from the factor coefficients a = (h/dx) e^(-dphi/2h) and
    b = (h/dx) e^(dphi/2h): a^2 + b^2 on the diagonal, -a b between forward
    neighbors.  Each entry rounds exactly as in the product L^T L, so each
    axis's squares are summed into that axis's term before the terms are
    added.  The matrix is symmetric, so its CSR and CSC arrays agree.
    """
    if op.kind != WITTEN0:
        raise ValueError(f"expects a {WITTEN0} operator, got {op.kind}")
    data, dims, n = op.data, op.grid.dims, op.n
    diag = np.zeros(dims)
    bands, offsets = [], []
    for axis in range(op.grid.dimension):
        if dims[axis] == 1:
            # no forward pairs, and a stride that diags would see twice
            continue
        a = data.factor * data.eminus[axis]
        b = data.factor * data.eplus[axis]
        term = np.zeros(dims)
        _trim_view(term, axis)[...] += a * a
        _shift_view(term, axis)[...] += b * b
        diag += term
        # entry (i, i + stride) for every cell i with a forward neighbor;
        # the zeros of cells without one are dropped by the conversion
        stride = int(np.prod(dims[axis + 1:]))
        band = np.zeros(dims)
        _trim_view(band, axis)[...] = b * -a
        bands += [band.ravel()[:n - stride]] * 2
        offsets += [-stride, stride]
    m = sparse.diags([diag.ravel() - shift] + bands, [0] + offsets,
                     shape=(n, n), format="csr")
    return m.T      # the CSC matrix on the same arrays, which is m itself
