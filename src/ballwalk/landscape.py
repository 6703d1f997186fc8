"""Landscape analysis: critical points, sublevel-set persistence, labeling.

A merge event of 0-dimensional sublevel-set persistence (grid cells swept
in increasing value order, elder rule) is exactly a separating saddle of
the landscape: the two components that touch there were, just below the
merge value, different connected components of the sublevel set.  The
sweep never visits cells one by one: it locates the merge ranks by
bisection on component counts of the sublevel sets.  In 1D a component is
a run of cells, counted with numpy; only 2D grids load ``scipy.ndimage``
for their labeling, and only when they label.
The labeling pairs each non-global minimum with the saddle at which its
component dies, and the barrier heights S_k are read off the
Newton-refined critical values, not the raw grid samples.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gridop, potentials
from .potentials import Box, PotentialSpec

COARSE_SPACING = 0.05        # spacing of the grid that seeds Newton
NEWTON_TOLERANCE = 1e-12
MAX_NEWTON_ITER = 60         # gradients a Newton seed may take to converge
CELL_CAP = 40_000_000


class NonMorseCritical(RuntimeError):
    """A detected critical point has a near-zero Hessian eigenvalue."""


class AmbiguousMatch(RuntimeError):
    """A persistence event cell matches zero or several critical points.

    Fatal: refine the landscape grid or adjust match_radius.
    """


class BoundaryMergeError(RuntimeError):
    """A merge event sits on the box boundary; the box is too small."""


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, ...]
    value: float
    index: int                      # number of negative Hessian eigenvalues
    hessian_eigs: tuple[float, ...]  # sorted ascending
    hessian_det: float

    def as_array(self) -> np.ndarray:
        return np.asarray(self.location, float)


@dataclass(frozen=True)
class MergeEvent:
    birth_cell: tuple[int, ...]
    birth_value: float
    merge_cell: tuple[int, ...]
    merge_value: float

    @property
    def persistence(self) -> float:
        return self.merge_value - self.birth_value


@dataclass(frozen=True)
class PersistencePairing:
    """Merge events of the sublevel-set sweep, plus the surviving component."""

    events: tuple[MergeEvent, ...]        # sorted by decreasing persistence
    survivor_cell: tuple[int, ...]        # birth cell of the global component


@dataclass(frozen=True)
class LandscapeLabeling:
    """Paired minima and separating saddles with Arrhenius numbers.

    ``pairs[k-1] = (k, minimum, saddle_or_None, S_k)`` with the global
    minimum first (saddle None, S infinite) and S strictly decreasing
    afterwards.  ``values`` are the samples of phi on ``grid`` that the
    persistence sweep ran on.
    """

    pairs: tuple                # (k, CriticalPoint, CriticalPoint | None, S_k)
    values: np.ndarray          # grid-shaped samples of phi
    grid: gridop.Grid           # the cells values and component_ids index
    n0: int
    n1: int
    non_separating: tuple[CriticalPoint, ...] = ()
    warnings: tuple[str, ...] = ()

    @functools.cached_property
    def component_ids(self) -> np.ndarray:
        """The merge-level well partition of ``grid``, built on first use.

        Each cell carries the 1-based index of the deepest well E_k that
        contains it when E_k is flooded to its own merge level, and cells
        above every merge level carry the index of the nearest minimum.
        Only the sampler reads it, so a labeling that never samples never
        builds it.
        """
        return _merge_level_partition(self.values, self.grid, self.pairs)


# --- critical points ---------------------------------------------------------


def find_critical_points(spec: PotentialSpec, box: Box,
                         coarse_spacing: float = COARSE_SPACING):
    """Locate and classify all critical points inside the box.

    Newton iterations are seeded from every coarse-grid cell whose discrete
    gradient norm is a local minimum; converged points are deduplicated and
    classified by Hessian inertia.  Returns (points, diagnostics) where
    diagnostics lists the seeds whose iteration left the box or failed.
    """
    seeds = _newton_seeds(spec, box, coarse_spacing)
    found, failures = _newton(spec, box, seeds, NEWTON_TOLERANCE,
                              MAX_NEWTON_ITER)

    points = []
    for x in found:
        h = potentials.hessian(spec, x)
        eigs = np.linalg.eigvalsh(np.atleast_2d(h))
        location = tuple(float(v) for v in x)
        if np.min(np.abs(eigs)) <= potentials.MORSE_TOLERANCE:
            raise NonMorseCritical(
                f"critical point at {location} has Hessian eigenvalue "
                f"{eigs[np.argmin(np.abs(eigs))]:.3e}")
        points.append(CriticalPoint(
            location=location,
            value=float(potentials.value(spec, x)),
            index=int(np.sum(eigs < 0)),
            hessian_eigs=tuple(float(e) for e in np.sort(eigs)),
            hessian_det=float(np.prod(eigs)),
        ))
    points.sort(key=lambda p: (p.index, p.value, p.location))
    return points, failures


def newton_seed_count(box: Box, coarse_spacing: float) -> float:
    """Points of the grid that seeds Newton, as ``_newton_seeds`` lays it out.

    A float, so that a spacing too fine for any grid still counts.
    """
    lo, hi = np.asarray(box.lo, float), np.asarray(box.hi, float)
    per_axis = np.ceil((hi - (lo + coarse_spacing / 2)) / coarse_spacing)
    return float(np.prod(np.maximum(per_axis, 0.0)))


def _newton_seeds(spec: PotentialSpec, box: Box,
                  coarse_spacing: float) -> np.ndarray:
    """Coarse cell centers whose gradient norm is a local minimum, (m, d)."""
    d = spec.dimension
    axes = [np.arange(lo + coarse_spacing / 2, hi, coarse_spacing)
            for lo, hi in zip(box.lo, box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        g = potentials.gradient(spec, pts)
        gn = np.sqrt(np.sum(g * g, axis=1)).reshape([len(a) for a in axes])
    if not np.all(np.isfinite(gn)):
        raise potentials.NonFiniteValues(
            f"the potential's gradient norm is not finite on its grid of "
            f"spacing {coarse_spacing}")
    # at most every in-grid axis neighbour; min is exact, so == is that test
    return pts.reshape(gn.shape + (d,))[gn == _cross_minimum(gn)]


def _newton(spec: PotentialSpec, box: Box, seeds: np.ndarray, tolerance: float,
            max_iter: int):
    """Damped Newton on the gradient from all seeds at once.

    Each seed iterates as if alone: it converges once its gradient norm is
    at most ``tolerance``, and fails when its Hessian is singular, its step
    leaves the box or ``max_iter`` gradients pass without convergence.
    Norms are taken seed by seed with ``np.linalg.norm``, so every point
    comes out bit for bit as from a one-seed loop.  Returns the converged
    points, duplicates dropped, and the failed seeds, both in seed order.
    """
    x = np.array(seeds, float)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    active = np.arange(len(x))
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(max_iter):
        gx = potentials.gradient(spec, x[active])
        done = np.array([np.linalg.norm(g) <= tolerance for g in gx], bool)
        converged[active[done]] = True
        active, gx = active[~done], gx[~done]
        if not active.size:
            break
        hx = potentials.hessian(spec, x[active])
        # the LU of slogdet meets a zero pivot exactly where solve would
        # raise, so singular seeds drop out before the one batched solve
        solvable = np.linalg.slogdet(hx)[0] != 0
        active, gx, hx = active[solvable], gx[solvable], hx[solvable]
        step = np.linalg.solve(hx, -gx[..., None])[..., 0]
        # damp absurd steps so seeds near inflection lines don't explode
        norm = np.array([np.linalg.norm(s) for s in step])
        big = norm > 0.5
        step[big] = step[big] * (0.5 / norm[big])[:, None]
        x[active] = x[active] + step
        inside = np.all((x[active] >= lo) & (x[active] <= hi), axis=1)
        active = active[inside]

    found = []
    for xi in x[converged]:
        if any(np.linalg.norm(xi - p) <= 10 * tolerance for p in found):
            continue
        found.append(xi)
    failures = [tuple(float(v) for v in seed) for seed in seeds[~converged]]
    return found, failures


# --- persistence sweep -------------------------------------------------------


def persistence_sweep(values: np.ndarray) -> PersistencePairing:
    """Sublevel-set sweep of grid values in increasing order (elder rule).

    ``values`` is a grid-shaped array; adjacency is axis-neighborhood.
    Cells enter the sublevel set by rank (value ascending, flat index on
    ties).  A component is born at each cell ranked below all its
    neighbors; when a cell touches several components, the one with the
    earliest birth survives and each other one dies there, in a merge event
    recording the connecting cell and its value.  Merge ranks are found by
    bisection on births minus components of {rank < r}, a count that never
    falls and rises exactly at the merge ranks, so a sweep costs
    O(m log n) labels for m births.
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
    rank = rank.reshape(shape)
    births = np.sort(rank[rank == _cross_minimum(rank)])

    def merges(r):
        return int(np.searchsorted(births, r)) - _components(rank < r)[1]

    merge_ranks = []

    def bisect(lo, m_lo, hi, m_hi):
        if m_lo == m_hi:
            return
        if hi - lo == 1:
            merge_ranks.append(hi - 1)
            return
        mid = (lo + hi) // 2
        m_mid = merges(mid)
        bisect(lo, m_lo, mid, m_mid)
        bisect(mid, m_mid, hi, m_hi)

    # every birth but one has died once the whole grid is in
    bisect(0, 0, n, births.size - 1)

    def cell(r):
        return tuple(int(v) for v in np.unravel_index(order[r], shape))

    unit = np.eye(values.ndim, dtype=np.int64)
    offsets = np.concatenate([unit, -unit])
    events = []
    for r in merge_ranks:
        labels, _ = _components(rank < r)
        nbs = np.asarray(cell(r)) + offsets
        nbs = nbs[np.all((nbs >= 0) & (nbs < shape), axis=1)]
        touching = np.unique(labels[tuple(nbs.T)])
        born = np.sort([rank[labels == t].min() for t in touching if t > 0])
        for b in born[1:]:
            events.append(MergeEvent(
                birth_cell=cell(b),
                birth_value=float(flat[order[b]]),
                merge_cell=cell(r),
                merge_value=float(flat[order[r]]),
            ))

    events.sort(key=lambda e: (-e.persistence, e.birth_cell))
    return PersistencePairing(
        events=tuple(events),
        survivor_cell=cell(0),
    )


def _cross_minimum(a: np.ndarray) -> np.ndarray:
    """Minimum over each cell and its axis neighbours, edges replicated."""
    out = a.copy()
    for axis in range(a.ndim):
        o, v = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
        np.minimum(o[1:], v[:-1], out=o[1:])
        np.minimum(o[:-1], v[1:], out=o[:-1])
    return out


def _components(mask: np.ndarray):
    """Axis-connected components of a boolean grid: (labels, count).

    Labels run 1..count in raster order of each component's first cell, 0
    off the mask, as ``ndimage.label`` numbers them.  In 1D a component is
    a run, numbered by the running count of run starts.
    """
    if mask.ndim > 1:
        from scipy import ndimage

        return ndimage.label(mask)
    starts = mask.copy()
    starts[1:] &= ~mask[:-1]
    labels = np.cumsum(starts)
    labels[~mask] = 0
    return labels, int(np.count_nonzero(starts))


# --- labeling ----------------------------------------------------------------


def label_landscape(critical, pairing: PersistencePairing, values: np.ndarray,
                    grid: gridop.Grid,
                    match_radius: float) -> LandscapeLabeling:
    """Assemble the pairs (m_k, s_k, S_k) from critical points and merge events.

    ``values`` are the grid samples the sweep ran on, and ``grid`` their
    cells.  Every merge cell must match exactly one index-1 critical point
    within ``match_radius``, and every birth cell exactly one minimum;
    anything else is fatal (AmbiguousMatch), instructing grid refinement.
    S_k comes from the refined critical values; pairs are relabeled so S
    is decreasing.
    """
    minima = [c for c in critical if c.index == 0]
    saddles1 = [c for c in critical if c.index == 1]

    def match_one(cell, cands, what):
        x = grid.coordinate(cell).tolist()
        hits = [c for c in cands
                if np.linalg.norm(x - c.as_array()) <= match_radius]
        if len(hits) != 1:
            raise AmbiguousMatch(
                f"{what} cell at {tuple(round(v, 6) for v in x)} matches "
                f"{len(hits)} critical points within radius {match_radius}; "
                f"refine the landscape grid")
        return hits[0]

    for ev in pairing.events:
        if any(c == 0 or c == s - 1 for c, s in zip(ev.merge_cell, grid.dims)):
            raise BoundaryMergeError(
                f"merge event at boundary cell {ev.merge_cell}; "
                f"the box is too small for this landscape")

    survivor_min = match_one(pairing.survivor_cell, minima, "survivor birth")
    raw_pairs = []
    for ev in pairing.events:
        m = match_one(ev.birth_cell, minima, "birth")
        s = match_one(ev.merge_cell, saddles1, "merge")
        raw_pairs.append((m, s, s.value - m.value))

    expected = len(minima) - 1
    if len(raw_pairs) != expected:
        raise AmbiguousMatch(
            f"{len(raw_pairs)} merge events for {len(minima)} minima; "
            f"expected {expected}")

    raw_pairs.sort(key=lambda t: -t[2])
    pairs = [(1, survivor_min, None, math.inf)]
    for j, (m, s, S) in enumerate(raw_pairs, start=2):
        pairs.append((j, m, s, S))

    non_sep = tuple(s for s in saddles1 if s not in [p[1] for p in raw_pairs])
    return LandscapeLabeling(
        pairs=tuple(pairs),
        values=values,
        grid=grid,
        n0=len(minima),
        n1=len(saddles1),
        non_separating=non_sep,
    )


def _merge_level_partition(values: np.ndarray, grid: gridop.Grid,
                           pairs) -> np.ndarray:
    """Well partition: deepest merge-level component, ties to nearest minimum.

    The global well's core is the component of m_1 at the highest finite
    merge level; each E_k (k >= 2) is filled at its own merge level, deeper
    components overwriting the enclosing ones; every remaining cell (above
    all merge levels) goes to the nearest minimum.
    """
    # the grid undershoots the refined saddle value by up to |mu| dx^2/8 at
    # the saddle cell; flooding strictly below sigma - |mu| dx^2 keeps that
    # cell out so the two valleys stay disconnected
    dx2 = grid.spacing ** 2

    def flood_level(s):
        mu = max(abs(e) for e in s.hessian_eigs)
        return s.value - max(1e-12, mu * dx2)

    well = np.zeros(values.shape, dtype=np.int32)
    finite = [(k, m, s) for (k, m, s, S) in pairs if s is not None]
    if finite:
        top = max(finite, key=lambda t: t[2].value)[2]
        lab, _ = _components(values < flood_level(top))
        m1 = pairs[0][1]
        comp = lab.flat[grid.cells_of(m1.location)]
        if comp:
            well[lab == comp] = 1
        for k, m, s in sorted(finite):
            lab, _ = _components(values < flood_level(s))
            comp = lab.flat[grid.cells_of(m.location)]
            if comp:
                well[lab == comp] = k

    leftovers = well == 0
    if np.any(leftovers):
        mins = np.array([m.location for (_, m, _, _) in pairs])
        pts = grid.points()[leftovers.ravel()]
        d2 = ((pts[:, None, :] - mins[None, :, :]) ** 2).sum(axis=2)
        well[leftovers] = np.argmin(d2, axis=1).astype(np.int32) + 1
    return well


def label_potential(spec: PotentialSpec, box: Box, dx: float,
                    coarse_spacing: float = COARSE_SPACING,
                    match_radius: float | None = None,
                    cell_cap: int = CELL_CAP) -> LandscapeLabeling:
    """End-to-end labeling of a potential on a box at grid resolution dx;
    merge events below their ``_floor`` are discarded with a warning."""
    grid = gridop.build_grid(box, dx, cell_cap=cell_cap)
    vals = gridop.sample(spec, grid)

    critical, failures = find_critical_points(
        spec, box, coarse_spacing=coarse_spacing)
    pairing = persistence_sweep(vals)
    kept, warnings = [], []
    for ev in pairing.events:
        floor = _floor(vals, ev)
        if ev.persistence >= floor:
            kept.append(ev)
        else:
            warnings.append(
                f"discarded merge event with persistence {ev.persistence:.3e} "
                f"below the discretization floor {floor:.3e}")
    if match_radius is None:
        match_radius = max(5 * dx, 0.05)
    labeling = label_landscape(critical, dataclasses.replace(
        pairing, events=tuple(kept)), vals, grid, match_radius)
    warnings += [f"newton seed at {f} did not converge" for f in failures]
    return dataclasses.replace(labeling, warnings=tuple(warnings))


def _floor(values: np.ndarray, ev: MergeEvent) -> float:
    """2 (osc(birth cell) + osc(merge cell)): the grid error that persistence
    stability (Cohen-Steiner, Edelsbrunner & Harer 2007) allows the event,
    where osc(c) is half the sum over the axes of the largest |step| in
    ``values`` from c to an in-grid axis neighbour."""
    def line(c, a):         # c and its in-grid neighbours along axis a
        return values[c[:a] + (slice(max(c[a] - 1, 0), c[a] + 2),) + c[a + 1:]]

    return sum(float(np.max(np.abs(line(c, a) - values[c])))
               for c in (ev.birth_cell, ev.merge_cell) for a in range(len(c)))
