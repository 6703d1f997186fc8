import math
import os
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ballwalk import gridop, potentials
from ballwalk.gridop import (BallTooSmall, ResolutionError, TooManyCells,
                             build_grid)
from ballwalk.potentials import Box


def test_build_grid_dims(box1d):
    g = build_grid(box1d, 0.001)
    assert g.dims == (4000,)
    g2 = build_grid(Box.from_pairs([(-2, 2), (-2, 2)]), 0.02)
    assert g2.dims == (200, 200)


def test_build_grid_rejects_bad_dx(box1d):
    with pytest.raises(ValueError):
        build_grid(box1d, 0.0)
    with pytest.raises(ValueError):
        build_grid(box1d, -0.1)


def test_build_grid_cell_cap():
    with pytest.raises(TooManyCells):
        build_grid(Box.from_pairs([(-2, 2), (-2, 2)]), 0.001)


def test_grid_roundtrip(box1d):
    g = build_grid(box1d, 0.001)
    for i in (0, 17, 3999):
        x = g.coordinate([i])
        assert g.cells_of(x) == i
    pts = g.points()
    assert pts.shape == (4000, 1)
    assert np.array_equal(g.cells_of(pts), np.arange(4000))


def test_ball_too_small(dwt, box1d):
    g = build_grid(box1d, 0.01)
    with pytest.raises(BallTooSmall):
        gridop.assemble_walk(gridop.sample(dwt, g), g, 0.05)


def test_walk_exact_eigenpair(dwt, box1d):
    g = build_grid(box1d, 0.005)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    v = op.stationary_sqrt
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(op.matvec(v) - v) <= 1e-13


def test_walk_row_sums_exact(dwt, box1d):
    g = build_grid(box1d, 0.005)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    rows = oracles.walk_row_sums(op)
    assert rows.size == g.n_cells
    assert np.max(np.abs(rows - 1.0)) <= 1e-14


def test_walk_symmetry_bitwise(dwt, box1d):
    g = build_grid(box1d, 0.01)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    s = op.tocsr()
    diff = (s - s.T).tocoo()
    assert diff.nnz == 0


def test_walk_detailed_balance(dwt, box1d):
    g = build_grid(box1d, 0.01)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.12)
    pi = op.data.pi.ravel()
    s = op.tocsr()
    # t_ij = S_ij sqrt(pi_j / pi_i); flux pi_i t_ij must be symmetric
    t = s.multiply(1.0 / np.sqrt(pi)[:, None]).multiply(np.sqrt(pi)[None, :])
    flux = t.multiply(pi[:, None])
    diff = (flux - flux.T).tocoo()
    # reconstruction of t from S reintroduces ~1 ulp of rounding
    asym = 0.0 if diff.nnz == 0 else np.max(np.abs(diff.data))
    assert asym <= 1e-15 * flux.max()


def test_walk_constant_potential_uniform_rows():
    const = potentials.polynomial([((0,), 2.0)])
    g = build_grid(Box.from_pairs([(-1, 1)]), 0.01)
    op = gridop.assemble_walk(gridop.sample(const, g), g, 0.1)
    s = op.tocsr().toarray()
    # interior rows of the stochastic matrix are uniform over the stencil
    interior = s[100]
    nz = interior[interior > 0]
    assert np.allclose(nz, nz[0])
    # doubly stochastic on the interior
    assert np.sum(interior) == pytest.approx(1.0, abs=1e-12)


def test_walk_matvec_matches_csr(dwt, box1d):
    g = build_grid(box1d, 0.005)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    s = op.tocsr()
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(g.n_cells)
        assert np.max(np.abs(op.matvec(u) - s @ u)) < 1e-13


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("dx", [0.125, 0.01])
@pytest.mark.parametrize("ratio", [8, 8.5, 9])      # 9: offsets on the edge
def test_ball_footprint_is_the_open_ball(dim, dx, ratio):
    h = ratio * dx
    foot = gridop._ball_footprint(dim, h, dx)
    k = foot.shape[0] // 2
    assert foot.shape == (2 * k + 1,) * dim
    assert foot[(0,) + (k,) * (dim - 1)]        # no all-False rim
    # |offset| dx < h over a window wider than the ball, the footprint
    # centered in it and False around it
    r = int(np.ceil(ratio)) + 2
    window = np.zeros((2 * r + 1,) * dim, dtype=bool)
    window[(slice(r - k, r + k + 1),) * dim] = foot
    for off in np.ndindex(window.shape):
        inside = math.hypot(*(o - r for o in off)) * dx < h
        assert window[off] == inside, off


@pytest.mark.parametrize("dim,h,dx,shape", [
    pytest.param(1, 0.1, 0.005, (301,), id="1-0.1-0.005"),
    pytest.param(1, 0.06, 0.004, (301,), id="1-0.06-0.004"),
    pytest.param(2, 0.145, 0.018, (41, 37), id="2-0.145-0.018"),
    pytest.param(2, 0.5, 0.06, (41, 37), id="2-0.5-0.06"),
    # 29 rows with 9 half-widths, and the shipped 2D sweep's footprint at
    # h = 0.145 (23 rows, 7 half-widths)
    pytest.param(2, 0.145, 0.01, (41, 37), id="2-0.145-0.01"),
    pytest.param(2, 0.145, 0.0125, (41, 37), id="2-0.145-0.0125"),
    # fewer grid rows than footprint rows: shifts of 6 rows or more miss
    pytest.param(2, 0.145, 0.018, (6, 37), id="2-0.145-0.018-clipped"),
])
def test_prefix_correlate_matches_ndimage(dim, h, dx, shape):
    from scipy import ndimage

    foot = gridop._ball_footprint(dim, h, dx)
    rng = np.random.default_rng(11 + dim)
    eps = np.finfo(float).eps
    for _ in range(5):
        # entries spread over 13 orders of magnitude, both signs
        arr = rng.standard_normal(shape) * 10.0 ** rng.uniform(-13, 0, shape)
        want = ndimage.correlate(arr, foot.astype(float), mode="constant",
                                 cval=0.0)
        got = gridop._prefix_correlate(arr, foot)
        # each footprint row costs a few roundings of its row's |arr| sum
        rowsum = np.abs(arr).reshape(-1, shape[-1]).sum(axis=1)
        band = ndimage.correlate1d(rowsum, np.ones(len(foot) if dim == 2
                                                   else 1), mode="constant")
        bound = 64 * eps * band[:, None]
        assert got.shape == arr.shape
        assert np.all(np.abs(got - want) <= bound)
        if dim == 1:
            # one footprint row: the same subtraction as row by row
            assert np.array_equal(got, oracles.row_prefix_correlate(arr, foot))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), k=st.integers(1, 6),
       cells=st.tuples(st.integers(1, 30), st.integers(1, 30)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_correlate_matches_ndimage_bitwise(dim, k, cells, seed):
    from scipy import ndimage

    # the ball footprint of k cells per side, on grids smaller and larger
    # than it, with entries over 13 orders of magnitude and both signs
    foot = gridop._ball_footprint(dim, k + 0.5, 1.0)
    shape = cells[:dim]
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape) * 10.0 ** rng.uniform(-13, 0, shape)
    want = ndimage.correlate(arr, foot.astype(float), mode="constant",
                             cval=0.0)
    assert np.array_equal(gridop._correlate(arr, foot), want)


def test_walk_2d_solve_matches_row_oracle_kernel(three_well, monkeypatch):
    from ballwalk import eigen

    g = build_grid(Box.from_pairs([(-1.8, 1.8), (-1.8, 1.8)]), 0.036)
    top = gridop.assemble_walk(gridop.sample(three_well, g), g, 0.3)
    assert top.data.boundary_mass > 1e-12
    op = gridop.to_P(top)
    got = eigen.smallest_eigs(op, count=4, tol=1e-11)
    monkeypatch.setattr(gridop, "_prefix_correlate",
                        oracles.row_prefix_correlate)
    want = eigen.smallest_eigs(op, count=4, tol=1e-11)
    assert got.iterations > 0 and want.iterations > 0
    for a, b, r in zip(got.eigenvalues, want.eigenvalues, want.residual_norms):
        assert abs(a - b) <= max(1e-14, r)


def test_walk_assembly_exact_where_gibbs_underflows(dwt):
    # phi climbs to about 47 at the right edge, so at h = 0.06 the Gibbs
    # weight there underflows; the exact stencil still sees the weights
    # inside each ball, where a prefix-sum difference would cancel to 0
    g = build_grid(Box.from_pairs([(-2.0, 2.8)]), 0.004)
    phi = gridop.sample(dwt, g)
    assert np.any(np.exp(-(phi - phi.min()) / 0.06) == 0.0)
    op = gridop.assemble_walk(phi, g, 0.06)
    # c = sqrt(g / B) is 0 / 0 wherever a ball's weights sum to 0
    assert np.all(np.isfinite(op.data.c))
    rs = oracles.walk_row_sums(op)
    assert np.max(np.abs(rs - 1.0)) <= 1e-14


def test_walk_2d_matvec_matches_csr(three_well, box2d):
    g = build_grid(box2d, 0.06)
    op = gridop.assemble_walk(gridop.sample(three_well, g), g, 0.5)
    s = op.tocsr()
    rng = np.random.default_rng(4)
    u = rng.standard_normal(g.n_cells)
    assert np.max(np.abs(op.matvec(u) - s @ u)) < 1e-12
    diff = (s - s.T).tocoo()
    assert diff.nnz == 0


def test_walk_matvec_matches_csr_on_grid_narrower_than_ball(three_well):
    # 5 rows against a footprint of 17: most row offsets leave the grid
    g = build_grid(Box.from_pairs([(-0.15, 0.15), (-2.4, 2.4)]), 0.06)
    op = gridop.assemble_walk(gridop.sample(three_well, g), g, 0.5)
    s = op.tocsr()
    u = np.random.default_rng(6).standard_normal(g.n_cells)
    assert np.max(np.abs(op.matvec(u) - s @ u)) < 1e-12
    assert (s - s.T).nnz == 0


def test_to_P(dwt, box1d):
    g = build_grid(box1d, 0.005)
    top = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    p = gridop.to_P(top)
    v = p.stationary_sqrt
    assert np.linalg.norm(p.matvec(v)) <= 1e-13
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = rng.standard_normal(g.n_cells)
        u /= np.linalg.norm(u)
        assert u @ p.matvec(u) >= -1e-12
    with pytest.raises(ValueError):
        gridop.to_P(p)


def test_P_spectrum_range(dwt, box1d):
    g = build_grid(box1d, 0.02)
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g), g, 0.2))
    vals = np.linalg.eigvalsh(p.tocsr().toarray())
    assert vals[-1] <= 2.0 + 1e-12
    assert vals[0] >= -1e-12


def test_boundary_mass_warning():
    # a box so tight that Gibbs mass leaks to the edge: assembly reports the
    # mass within one jump of the edge, and raises nothing for it
    spec = potentials.builtin("single_well")
    g = build_grid(Box.from_pairs([(-1, 1)]), 0.01)
    op = gridop.assemble_walk(gridop.sample(spec, g), g, 0.3)
    assert op.data.boundary_mass > 1e-12


def test_witten_resolution_guard(dwt, box1d):
    g = build_grid(box1d, 0.01)
    with pytest.raises(ResolutionError):
        gridop.assemble_witten(gridop.sample(dwt, g), g, 0.005)


def test_witten_exact_kernel(dwt, box1d):
    g = build_grid(box1d, 0.002)
    op = gridop.assemble_witten(gridop.sample(dwt, g), g, 0.1)
    k = op.stationary_sqrt
    assert np.linalg.norm(op.matvec(k)) <= 1e-12


def test_witten_psd_and_symmetric(dwt, box1d):
    g = build_grid(box1d, 0.01)
    op = gridop.assemble_witten(gridop.sample(dwt, g), g, 0.1)
    s = op.tocsr()
    diff = (s - s.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.standard_normal(g.n_cells)
        assert u @ op.matvec(u) >= -1e-12 * (u @ u)


def test_witten_harmonic_spectrum():
    # phi = x^2/2: spectrum {0, 2h, 4h, ...}
    ho = potentials.polynomial([((2,), 0.5)])
    g = build_grid(Box.from_pairs([(-3, 3)]), 0.001)
    h = 0.1
    s = gridop.assemble_witten(gridop.sample(ho, g), g, h).tocsr()
    # the 1D Gram Laplacian is tridiagonal: LAPACK's subset solve on its bands
    vals = scipy.linalg.eigvalsh_tridiagonal(
        s.diagonal(), s.diagonal(1), select="i", select_range=(0, 3))
    assert abs(vals[0]) < 1e-10
    for n, v in enumerate(vals[1:], start=1):
        assert v == pytest.approx(2 * n * h, rel=0.02)


def test_witten_matvec_matches_csr(dwt, box1d):
    g = build_grid(box1d, 0.005)
    op = gridop.assemble_witten(gridop.sample(dwt, g), g, 0.1)
    s = op.tocsr()
    rng = np.random.default_rng(6)
    u = rng.standard_normal(g.n_cells)
    assert np.max(np.abs(op.matvec(u) - s @ u)) < 1e-10 * np.abs(s).max()


def _witten_case(dims, dwt, three_well):
    """(spec, grid, h) of a 1D, a 2D and a one-cell-wide 2D Gram Laplacian."""
    if dims == 1:
        return dwt, build_grid(Box.from_pairs([(-2, 2)]), 0.004), 0.1
    if dims == 2:
        box, dx = Box.from_pairs([(-1.8, 1.8)] * 2), 0.036
    else:
        box, dx = Box.from_pairs([(-1.8, 1.8), (0.0, 0.018)]), 0.018
    return three_well, build_grid(box, dx), 0.145


@pytest.mark.parametrize("dims", [1, 2, "2x1"])
def test_witten_stencil_equals_gram_product(dwt, three_well, dims):
    # the stencil is written from the factor coefficients; every entry must
    # round exactly as in the product of the factors
    spec, g, h = _witten_case(dims, dwt, three_well)
    op = gridop.assemble_witten(gridop.sample(spec, g), g, h)
    s = op.tocsr()
    ref = oracles.witten_gram_product(op)
    assert np.array_equal(s.indptr, ref.indptr)
    assert np.array_equal(s.indices, ref.indices)
    assert np.array_equal(s.data, ref.data)


@pytest.mark.parametrize("dims", [1, 2])
def test_shifted_witten_csc(dwt, three_well, dims):
    # the matrix splu factors: the product of the factors minus shift on
    # the diagonal, entry for entry
    spec, g, h = _witten_case(dims, dwt, three_well)
    phi = gridop.sample(spec, g)
    op = gridop.assemble_witten(phi, g, h)
    shift = -0.07 * h
    m = gridop.witten_matrix(op, shift)
    assert m.format == "csc"
    ref = oracles.witten_gram_product(op)
    ref.setdiag(ref.diagonal() - shift)
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.indices, ref.indices)
    assert np.array_equal(m.data, ref.data)
    with pytest.raises(ValueError):
        gridop.witten_matrix(gridop.to_P(gridop.assemble_walk(
            phi, g, 10 * g.spacing)), shift)


def test_refinement_convergence(dwt, box1d):
    # halving dx from the benchmark resolution moves the smallest nonzero
    # eigenvalue by < 2% (the 4000-cell half goes through Lanczos)
    from ballwalk import eigen

    vals = []
    for dx in (0.002, 0.001):
        g = build_grid(box1d, dx)
        p = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1))
        res = eigen.smallest_eigs(p, count=2, tol=1e-12)
        vals.append(res.eigenvalues[1])
    assert abs(vals[1] - vals[0]) / vals[1] < 0.02


def test_sparsity_budget(dwt, box1d):
    g = build_grid(box1d, 0.005)
    op = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    s = op.tocsr()
    ball_cells = int(np.sum(op.data.foot))
    per_row = np.diff(s.indptr)
    assert np.max(per_row) <= ball_cells + 1


def _walk_2d(spec, rows, cols, h_over_dx, dx=0.03):
    """The walk operator on a rows x cols grid near three_well's wells."""
    box = Box.from_pairs([(-1.0, -1.0 + rows * dx), (-1.2, -1.2 + cols * dx)])
    g = build_grid(box, dx)
    return gridop.assemble_walk(gridop.sample(spec, g), g, h_over_dx * dx)


@pytest.mark.parametrize("rows, cols, h_over_dx", [
    pytest.param(41, 37, 8.05, id="odd-rows"),
    pytest.param(40, 37, 8.05, id="even-rows"),
    # fewer rows than 2 kr + 2 = 18: each half's balls reach every row
    pytest.param(12, 30, 8.05, id="rows-below-2kr+2"),
    pytest.param(3, 30, 8.05, id="three-rows"),
    pytest.param(50, 44, 12.5, id="h/dx-12.5"),
    pytest.param(45, 40, 20.3, id="h/dx-20.3"),
])
@pytest.mark.parametrize("kind", [gridop.WALK_T, gridop.WALK_P])
def test_split_rows_apply_is_bit_identical(three_well, rows, cols, h_over_dx,
                                           kind):
    # every entry of the two-process apply, sign bit included, equals the
    # one-process apply's, over several applies of one helper
    op = _walk_2d(three_well, rows, cols, h_over_dx)
    if kind == gridop.WALK_P:
        op = gridop.to_P(op)
    rng = np.random.default_rng(rows)
    vectors = [rng.standard_normal(op.n) * 10.0 ** rng.uniform(-13, 0, op.n)
               for _ in range(3)]
    # signed zeros: in the generator u - T u, -0.0 - 0.0 keeps its sign
    vectors.append(np.where(rng.random(op.n) < 0.5, -0.0, 0.0))
    with gridop.split_rows(op) as split:
        assert split.helper is not None and split.kind == op.kind
        got = [split.matvec(u) for u in vectors]
    assert np.signbit(got[-1]).any() == (kind == gridop.WALK_P)
    for u, g in zip(vectors, got):
        want = op.matvec(u)
        assert np.array_equal(g, want)
        assert np.array_equal(np.signbit(g), np.signbit(want))


def test_split_rows_helper_woken_from_select(three_well, monkeypatch):
    # with no polling the helper sleeps in select before every wake byte
    monkeypatch.setattr(gridop, "HELPER_POLL_S", 0.0)
    op = gridop.to_P(_walk_2d(three_well, 41, 37, 8.05))
    u = np.random.default_rng(5).standard_normal(op.n)
    with gridop.split_rows(op) as split:
        for _ in range(3):
            time.sleep(0.01)
            assert np.array_equal(split.matvec(u), op.matvec(u))


def test_split_rows_refuses_1d_and_witten(dwt_walk_P, three_well):
    with pytest.raises(ValueError, match="2D walk operator"):
        with gridop.split_rows(dwt_walk_P):
            pass
    g = build_grid(Box.from_pairs([(-1.2, 1.2), (-1.2, 1.2)]), 0.03)
    witten = gridop.assemble_witten(gridop.sample(three_well, g), g, 0.3)
    with pytest.raises(ValueError, match="2D walk operator"):
        with gridop.split_rows(witten):
            pass


def test_matvec_processes_rule(monkeypatch, dwt_walk_P, three_well):
    # two processes only for a 2D walk of at least SPLIT_MIN_CELLS cells
    # on at least two usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    op = gridop.to_P(_walk_2d(three_well, 41, 37, 8.05))
    monkeypatch.setattr(gridop, "SPLIT_MIN_CELLS", op.n)
    assert gridop.matvec_processes(op) == 2
    monkeypatch.setattr(gridop, "SPLIT_MIN_CELLS", op.n + 1)
    assert gridop.matvec_processes(op) == 1          # below the crossover
    monkeypatch.setattr(gridop, "SPLIT_MIN_CELLS", 1)
    assert gridop.matvec_processes(dwt_walk_P) == 1  # 1D
    g = op.grid
    witten = gridop.assemble_witten(gridop.sample(three_well, g), g, 0.3)
    assert gridop.matvec_processes(witten) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert gridop.matvec_processes(op) == 1          # one usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert gridop.matvec_processes(op) == 1
