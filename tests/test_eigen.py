import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from ballwalk import config, eigen, gridop, landscape, pipeline, potentials
from ballwalk.eigen import NoConvergence, classify_spectrum, smallest_eigs
from ballwalk.potentials import Box


@pytest.fixture
def dense_calls(monkeypatch):
    """Names of the dense scipy.linalg solvers called during the test."""
    import scipy.linalg

    calls = []
    for name in ("eigh", "eigh_tridiagonal", "eigvalsh_tridiagonal"):
        def spy(*args, _real=getattr(scipy.linalg, name), _name=name,
                **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, spy)
    return calls


def _assert_matches_full_eigh(op, res):
    # every pair within the residual of a full dense solve, and within tol
    a = op.tocsr().toarray()
    vals, vecs = np.linalg.eigh(a)
    k = len(res.eigenvalues)
    lead = vecs[:, :k]
    full_res = np.linalg.norm(a @ lead - lead * vals[:k], axis=0)
    for lam, ref, r in zip(res.eigenvalues, vals, full_res):
        assert abs(lam - ref) <= max(1e-14, r)
    _assert_residuals_within_tol(res)
    return vals


def test_dense_walk_spectrum(dwt_walk_P, dense_calls):
    # a walk generator takes Lanczos at every size, never a dense solve
    res = smallest_eigs(dwt_walk_P, count=6)
    assert dense_calls == []
    assert res.solver == "LANCZOS" and res.iterations > 0
    assert res.eigenvalues[0] <= 1e-12
    assert res.eigenvalues == tuple(sorted(res.eigenvalues))
    _assert_matches_full_eigh(dwt_walk_P, res)


@pytest.mark.parametrize("kind,h", [
    *((kind, h) for kind in ("walk", "witten") for h in (0.15, 0.1, 0.06)),
    ("witten_2d", 0.6)])
def test_dense_subset_matches_full_eigh(dwt, box1d, three_well, dense_calls,
                                       kind, h):
    # the lowest pairs of either path against a full dense solve
    if kind == "witten_2d":
        # 2304 cells, h = 8 dx
        g = gridop.build_grid(
            Box.from_pairs([(-1.8, 1.8), (-1.8, 1.8)]), 0.075)
        spec = three_well
    else:
        g = gridop.build_grid(box1d, 0.004)
        spec = dwt
    phi = gridop.sample(spec, g)
    op = (gridop.to_P(gridop.assemble_walk(phi, g, h)) if kind == "walk"
          else gridop.assemble_witten(phi, g, h))
    res = smallest_eigs(op, count=6)
    # no dense solve: a walk takes Lanczos and a Gram Laplacian
    # shift-invert, in every dimension and at every size
    assert dense_calls == []
    assert res.solver == ("LANCZOS" if kind == "walk" else "SHIFT_INVERT")
    assert res.tol == eigen.TOL
    _assert_matches_full_eigh(op, res)
    assert res.vectors.shape == (op.n, 6)


@pytest.mark.parametrize("dx", [0.004, 0.002])
def test_walk_residuals_admit_every_sweep_point(dx):
    # the rate fit admits a point only if its residual is at most 1% of
    # the gap, and at h = 0.06 the 1D walk gap is 7e-13: the walk solve
    # must bound each residual by tol |lambda| (plus rounding), not by tol
    cfg = config.parse({
        "schema_version": 1,
        "potential": {"dimension": 1, "form": "builtin",
                      "name": "double_well_tilted", "params": [0.3]},
        "box": [[-2.0, 2.0]], "dx": dx,
        "h_list": [0.15, 0.12, 0.1, 0.08, 0.06], "count": 6,
        "landscape": {"dx": 0.001, "coarse_spacing": 0.05}})
    run = pipeline.run_sweep(cfg)
    for r in run.walk_runs:
        res = r.result
        assert res.solver == "LANCZOS"
        assert res.residual_norms[1] <= 0.01 * res.eigenvalues[1]
        for lam, rn in zip(res.eigenvalues, res.residual_norms):
            assert rn <= res.tol * abs(lam) + 1e-14
    assert run.report.fit.window == (0, 1, 2, 3, 4)


def test_kernel_always_deflated(dwt, box1d):
    g = gridop.build_grid(box1d, 0.01)
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g), g, 0.15))
    res = smallest_eigs(p, count=3)
    assert res.eigenvalues[0] <= 1e-12


def test_kernel_pair_first_below_rounding_noise():
    # on the configs/benchmark_1d.json grid at h = 0.045 the k = 2 gap,
    # about 1.9e-16, is below the kernel's computed value (7e-16), so a
    # sort by value would put the kernel second
    cfg = config.load(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "benchmark_1d.json"))
    grid = gridop.build_grid(cfg.box, cfg.dx)
    op = gridop.to_P(gridop.assemble_walk(gridop.sample(cfg.spec, grid), grid,
                                          0.045))
    res = smallest_eigs(op, count=cfg.count)
    kernel = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)
    assert abs(res.vectors[:, 0] @ kernel) > 1.0 - 1e-12
    assert abs(res.vectors[:, 1] @ kernel) < 1e-6
    assert list(res.eigenvalues[1:]) == sorted(res.eigenvalues[1:])


def test_exponentially_small_cluster(dwt_walk_P):
    # two eigenvalues below e^{-c/h} (c = 1 < 2 S_2), third at the O(h) scale
    res = smallest_eigs(dwt_walk_P, count=5)
    h = dwt_walk_P.h
    assert res.eigenvalues[1] < np.exp(-1.0 / h)
    assert res.eigenvalues[2] > 0.1 * h


def test_lanczos_matches_dense(dwt, box1d, three_well, dense_calls):
    g = gridop.build_grid(box1d, 0.0016)   # 2500 cells
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1))
    lanc = smallest_eigs(p, count=5, tol=1e-11)
    assert lanc.solver == "LANCZOS"
    _assert_matches_full_eigh(p, lanc)

    # the 2D disk stencil: 2304 cells, h = 8 dx
    g = gridop.build_grid(Box.from_pairs([(-1.8, 1.8), (-1.8, 1.8)]), 0.075)
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(three_well, g), g, 0.6))
    lanc = smallest_eigs(p, count=6, tol=1e-11)
    assert lanc.solver == "LANCZOS"
    _assert_matches_full_eigh(p, lanc)
    assert dense_calls == []


def test_lanczos_deflation_orthogonality(dwt, box1d):
    g = gridop.build_grid(box1d, 0.002)
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1))
    res = smallest_eigs(p, count=4)
    v0 = p.stationary_sqrt
    # returned vectors beyond the kernel itself stay orthogonal to it
    for j in range(1, len(res.eigenvalues)):
        assert abs(res.vectors[:, j] @ v0) <= 1e-10


def test_lanczos_witten(dwt, box1d):
    # shift-invert Lanczos at a looser tolerance and a larger budget
    g = gridop.build_grid(box1d, 0.002)
    w = gridop.assemble_witten(gridop.sample(dwt, g), g, 0.1)
    lanc = smallest_eigs(w, count=4, tol=1e-10, max_iter=40000)
    assert lanc.solver == "SHIFT_INVERT" and lanc.tol == 1e-10
    _assert_matches_full_eigh(w, lanc)


def test_no_convergence_carries_partial(dwt_walk_P):
    # the step budget bounds the operator applies of the walk path
    with pytest.raises(NoConvergence,
                       match="lanczos did not converge in 40 operator"):
        smallest_eigs(dwt_walk_P, count=6, tol=1e-13, max_iter=40)


# --- shift-invert on the Gram Laplacian ----------------------------------------


@pytest.fixture(scope="module")
def witten_2d_small(three_well):
    # 10,000 cells: small enough for a plain Lanczos reference
    g = gridop.build_grid(Box.from_pairs([(-1.8, 1.8), (-1.8, 1.8)]), 0.036)
    return gridop.assemble_witten(gridop.sample(three_well, g), g, 0.145)


def _assert_residuals_within_tol(res):
    for lam, r in zip(res.eigenvalues, res.residual_norms):
        assert r <= res.tol * (1.0 + abs(lam))


def test_shift_invert_matches_lanczos_2d(witten_2d_small):
    op = witten_2d_small
    res = smallest_eigs(op, count=6)
    ref = eigen._lanczos_path(op, 6, 1e-11, 20000)
    assert res.solver == "SHIFT_INVERT" and ref.solver == "LANCZOS"
    assert res.iterations < ref.iterations
    for lam, want, r in zip(res.eigenvalues, ref.eigenvalues,
                            ref.residual_norms):
        assert abs(lam - want) <= max(1e-14, r)
    _assert_residuals_within_tol(res)


@pytest.mark.parametrize("h", [0.15, 0.1, 0.06])
def test_shift_invert_matches_dense_1d(dwt, box1d, h):
    # a 1D Gram Laplacian takes a few dozen LU solves, and max_iter bounds
    # them as it bounds the walk's matvecs
    g = gridop.build_grid(box1d, 0.004)
    op = gridop.assemble_witten(gridop.sample(dwt, g), g, h)
    res = smallest_eigs(op, count=6)
    assert res.solver == "SHIFT_INVERT" and 0 < res.iterations < 100
    _assert_matches_full_eigh(op, res)
    again = smallest_eigs(op, count=6, max_iter=res.iterations)
    assert again.eigenvalues == res.eigenvalues
    with pytest.raises(NoConvergence, match="shift_invert did not converge"):
        smallest_eigs(op, count=6, max_iter=res.iterations - 1)


def test_witten_gap_matches_sturm_oracle():
    # the gap the 1D benchmark sweep reports at its smallest h, where it is
    # 4e-12, to 1e-12 relative of a 40-digit bisection on L L^T
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "benchmark_1d.json")
    cfg = config.load(path)
    h = cfg.h_values[-1]
    assert h == 0.06
    g = gridop.build_grid(cfg.box, cfg.dx)
    op = gridop.assemble_witten(gridop.sample(cfg.spec, g), g, h)
    gap = smallest_eigs(op, count=cfg.count, tol=cfg.solver.tol,
                        max_iter=cfg.solver.max_iter).eigenvalues[1]
    want = oracles.witten_gap_1d(op, 0.9 * gap, 1.1 * gap)
    assert abs(gap - want) <= 1e-12 * want


def test_shift_invert_kernel_pair_exact(witten_2d_small):
    op = witten_2d_small
    res = smallest_eigs(op, count=4)
    kernel = op.stationary_sqrt / np.linalg.norm(op.stationary_sqrt)
    assert np.array_equal(res.vectors[:, 0], kernel)
    assert res.eigenvalues[0] == float(kernel @ op.matvec(kernel))
    assert res.eigenvalues[0] <= 1e-12
    for j in range(1, len(res.eigenvalues)):
        assert abs(res.vectors[:, j] @ kernel) <= 1e-10
    assert res.shift == eigen.SHIFT_OVER_H * op.h < 0
    assert res.factor_nnz >= op.n


def test_shift_invert_no_convergence_carries_partial(witten_2d_small):
    # eight LU solves are too few for six pairs
    with pytest.raises(NoConvergence,
                       match="shift_invert did not converge in 8 operator"):
        smallest_eigs(witten_2d_small, count=6, max_iter=8)


def test_sparse_linalg_loads_lazily():
    code = ("import sys, ballwalk.cli; "
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_count_validation(dwt_walk_P):
    with pytest.raises(ValueError):
        smallest_eigs(dwt_walk_P, count=21)
    g = gridop.build_grid(Box.from_pairs([(-2, 2)]), 0.01)
    t = gridop.assemble_walk(
        gridop.sample(potentials.builtin("double_well_tilted"), g), g, 0.1)
    with pytest.raises(ValueError):
        smallest_eigs(t, count=3)   # WALK_T is not a generator


def test_power_iteration_cross_check(dwt, box1d):
    g = gridop.build_grid(box1d, 0.002)
    top = gridop.assemble_walk(gridop.sample(dwt, g), g, 0.1)
    p = gridop.to_P(top)
    res = smallest_eigs(p, count=3)
    lam2_T = oracles.power_second_eigenvalue(top, iters=500000)
    assert abs((1.0 - res.eigenvalues[1]) - lam2_T) <= 1e-8


# --- classification ------------------------------------------------------------


def test_classify_single_well(box1d):
    spec = potentials.builtin("single_well")
    g = gridop.build_grid(box1d, 0.002)
    p = gridop.to_P(gridop.assemble_walk(gridop.sample(spec, g), g, 0.1))
    res = smallest_eigs(p, count=4)
    rep = classify_spectrum(res, h=0.1, n0=1)
    lam = res.eigenvalues
    # the cluster stands apart after the kernel and nowhere above it
    assert oracles.admissible_split(lam, 1, 0.1)
    assert not any(oracles.admissible_split(lam, i, 0.1)
                   for i in range(2, len(lam)))
    assert rep.next_eigenvalue == lam[1]
    assert rep.split_ratio == lam[1] / max(lam[0], eigen.EIG_FLOOR)


def test_classify_double_well(dwt_walk_P):
    res = smallest_eigs(dwt_walk_P, count=6)
    rep = classify_spectrum(res, h=0.1, n0=2)
    lam = res.eigenvalues
    assert rep.split_ratio >= 1e3
    # the split's geometric midpoint lies below the 0.1 h cap
    assert math.sqrt(lam[1] * rep.next_eigenvalue) < 0.1 * 0.1
    assert not any(oracles.admissible_split(lam, i, 0.1)
                   for i in range(3, len(lam)))
    assert rep.next_eigenvalue == lam[2]
    assert rep.remainder_over_h == lam[2] / 0.1


def test_classify_reports_a_weak_split():
    # no split reaches a ratio of 1e3: the one at n0 is reported all the
    # same, and n0 must leave an eigenvalue above the cluster
    fake = eigen.SpectralResult(
        eigenvalues=(0.009, 0.011, 0.013, 0.02), residual_norms=(0.0,) * 4,
        solver="LANCZOS", iterations=0, tol=1e-12)
    rep = classify_spectrum(fake, h=0.1, n0=2)
    assert rep.next_eigenvalue == 0.013
    assert rep.split_ratio == 0.013 / 0.011
    for n0 in (0, 4):
        with pytest.raises(ValueError, match=f"n0 = {n0} is not in 1..3"):
            classify_spectrum(fake, h=0.1, n0=n0)


# --- quasimodes ----------------------------------------------------------------


def test_quasimode_single_well(box1d):
    spec = potentials.builtin("single_well")
    lab = landscape.label_potential(spec, box1d, dx=2e-3)
    g = gridop.build_grid(box1d, 2e-3)
    q = oracles.build_quasimodes(g, spec, lab, h=0.1)
    w = gridop.assemble_witten(gridop.sample(spec, g), g, 0.1)
    overlap = abs(q.vectors[:, 0] @ w.stationary_sqrt)
    assert overlap >= 1.0 - 1e-10


def test_quasimode_gram_decay(dwt, box1d, dwt_labeling):
    g = gridop.build_grid(box1d, 2e-3)
    offs = []
    for h in (0.15, 0.1, 0.07):
        q = oracles.build_quasimodes(g, dwt, dwt_labeling, h=h)
        assert q.gram.shape == (2, 2)
        assert np.allclose(np.diag(q.gram), 1.0, atol=1e-13)
        offs.append(abs(q.gram[0, 1]))
    # off-diagonal decays log-linearly in 1/h
    assert offs[0] > offs[1] > offs[2]
    x = np.array([1 / 0.15, 1 / 0.1, 1 / 0.07])
    y = np.log(offs)
    slope = np.polyfit(x, y, 1)[0]
    fit = np.polyval(np.polyfit(x, y, 1), x)
    assert slope < 0
    assert np.max(np.abs(fit - y)) < 0.4


def test_quasimode_gram_off_diagonal_O_h(dwt, box1d, dwt_labeling):
    g = gridop.build_grid(box1d, 2e-3)
    for h in (0.15, 0.1, 0.07):
        q = oracles.build_quasimodes(g, dwt, dwt_labeling, h=h)
        assert abs(q.gram[0, 1]) <= h


def test_quasimode_span_matches_eigenspace(dwt, box1d, dwt_labeling):
    g = gridop.build_grid(box1d, 2e-3)
    h = 0.1
    w = gridop.assemble_witten(gridop.sample(dwt, g), g, h)
    res = smallest_eigs(w, count=4)
    q = oracles.build_quasimodes(g, dwt, dwt_labeling, h=h)
    cos = oracles.subspace_alignment(q, res.vectors[:, :2])
    assert cos >= 1.0 - 5.0 * h


def test_quasimode_normalization_vs_stationary_phase(dwt, box1d, dwt_labeling):
    g = gridop.build_grid(box1d, 1e-3)
    h = 0.05
    q = oracles.build_quasimodes(g, dwt, dwt_labeling, h=h)
    for col, (k, m, s, S) in enumerate(dwt_labeling.pairs):
        b_disc = 1.0 / (q.raw_norms[col] * np.sqrt(g.spacing))
        b_phase = (np.pi * h) ** -0.25 * m.hessian_det ** 0.25
        assert abs(b_disc - b_phase) / b_phase <= 2.0 * h


def test_quasimode_empty_support(dwt, box1d, dwt_labeling):
    g = gridop.build_grid(box1d, 2e-3)
    with pytest.raises(oracles.EmptySupport):
        oracles.build_quasimodes(g, dwt, dwt_labeling, h=0.1, epsilon=2.0)
