import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from ballwalk import gridop, landscape, potentials
from ballwalk.landscape import (AmbiguousMatch, BoundaryMergeError,
                                persistence_sweep)
from ballwalk.potentials import Box


def test_persistence_hand_example():
    p = persistence_sweep(np.array([3.0, 1.0, 2.0, 0.0, 4.0]))
    assert len(p.events) == 1
    ev = p.events[0]
    assert ev.birth_value == 1.0
    assert ev.merge_value == 2.0
    assert ev.birth_cell == (1,)
    assert ev.merge_cell == (2,)
    assert ev.persistence == 1.0
    assert p.survivor_cell == (3,)


def test_persistence_monotone_ramp():
    p = persistence_sweep(np.arange(12, dtype=float))
    assert len(p.events) == 0
    assert p.survivor_cell == (0,)


def test_persistence_events_sorted_and_positive():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((40, 40))
    p = persistence_sweep(vals)
    pers = [e.persistence for e in p.events]
    assert all(x > 0 for x in pers)
    assert pers == sorted(pers, reverse=True)
    # exactly one survivor: every strict local minimum is born, and all
    # but one die in a merge event
    padded = np.pad(vals, 1, constant_values=np.inf)
    inner = padded[1:-1, 1:-1]
    strict = ((inner < padded[:-2, 1:-1]) & (inner < padded[2:, 1:-1])
              & (inner < padded[1:-1, :-2]) & (inner < padded[1:-1, 2:]))
    assert int(strict.sum()) == len(p.events) + 1


def test_persistence_tie_break_deterministic():
    vals = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    p = persistence_sweep(vals)
    # two equal minima: lexicographically first cell is the elder
    assert p.survivor_cell == (1,)
    assert p.events[0].birth_cell == (3,)


# small integer-valued grids: ties, plateaus, cells where 3-4 components meet
TIED_GRIDS = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
).flatmap(lambda shape: arrays(float, shape, elements=st.integers(0, 5)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vals=TIED_GRIDS)
@example(vals=np.array([[5.0, 0.0, 5.0], [1.0, 3.0, 2.0], [5.0, 4.0, 5.0]]))
@example(vals=np.array([[5.0, 0.0, 5.0], [1.0, 4.0, 2.0], [5.0, 3.0, 5.0]]))
@example(vals=np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]))
def test_persistence_matches_union_find(vals):
    assert persistence_sweep(vals) == oracles.union_find_persistence(vals)


MASKS = st.one_of(
    st.tuples(st.integers(1, 60)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
).flatmap(lambda shape: arrays(bool, shape))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mask=MASKS)
def test_components_match_ndimage_label(mask):
    from scipy import ndimage

    labels, count = landscape._components(mask)
    want, want_count = ndimage.label(mask)
    assert count == want_count
    assert np.array_equal(labels, want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vals=TIED_GRIDS)
def test_cross_minimum_matches_minimum_filter(vals):
    from scipy import ndimage

    cross = ndimage.generate_binary_structure(vals.ndim, 1)
    want = ndimage.minimum_filter(vals, footprint=cross, mode="nearest")
    assert np.array_equal(landscape._cross_minimum(vals), want)


def test_find_critical_points_against_root_oracle(dwt, box1d):
    pts, fails = landscape.find_critical_points(dwt, box1d)
    assert not fails
    assert len(pts) == 3
    ref = oracles.tilted_double_well_points()
    got = sorted(p.location[0] for p in pts)
    want = sorted(r[0] for r in ref)
    assert np.allclose(got, want, atol=1e-9)
    assert sum(1 for p in pts if p.index == 0) == 2
    assert sum(1 for p in pts if p.index == 1) == 1


def test_find_critical_points_quadratic(box1d):
    spec = potentials.builtin("single_well")
    pts, _ = landscape.find_critical_points(spec, box1d)
    assert len(pts) == 1
    p = pts[0]
    assert p.index == 0
    assert abs(p.location[0]) < 1e-10
    assert p.hessian_det == pytest.approx(2.0)


def test_find_critical_points_three_well(three_well, box2d):
    pts, _ = landscape.find_critical_points(three_well, box2d,
                                            coarse_spacing=0.06)
    n0 = sum(1 for p in pts if p.index == 0)
    n1 = sum(1 for p in pts if p.index == 1)
    assert n0 == 3
    assert n1 >= 2


def _assert_newton_matches_oracle(spec, box, seeds):
    tol = landscape.NEWTON_TOLERANCE
    found, failures = landscape._newton(spec, box, seeds, tol, 60)
    want, want_failures = oracles.scalar_newton(spec, box, seeds, tol, 60)
    assert len(found) == len(want)
    for got, ref in zip(found, want):
        assert np.array_equal(got, ref)
    assert failures == want_failures
    return found, failures


NEWTON_CASES = {
    "double_well_tilted": (potentials.builtin("double_well_tilted"),
                           [(-2.0, 2.0)], 0.05),
    "double_well": (potentials.builtin("double_well"), [(-2.0, 2.0)], 0.05),
    "single_well": (potentials.builtin("single_well"), [(-2.0, 2.0)], 0.05),
    "three_well": (potentials.builtin("three_well"),
                   [(-2.4, 2.4), (-2.4, 2.4)], 0.06),
    # x^4 - x^2 + 0.2 x: two wells, one barrier, inflections near +-0.41
    "poly_1d": (potentials.polynomial([((4,), 1.0), ((2,), -1.0),
                                       ((1,), 0.2)]), [(-1.6, 1.6)], 0.04),
    # (x^2 - 1)^2 + y^2 + 0.3 x y - 0.1 y^3: a tilted 2D double well
    "poly_2d": (potentials.polynomial([((4, 0), 1.0), ((2, 0), -2.0),
                                       ((0, 0), 1.0), ((0, 2), 1.0),
                                       ((1, 1), 0.3), ((0, 3), -0.1)]),
                [(-1.8, 1.8), (-1.6, 1.6)], 0.08),
}


@pytest.mark.parametrize("name", sorted(NEWTON_CASES))
def test_batched_newton_matches_scalar_loop(name):
    spec, pairs, spacing = NEWTON_CASES[name]
    box = Box.from_pairs(pairs)
    seeds = landscape._newton_seeds(spec, box, spacing)
    found, _ = _assert_newton_matches_oracle(spec, box, seeds)
    assert found


def test_batched_newton_singular_hessian_fails_alone():
    # x^3 - x has Hessian 6x: the seed at 0 is singular, the others are not
    spec = potentials.polynomial([((3,), 1.0), ((1,), -1.0)])
    box = Box.from_pairs([(-1.5, 1.5)])
    seeds = np.array([[0.9], [0.0], [-0.7], [0.0]])
    found, failures = _assert_newton_matches_oracle(spec, box, seeds)
    assert failures == [(0.0,), (0.0,)]
    assert len(found) == 2
    # in 2D: (x^2 - 1)^2 + y^3 - y has a singular Hessian on y = 0
    spec2 = potentials.polynomial([((4, 0), 1.0), ((2, 0), -2.0),
                                   ((0, 3), 1.0), ((0, 1), -1.0)])
    box2 = Box.from_pairs([(-1.5, 1.5), (-1.5, 1.5)])
    seeds2 = np.array([[0.8, 0.5], [1.2, 0.0], [-0.9, -0.6]])
    found, failures = _assert_newton_matches_oracle(spec2, box2, seeds2)
    assert failures == [(1.2, 0.0)]
    assert len(found) == 2


def test_batched_newton_step_leaving_box_fails_alone():
    # next to the inflection of x^4 - x^2 the damped step jumps to 0.909,
    # outside the box; the other seeds converge
    spec = potentials.polynomial([((4,), 1.0), ((2,), -1.0)])
    box = Box.from_pairs([(-0.8, 0.8)])
    seeds = np.array([[0.05], [0.409], [-0.75], [0.75], [-0.02]])
    found, failures = _assert_newton_matches_oracle(spec, box, seeds)
    assert failures == [(0.409,)]
    assert len(found) == 3     # -0.707, 0 and 0.707; -0.02 duplicates 0


def test_merge_cell_near_analytic_saddle(dwt, box1d):
    dx = 1e-3
    grid_x = np.arange(-2 + dx / 2, 2, dx)
    vals = potentials.value(dwt, grid_x[:, None])
    p = persistence_sweep(vals)
    assert len(p.events) == 1
    ev = p.events[0]
    saddle_x, saddle_v, _ = oracles.tilted_double_well_points()[1]
    mins = oracles.tilted_double_well_points()
    shallow_v = mins[2][1]
    cell_x = -2 + (ev.merge_cell[0] + 0.5) * dx
    assert abs(cell_x - saddle_x) <= 2 * dx
    assert abs(ev.persistence - (saddle_v - shallow_v)) <= 1e-3


def test_labeling_tilted(dwt_labeling):
    lab = dwt_labeling
    assert lab.n0 == 2
    assert lab.n1 == 1
    k1 = lab.pairs[0]
    assert k1[0] == 1 and k1[2] is None and math.isinf(k1[3])
    # the tilt makes the right well the shallow one
    assert k1[1].location[0] < 0
    k2 = lab.pairs[1]
    assert k2[1].location[0] > 0
    assert k2[3] == pytest.approx(oracles.tilted_double_well_S2(), rel=1e-9)


def test_labeling_single_well(box1d):
    lab = landscape.label_potential(potentials.builtin("single_well"),
                                    box1d, dx=1e-3)
    assert lab.n0 == 1 and lab.n1 == 0
    assert len(lab.pairs) == 1
    assert math.isinf(lab.pairs[0][3])
    assert np.all(lab.component_ids == 1)


def test_labeling_three_well(three_well_labeling):
    lab = three_well_labeling
    assert lab.n0 == 3
    S = [p[3] for p in lab.pairs]
    assert math.isinf(S[0])
    assert S[1] > S[2] > 0
    assert len(lab.non_separating) == lab.n1 - (lab.n0 - 1)
    assert len(lab.non_separating) >= 1


def test_pair_count_equals_minima(dwt_labeling, three_well_labeling):
    for lab in (dwt_labeling, three_well_labeling):
        assert len(lab.pairs) == lab.n0
        saddles = [s for (_, _, s, _) in lab.pairs if s is not None]
        assert len(saddles) == lab.n0 - 1
        assert len(set(id(s) for s in saddles)) == len(saddles)


def test_arrhenius_decreasing(three_well_labeling):
    S = [p[3] for p in three_well_labeling.pairs][1:]
    assert all(a > b for a, b in zip(S, S[1:]))


def test_refinement_stability(dwt, box1d):
    lab1 = landscape.label_potential(dwt, box1d, dx=2e-3)
    lab2 = landscape.label_potential(dwt, box1d, dx=1e-3)
    assert lab1.n0 == lab2.n0 and lab1.n1 == lab2.n1
    for p1, p2 in zip(lab1.pairs, lab2.pairs):
        assert np.allclose(p1[1].location, p2[1].location, atol=1e-9)
        if p1[2] is not None:
            assert np.allclose(p1[2].location, p2[2].location, atol=1e-9)


def test_persistence_matches_S_within_grid_error(dwt, box1d):
    dx = 1e-3
    grid_x = np.arange(-2 + dx / 2, 2, dx)
    vals = potentials.value(dwt, grid_x[:, None])
    p = persistence_sweep(vals)
    lip = potentials.max_gradient_norm(dwt, box1d)
    S2 = oracles.tilted_double_well_S2()
    assert abs(p.events[0].persistence - S2) <= 5 * dx * lip


def test_component_partition_tilted(dwt_labeling, box1d):
    ids = dwt_labeling.component_ids
    assert set(np.unique(ids)) == {1, 2}
    n = ids.size
    xs = -2 + (np.arange(n) + 0.5) * (4.0 / n)
    saddle_x = oracles.tilted_double_well_points()[1][0]
    # left catchment is well 1, everything right of the saddle is well 2
    assert np.all(ids[xs < saddle_x - 0.05] == 1)
    assert np.all(ids[xs > saddle_x + 0.05] == 2)


def test_ambiguous_match_raises(dwt, box1d):
    dx = 1e-3
    grid_x = np.arange(-2 + dx / 2, 2, dx)
    vals = potentials.value(dwt, grid_x[:, None])
    pairing = persistence_sweep(vals)
    crit, _ = landscape.find_critical_points(dwt, box1d)
    with pytest.raises(AmbiguousMatch):
        landscape.label_landscape(crit, pairing, vals,
                                  gridop.build_grid(box1d, dx),
                                  match_radius=1e-9)


def test_boundary_merge_aborts():
    # two edge minima meeting at an edge cell: the box was too small
    vals = np.array([[0.0, 1.0, 0.2],
                     [5.0, 6.0, 5.0],
                     [5.0, 5.0, 5.0]])
    pairing = persistence_sweep(vals)
    assert pairing.events[0].merge_cell[0] == 0
    box = Box.from_pairs([(-1, 1), (-1, 1)])
    with pytest.raises(BoundaryMergeError):
        landscape.label_landscape([], pairing, vals,
                                  gridop.build_grid(box, 2.0 / 3.0),
                                  match_radius=10.0)


def test_floodfill_oracle_agreement_1d(dwt, box1d, dwt_labeling):
    ref = oracles.floodfill_labeling(dwt, box1d, dx=1e-3)
    assert len(ref) == len(dwt_labeling.pairs)
    for (k, m, s, S), (rm, rs, rS) in zip(dwt_labeling.pairs, ref):
        assert np.allclose(m.location, rm.location, atol=1e-9)
        if s is None:
            assert rs is None
        else:
            assert np.allclose(s.location, rs.location, atol=1e-9)
            assert S == pytest.approx(rS, rel=1e-12)
