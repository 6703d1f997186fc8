import math

import numpy as np
import pytest

import oracles
from ballwalk import landscape, potentials
from ballwalk.potentials import Box, DimensionMismatch


def test_tilted_double_well_values(dwt):
    assert potentials.value(dwt, 0.0) == pytest.approx(1.0, abs=0)
    assert potentials.value(dwt, 1.0) == pytest.approx(0.3, abs=1e-15)
    assert potentials.gradient(dwt, 0.0)[0] == pytest.approx(0.3, abs=0)
    assert potentials.gradient(dwt, 1.0)[0] == pytest.approx(0.3, abs=1e-15)
    assert potentials.hessian(dwt, 0.0)[0, 0] == pytest.approx(-4.0)
    assert potentials.hessian(dwt, 1.0)[0, 0] == pytest.approx(8.0)


def test_polynomial_evaluation():
    quartic = potentials.polynomial([((4,), 1.0)])
    assert potentials.value(quartic, 2.0) == pytest.approx(16.0, abs=0)
    assert potentials.gradient(quartic, 2.0)[0] == pytest.approx(32.0)
    assert potentials.hessian(quartic, 2.0)[0, 0] == pytest.approx(48.0)
    mixed = potentials.polynomial([((2, 1), 3.0), ((0, 2), -1.0)])
    assert potentials.value(mixed, [1.0, 2.0]) == pytest.approx(6.0 - 4.0)
    assert potentials.gradient(mixed, [1.0, 2.0]) == pytest.approx([12.0, -1.0])


def test_polynomial_rejects_fractional_exponent():
    # x^4.5 is not a polynomial; it must not be truncated to x^4
    with pytest.raises(ValueError, match="integers"):
        potentials.polynomial([((4.5,), 1.0)])
    assert potentials.polynomial([((4.0,), 1.0)]).monomials == (((4,), 1.0),)


@pytest.mark.parametrize("spec", [
    potentials.builtin("double_well_tilted", (0.3,)),
    potentials.builtin("double_well"),
    potentials.builtin("single_well"),
    potentials.builtin("three_well"),
    potentials.polynomial([((2, 1), 3.0), ((0, 2), -1.0)]),
], ids=["dwt", "dw", "sw", "three_well", "poly2d"])
def test_value_and_gradient_one_pass(spec):
    pts = np.random.default_rng(8).uniform(-2.4, 2.4, size=(200, spec.dimension))
    val, grad = potentials.value_and_gradient(spec, pts)
    assert np.array_equal(val, potentials.value(spec, pts))
    assert np.array_equal(grad, potentials.gradient(spec, pts))
    v1, g1 = potentials.value_and_gradient(spec, pts[0])
    assert v1 == potentials.value(spec, pts[0])
    assert np.array_equal(g1, potentials.gradient(spec, pts[0]))


def test_dimension_mismatch(dwt, three_well):
    with pytest.raises(DimensionMismatch):
        potentials.value(dwt, [0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        potentials.value(three_well, 0.5)
    with pytest.raises(DimensionMismatch):
        potentials.gradient(three_well, [0.1, 0.2, 0.3])


# polynomials by name; the 2D one has the mixed terms that reach the
# Hessian's off-diagonal entries
_FD_POLYNOMIALS = {
    "poly1d": potentials.polynomial([((6,), 0.1), ((4,), 1.0), ((3,), -0.5),
                                     ((2,), -2.0), ((1,), 0.3), ((0,), 0.7)]),
    "poly2d": potentials.polynomial([((4, 0), 1.0), ((0, 4), 1.0),
                                     ((2, 1), 3.0), ((1, 1), -0.7),
                                     ((0, 2), -1.0), ((1, 0), 0.2)]),
}


@pytest.mark.parametrize("name,box", [
    ("double_well_tilted", [(-2, 2)]),
    ("double_well", [(-2, 2)]),
    ("single_well", [(-2, 2)]),
    ("three_well", [(-2.4, 2.4), (-2.4, 2.4)]),
    ("poly1d", [(-2, 2)]),
    ("poly2d", [(-1.5, 1.5), (-1.5, 1.5)]),
])
def test_derivatives_match_finite_differences(name, box):
    spec = _FD_POLYNOMIALS.get(name) or potentials.builtin(name)
    b = Box.from_pairs(box)
    rng = np.random.default_rng(20231)
    pts = rng.uniform(b.lo, b.hi, size=(100, spec.dimension))
    for x in pts:
        g = np.atleast_1d(potentials.gradient(spec, x))
        fd = oracles.fd_gradient(spec, x)
        assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(g)))
        h = np.atleast_2d(potentials.hessian(spec, x))
        fdh = oracles.fd_hessian(spec, x)
        assert np.all(np.abs(h - fdh) <= 1e-6 * (1.0 + np.abs(h)))


def test_hessian_symmetry_2d(three_well):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.4, 2.4, size=(50, 2))
    h = potentials.hessian(three_well, pts)
    assert np.array_equal(h[:, 0, 1], h[:, 1, 0])


def test_hypotheses_tilted(dwt, box1d, dwt_labeling):
    rep = potentials.check_hypotheses(dwt, box1d, dwt_labeling)
    assert rep.generic_ok
    assert rep.boundary_gradient_min > 1.0
    assert rep.min_hessian_spectral_gap > 1.0


def test_hypotheses_symmetric_double_well(box1d):
    spec = potentials.builtin("double_well")
    lab = landscape.label_potential(spec, box1d, dx=1e-3)
    rep = potentials.check_hypotheses(spec, box1d, lab)
    # two equal-depth wells but a single finite barrier value: still generic
    assert lab.n0 == 2
    assert rep.generic_ok
    assert math.isinf(rep.min_S_separation)


def test_hypotheses_single_well(box1d):
    spec = potentials.builtin("single_well")
    lab = landscape.label_potential(spec, box1d, dx=1e-3)
    rep = potentials.check_hypotheses(spec, box1d, lab)
    assert rep.min_hessian_spectral_gap > potentials.MORSE_TOLERANCE
    assert lab.n0 == 1 and lab.n1 == 0


def test_morse_flag_trips_on_degenerate_point():
    # x^6 is flat enough at 0 that the converged Hessian sits below tolerance
    flat = potentials.polynomial([((6,), 1.0)])
    with pytest.raises(landscape.NonMorseCritical):
        landscape.find_critical_points(flat, Box.from_pairs([(-1, 1)]))


def test_box_validation():
    with pytest.raises(ValueError):
        Box.from_pairs([(2.0, -2.0)])
    b = Box.from_pairs([(-1, 1), (-2, 2)])
    assert b.dimension == 2
    assert b.contains([0.5, 1.5]) and not b.contains([0.5, 2.5])
