import math

import numpy as np
import pytest

import oracles
from ballwalk import potentials, symbols
from oracles import SymbolParams


def test_ball_volume_and_quadratic_coefficient():
    assert oracles.ball_volume(1) == 2.0
    assert oracles.ball_volume(2) == math.pi
    assert oracles.quadratic_coefficient(1) == pytest.approx(1.0 / 6.0, abs=0)
    assert oracles.quadratic_coefficient(2) == pytest.approx(1.0 / 8.0, abs=0)


def test_multiplier_at_zero():
    assert symbols.multiplier(1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert symbols.multiplier(2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert symbols.multiplier_imag(1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert symbols.multiplier_imag(2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_multiplier_closed_forms():
    assert symbols.multiplier(1, 2.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-15)
    assert symbols.multiplier_imag(1, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_vs_adaptive_quadrature(dim):
    rng = np.random.default_rng(314)
    for r in rng.uniform(0.0, 30.0, size=100):
        ref = oracles.multiplier_quad(dim, r)
        assert abs(symbols.multiplier(dim, r) - ref) <= 1e-9


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_imag_vs_adaptive_quadrature(dim):
    rng = np.random.default_rng(159)
    for r in rng.uniform(0.0, 10.0, size=100):
        ref = oracles.multiplier_imag_quad(dim, r)
        assert abs(symbols.multiplier_imag(dim, r) - ref) <= 1e-9 * max(1.0, ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_limit(dim):
    r = 1e-2
    val = (1.0 - symbols.multiplier(dim, r)) / (r * r)
    assert abs(val - oracles.quadratic_coefficient(dim)) < 1e-6


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("r", [5e-5, 1e-5])
def test_series_branch_quadratic_term(dim, r):
    # below r = 1e-4 both multipliers come from their series, where a sign
    # slip in the r^2 term would show
    c = oracles.quadratic_coefficient(dim)
    assert (1.0 - symbols.multiplier(dim, r)) / (r * r) == pytest.approx(
        c, rel=1e-6, abs=0)
    assert (symbols.multiplier_imag(dim, r) - 1.0) / (r * r) == pytest.approx(
        c, rel=1e-6, abs=0)


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_bounded_and_decaying(dim):
    rs = np.logspace(-2, 3, 200)
    vals = symbols.multiplier(dim, rs)
    assert np.all(np.abs(vals) <= 1.0)
    # bounded away from 1 on |xi| >= r, strictly inside (-1, 1]
    for r0 in (0.5, 1.0, 5.0, 50.0):
        sup = np.max(np.abs(vals[rs >= r0]))
        assert sup < 1.0
    assert vals.min() > -1.0
    assert abs(vals[-1]) < 2e-2   # decay reached by |xi| = 1e3


def test_multiplier_imag_monotone():
    vals = symbols.multiplier_imag(1, np.array([0.0, 1.0, 2.0, 5.0]))
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == pytest.approx(1.0, abs=1e-14)
    vals2 = symbols.multiplier_imag(2, np.array([0.0, 0.5, 1.0, 2.0, 5.0]))
    assert np.all(np.diff(vals2) > 0)
    assert np.all(vals2 >= 1.0 - 1e-12)


def test_analytic_modulus_bound():
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        xi = rng.uniform(-8, 8)
        tau = rng.uniform(-5, 5)
        lhs = oracles.multiplier_complex_modulus_quad(xi, tau)
        rhs = symbols.multiplier_imag(1, abs(tau))
        assert lhs <= rhs + 1e-10


def test_amplitude_constant_potential():
    const = potentials.polynomial([((0,), 3.0)])
    assert oracles.amplitude(const, SymbolParams(1, 0.1), 0.2) == pytest.approx(1.0, abs=1e-14)
    assert oracles.amplitude_leading(const, 0.2) == pytest.approx(1.0, abs=1e-14)
    assert oracles.amplitude_correction(const, 0.2) == pytest.approx(0.0, abs=1e-15)


def test_amplitude_limit_and_expansion(dwt):
    x = 0.5
    a0 = oracles.amplitude_leading(dwt, x)
    a1 = oracles.amplitude_correction(dwt, x)
    # |a_h - a0| <= C h on the coarse window (the h^2 term fights the h term
    # here, so the clean order only shows once h is small)
    for h in (0.2, 0.1, 0.05):
        err = abs(oracles.amplitude(dwt, SymbolParams(1, h), x) - a0)
        assert err <= 0.15 * h
    hs = [0.05, 0.025, 0.0125, 0.00625]
    err1 = [abs(oracles.amplitude(dwt, SymbolParams(1, h), x) - a0) for h in hs]
    order = np.polyfit(np.log(hs), np.log(err1), 1)[0]
    assert order >= 0.9
    err2 = [abs(oracles.amplitude(dwt, SymbolParams(1, h), x) - a0 - h * a1)
            for h in (0.2, 0.1, 0.05)]
    assert all(e <= 0.5 * h * h for e, h in zip(err2, (0.2, 0.1, 0.05)))


def test_amplitude_vs_adaptive_quadrature(dwt):
    rng = np.random.default_rng(99)
    for x in rng.uniform(-1.5, 1.5, size=10):
        ours = oracles.amplitude(dwt, SymbolParams(1, 0.1), x)
        ref = oracles.amplitude_quad(dwt, 0.1, x)
        assert abs(ours - ref) <= 1e-9


def test_amplitude_bounds_on_box(dwt):
    # uniform-in-h two-sided bounds; the lower constant is tiny because the
    # box-edge gradient is large, but it does not degrade as h shrinks
    for h in (0.2, 0.1, 0.05):
        params = SymbolParams(1, h)
        vals = [oracles.amplitude(dwt, params, x)
                for x in np.linspace(-2, 2, 81)]
        assert min(vals) > 2e-5
        assert max(vals) < 1.2


def test_amplitude_overflow_guard():
    steep = potentials.polynomial([((1,), 2000.0)])
    with pytest.raises(oracles.QuadratureOverflow):
        oracles.amplitude(steep, SymbolParams(1, 0.01), 0.0)


def test_amplitude_correction_at_critical_point(dwt):
    u = oracles.tilted_double_well_points()[2][0]   # right minimum
    a1 = oracles.amplitude_correction(dwt, u)
    curv = potentials.hessian(dwt, u)[0, 0]
    assert a1 == pytest.approx(curv / 12.0, rel=1e-9)
    ref = oracles.hessian_mean_quad(dwt, u) / 4.0
    assert a1 == pytest.approx(ref, rel=1e-9)


def test_curvature_factor_at_critical_points(dwt):
    for u, _, curv in oracles.tilted_double_well_points():
        g1 = oracles.curvature_factor(dwt, u)
        assert g1 == pytest.approx(-curv / 6.0, rel=1e-9)


def test_curvature_factor_2d(three_well):
    # at any 2D critical point the factor equals -laplacian/8
    from ballwalk import landscape
    box = potentials.Box.from_pairs([(-2.4, 2.4), (-2.4, 2.4)])
    pts, _ = landscape.find_critical_points(three_well, box, coarse_spacing=0.06)
    for c in pts:
        if c.index > 1:
            continue
        g1 = oracles.curvature_factor(three_well, c.location)
        lap = float(oracles.laplacian(three_well, c.location))
        assert g1 == pytest.approx(-lap / 8.0, rel=1e-7)


def test_principal_symbol(dwt):
    u = oracles.tilted_double_well_points()[1][0]   # the saddle
    assert symbols.symbol_principal(dwt, u, 0.0) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        x = rng.uniform(-2, 2)
        xi = rng.uniform(-30, 30)
        assert symbols.symbol_principal(dwt, x, xi) >= -1e-12


def test_principal_symbol_quadratic_near_saddle(dwt):
    u = oracles.tilted_double_well_points()[1][0]
    beta = oracles.quadratic_coefficient(1)
    rng = np.random.default_rng(5)
    for _ in range(50):
        dx_, xi = rng.uniform(-0.05, 0.05, size=2)
        x = u + dx_
        g = potentials.gradient(dwt, x)[0]
        approx = beta * (xi * xi + g * g)
        exact = symbols.symbol_principal(dwt, x, xi)
        if approx > 1e-8:
            assert abs(exact - approx) / approx < 0.1


def test_subprincipal_symbol(dwt):
    x, xi = 0.7, 1.3
    expect = oracles.curvature_factor(dwt, x) * symbols.multiplier(1, xi)
    assert oracles.symbol_subprincipal(dwt, x, xi) == pytest.approx(expect, abs=0)


def test_symbol_params_validation():
    with pytest.raises(ValueError):
        SymbolParams(3, 0.1)
    with pytest.raises(ValueError):
        SymbolParams(1, 0.0)
    p = SymbolParams(2, 0.5)
    assert p.ball_volume == math.pi
    assert p.quadratic_coefficient == 0.125
