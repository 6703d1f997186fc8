import math

import numpy as np
import pytest

import oracles
from ballwalk import asympt
from ballwalk.asympt import InsufficientPoints, fit_rate, predict


def test_predict_synthetic_hand_value(dwt_labeling):
    # mu = 1, det_m = 1, det_s = -1, S = 1, d = 1, h = 0.1
    p = asympt.GapPrediction(k=2, S=1.0, mu=1.0, det_min=1.0,
                             det_saddle=-1.0, dimension=1)
    expect = 0.1 / (6.0 * math.pi) * math.exp(-20.0)
    assert p.gap(0.1) == pytest.approx(expect, rel=1e-14)
    # d = 2 scales by 6/8
    p2 = asympt.GapPrediction(k=2, S=1.0, mu=1.0, det_min=1.0,
                              det_saddle=-1.0, dimension=2)
    assert p2.gap(0.1) == pytest.approx(expect * 6.0 / 8.0, rel=1e-14)


def test_predict_k1_flagged(dwt_labeling):
    p = predict(dwt_labeling, 1, 1)
    assert p.simple_eigenvalue
    assert p.gap(0.1) == 0.0
    assert p.witten_gap(0.1) == 0.0


def test_predict_from_labeling(dwt_labeling):
    p = predict(dwt_labeling, 2, 1)
    ref = oracles.tilted_double_well_points()
    saddle = ref[1]
    shallow = ref[2]
    assert p.S == pytest.approx(saddle[1] - shallow[1], rel=1e-9)
    assert p.mu == pytest.approx(-saddle[2], rel=1e-9)
    assert p.det_min == pytest.approx(shallow[2], rel=1e-9)
    assert p.det_saddle == pytest.approx(saddle[2], rel=1e-9)


def test_witten_ratio_exact(dwt_labeling):
    p = predict(dwt_labeling, 2, 1)
    for h in (0.05, 0.1, 0.2):
        assert p.gap(h) / p.witten_gap(h) == pytest.approx(1.0 / 6.0, rel=1e-14)
    p2 = asympt.GapPrediction(k=2, S=0.5, mu=2.0, det_min=3.0,
                              det_saddle=-1.0, dimension=2)
    assert p2.gap(0.1) / p2.witten_gap(0.1) == pytest.approx(1.0 / 8.0, rel=1e-14)


def test_prediction_shift_invariance(dwt_labeling):
    # adding a constant to the potential changes nothing that enters the law
    p = predict(dwt_labeling, 2, 1)
    import ballwalk.landscape as lsc
    shifted_pairs = []
    for (k, m, s, S) in dwt_labeling.pairs:
        m2 = lsc.CriticalPoint(m.location, m.value + 5.0, m.index,
                               m.hessian_eigs, m.hessian_det)
        s2 = None if s is None else lsc.CriticalPoint(
            s.location, s.value + 5.0, s.index, s.hessian_eigs, s.hessian_det)
        shifted_pairs.append((k, m2, s2, S))
    shifted = lsc.LandscapeLabeling(
        pairs=tuple(shifted_pairs),
        values=dwt_labeling.values, grid=dwt_labeling.grid,
        n0=dwt_labeling.n0, n1=dwt_labeling.n1)
    q = predict(shifted, 2, 1)
    assert q.gap(0.1) == p.gap(0.1)


def test_h_structure_exact(dwt_labeling):
    # gap(h) / h * e^{2S/h} is h-independent
    p = predict(dwt_labeling, 2, 1)
    vals = [p.gap(h) / h * math.exp(2.0 * p.S / h) for h in (0.2, 0.1, 0.05)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_fit_rate_exact_model():
    hs = [0.05, 0.08, 0.1, 0.15]
    gaps = [0.05 * h * math.exp(-0.8 / h) for h in hs]
    fit = fit_rate(hs, gaps, [0.0] * 4)
    assert fit.slope == pytest.approx(-0.8, abs=1e-10)
    assert fit.prefactor_estimate == pytest.approx(0.05, rel=1e-10)
    assert fit.window == (0, 1, 2, 3)


def test_fit_rate_perturbed_model():
    hs = [0.05, 0.08, 0.1, 0.15]
    gaps = [0.05 * h * math.exp(-0.8 / h) * (1 + 0.5 * h) for h in hs]
    fit = fit_rate(hs, gaps, [0.0] * 4)
    assert fit.slope == pytest.approx(-0.8, rel=0.02)


def test_fit_rate_window_rules():
    hs = [0.04, 0.05, 0.08, 0.1, 0.15]
    gaps = [1e-15] + [0.05 * h * math.exp(-0.8 / h) for h in hs[1:]]
    fit = fit_rate(hs, gaps, [0.0] * 5)
    assert 0 not in fit.window             # below the eigenvalue floor
    resid = [0.0, 0.0, 1.0, 0.0, 0.0]      # residual-dominated point
    with pytest.raises(InsufficientPoints):
        fit_rate(hs, gaps, residuals=resid)


def test_fit_rate_insufficient():
    with pytest.raises(InsufficientPoints):
        fit_rate([0.1, 0.2], [1e-3, 2e-3], [0.0, 0.0])


def test_fit_consistency_with_prediction(dwt_labeling):
    # fitting the closed-form prediction recovers -2 S_2 to 1e-10
    p = predict(dwt_labeling, 2, 1)
    hs = [0.06, 0.08, 0.1, 0.12, 0.15]
    gaps = [p.gap(h) for h in hs]
    fit = fit_rate(hs, gaps, [0.0] * 5)
    assert fit.slope == pytest.approx(-2.0 * p.S, abs=1e-10)


def test_compare_exact(dwt_labeling):
    p = predict(dwt_labeling, 2, 1)
    hs = [0.06, 0.08, 0.1, 0.12, 0.15]
    gaps = [p.gap(h) for h in hs]
    rep = asympt.compare(hs, {2: gaps}, dwt_labeling, 1,
                         witten_measured={2: [p.witten_gap(h) for h in hs]},
                         residuals={2: [0.0] * 5})
    assert all(r.ratio == pytest.approx(1.0, rel=1e-12) for r in rep.rows)
    assert rep.rel_err < 1e-10
    assert rep.witten_ratio_median == pytest.approx(6.0, rel=1e-12)
    assert rep.passed
