"""Acceptance gate: one test per shipped verification criterion.

Each test prints a `[criterion N] ...` line with the measured numbers; the
pytest outcome itself is the pass/fail record.  The expensive spectral
sweeps are computed once in module-scoped fixtures and shared.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from ballwalk import asympt, eigen, gridop, landscape, potentials, walk
from ballwalk.potentials import Box

H_SWEEP_1D = (0.15, 0.12, 0.10, 0.08, 0.06)
H_SWEEP_2D = (0.145, 0.13, 0.115)
DX_1D = 0.002
DX_2D = 0.0125
BOX_1D = Box.from_pairs([(-2.0, 2.0)])
BOX_2D = Box.from_pairs([(-2.4, 2.4), (-2.4, 2.4)])


def _spectra(spec, box, dx, h, count=6, max_iter=40000, witten_dx=None):
    # the walk needs h >= 8 dx; the comparison operator only needs
    # dx <= sqrt(h)/10, and a needlessly fine grid inflates its norm and
    # with it the floating-point floor of the kernel residual
    grid = gridop.build_grid(box, dx)
    wgrid = gridop.build_grid(box, witten_dx or dx)
    top = gridop.assemble_walk(gridop.sample(spec, grid), grid, h)
    wop = gridop.assemble_witten(gridop.sample(spec, wgrid), wgrid, h)
    p = gridop.to_P(top)
    pres = eigen.smallest_eigs(p, count=count, max_iter=max_iter)
    wres = eigen.smallest_eigs(wop, count=count, max_iter=max_iter)
    return {"T": top, "P": p, "W": wop, "p_res": pres, "w_res": wres}


@pytest.fixture(scope="module")
def lab1d(dwt):
    return landscape.label_potential(dwt, BOX_1D, dx=1e-3)


@pytest.fixture(scope="module")
def lab2d(three_well):
    return landscape.label_potential(three_well, BOX_2D, dx=0.0075,
                                     coarse_spacing=0.06)


@pytest.fixture(scope="module")
def sweep1d(dwt):
    return {h: _spectra(dwt, BOX_1D, DX_1D, h, witten_dx=0.004)
            for h in H_SWEEP_1D}


@pytest.fixture(scope="module")
def sweep2d(three_well):
    return {h: _spectra(three_well, BOX_2D, DX_2D, h) for h in H_SWEEP_2D}


@pytest.fixture(scope="module")
def report1d(sweep1d, lab1d):
    hs = list(H_SWEEP_1D)
    measured = {2: [sweep1d[h]["p_res"].eigenvalues[1] for h in hs]}
    witten = {2: [sweep1d[h]["w_res"].eigenvalues[1] for h in hs]}
    resid = {2: [sweep1d[h]["p_res"].residual_norms[1] for h in hs]}
    return asympt.compare(hs, measured, lab1d, 1, witten_measured=witten,
                          residuals=resid)


def test_criterion_01_exact_structure(dwt, three_well, sweep1d, sweep2d):
    """Machine-precision eigenstructure of every benchmark operator."""
    worst = {"T": 0.0, "P": 0.0, "W": 0.0}
    for ops in list(sweep1d.values()) + list(sweep2d.values()):
        v = ops["T"].stationary_sqrt
        worst["T"] = max(worst["T"], float(np.linalg.norm(ops["T"].matvec(v) - v)))
        worst["P"] = max(worst["P"], ops["p_res"].eigenvalues[0])
        k = ops["W"].stationary_sqrt
        worst["W"] = max(worst["W"], float(np.linalg.norm(ops["W"].matvec(k))))
    print(f"[criterion 1] top-pair resid {worst['T']:.2e} (<=1e-13), "
          f"P floor {worst['P']:.2e} (<=1e-12), "
          f"kernel resid {worst['W']:.2e} (<=1e-12)")
    assert worst["T"] <= 1e-13
    assert worst["P"] <= 1e-12
    assert worst["W"] <= 1e-12


def test_criterion_02_eigenvalue_counting(sweep1d, sweep2d, lab1d, lab2d):
    """Exactly n_0 exponentially small eigenvalues at every sweep point."""
    for name, sweep, lab, hs in (("1d", sweep1d, lab1d, H_SWEEP_1D),
                                 ("2d", sweep2d, lab2d, H_SWEEP_2D)):
        n0 = lab.n0
        next_over_h = []
        for h in hs:
            res = sweep[h]["p_res"]
            rep = eigen.classify_spectrum(res, h=h, n0=n0)
            lam = res.eigenvalues
            # the cluster stands apart at n0 and at no split above it
            assert oracles.admissible_split(lam, n0, h), f"{name} h={h}: {lam}"
            assert not any(oracles.admissible_split(lam, i, h)
                           for i in range(n0 + 1, len(lam))), (
                f"{name} h={h}: {lam}")
            next_over_h.append(rep.next_eigenvalue / h)
        spread = max(next_over_h) / min(next_over_h)
        assert spread < 3.0
        for k in range(2, n0 + 1):
            gaps = np.array([sweep[h]["p_res"].eigenvalues[k - 1] for h in hs])
            x = 1.0 / np.array(hs)
            coef = np.polyfit(x, np.log(gaps), 1)
            assert coef[0] < 0
            resid = np.log(gaps) - np.polyval(coef, x)
            assert np.max(np.abs(resid)) < 0.2
        print(f"[criterion 2] {name}: cluster of n0 = {n0} at all h; "
              f"eig{n0 + 1}/h spread {spread:.2f} (< 3)")


def test_criterion_03_arrhenius_rate(report1d, lab1d):
    """Fitted -slope/2 matches the labeled barrier within 5 percent."""
    rep = report1d
    print(f"[criterion 3] S_fit = {rep.S_fit:.5f} vs S_2 = {rep.S_theory:.5f} "
          f"rel err {rep.rel_err * 100:.2f}% (< 5%)")
    assert rep.S_theory == pytest.approx(oracles.tilted_double_well_S2(),
                                         rel=1e-9)
    assert rep.rel_err <= 0.05


def test_criterion_04_prefactor(report1d):
    """Measured/predicted gap within [0.7, 1.3], tightening as h decreases."""
    rows = [r for r in report1d.rows if r.k == 2]
    windowed = [rows[i] for i in report1d.fit.window]
    ratios = [r.ratio for r in windowed]
    print(f"[criterion 4] ratios {['%.4f' % r for r in ratios]} "
          f"(in [0.7, 1.3], smallest-h closest to 1)")
    for r in ratios:
        assert 0.7 <= r <= 1.3
    by_h = sorted(windowed, key=lambda r: r.h)
    assert abs(by_h[0].ratio - 1.0) < abs(by_h[-1].ratio - 1.0)


def test_criterion_05_witten_comparison(report1d, sweep2d, three_well):
    """Diffusion-limit gap over walk gap: ~6 in 1D, ~8 at the 2D point."""
    med = report1d.witten_ratio_median
    assert med is not None
    print(f"[criterion 5] 1d median ratio {med:.3f} (in [5, 7])", end="; ")
    assert 5.0 <= med <= 7.0
    ops = _spectra(three_well, BOX_2D, DX_2D, 0.2, count=4)
    r2 = ops["w_res"].eigenvalues[1] / ops["p_res"].eigenvalues[1]
    print(f"2d point ratio {r2:.3f} (in [6, 10])")
    assert 6.0 <= r2 <= 10.0


def test_criterion_06_labeling_oracle(dwt, three_well, lab1d, lab2d):
    """Persistence pairs equal the exhaustive flood-fill pairs."""
    cases = [
        (dwt, BOX_1D, 1e-3, lab1d),
        (potentials.builtin("double_well"), BOX_1D, 1e-3, None),
        (potentials.builtin("single_well"), BOX_1D, 1e-3, None),
        (three_well, BOX_2D, 5e-3, None),
    ]
    for spec, box, dx, lab in cases:
        if lab is None:
            coarse = 0.06 if spec.dimension == 2 else 0.05
            lab = landscape.label_potential(spec, box, dx=dx,
                                            coarse_spacing=coarse)
        ref = oracles.floodfill_labeling(spec, box, dx=dx)
        assert len(ref) == len(lab.pairs)
        lip = oracles.max_gradient_norm(spec, box)
        for (k, m, s, S), (rm, rs, rS) in zip(lab.pairs, ref):
            assert np.allclose(m.location, rm.location, atol=1e-8)
            if s is None:
                assert rs is None
            else:
                assert np.allclose(s.location, rs.location, atol=1e-8)
                assert abs(S - rS) <= 5 * dx * lip
        name = spec.name or "polynomial"
        print(f"[criterion 6] {name}: {len(lab.pairs)} pairs match the "
              f"flood-fill oracle")


def test_criterion_07_symbol_suite(dwt):
    """Closed forms vs quadrature, positivity, modulus bound."""
    rng = np.random.default_rng(1001)
    from ballwalk import symbols
    worst_q = 0.0
    for dim in (1, 2):
        for r in rng.uniform(0.0, 30.0, size=100):
            worst_q = max(worst_q, abs(symbols.multiplier(dim, r)
                                       - oracles.multiplier_quad(dim, r)))
        for r in rng.uniform(0.0, 10.0, size=100):
            worst_q = max(worst_q, abs(symbols.multiplier_imag(dim, r)
                                       - oracles.multiplier_imag_quad(dim, r)))
    assert worst_q <= 1e-9
    beta_err = max(abs((1 - symbols.multiplier(d, 1e-2)) / 1e-4
                       - oracles.quadratic_coefficient(d)) for d in (1, 2))
    assert beta_err < 1e-6
    xs = rng.uniform(-2, 2, size=10_000)
    xis = rng.uniform(-30, 30, size=10_000)
    g = np.abs(potentials.gradient(dwt, xs[:, None]).ravel())
    p0 = 1.0 - symbols.multiplier(1, xis) / symbols.multiplier_imag(1, g)
    assert p0.min() >= -1e-12
    worst_m = -np.inf
    for _ in range(1000):
        xi, tau = rng.uniform(-8, 8), rng.uniform(-5, 5)
        worst_m = max(worst_m,
                      oracles.multiplier_complex_modulus_quad(xi, tau)
                      - symbols.multiplier_imag(1, abs(tau)))
    assert worst_m <= 1e-10
    print(f"[criterion 7] closed-form vs quadrature {worst_q:.2e} (<=1e-9), "
          f"beta limit err {beta_err:.2e}, min p0 {p0.min():.2e}, "
          f"modulus excess {worst_m:.2e}")


@pytest.fixture(scope="module")
def metastability_runs(dwt, lab1d):
    """Criterion 8 simulation data: one plateau run and three exit runs."""
    def weights(h):
        return gridop.assemble_walk(lab1d.values, lab1d.grid, h).data.pi

    out = {}
    # spectral gap at h = 0.25 fixes the plateau window
    g25 = gridop.build_grid(BOX_1D, DX_1D)
    p25 = gridop.to_P(gridop.assemble_walk(gridop.sample(dwt, g25), g25, 0.25))
    gap = eigen.smallest_eigs(p25, count=3).eigenvalues[1]
    out["gap"] = gap
    n2 = int(math.floor(0.1 / gap))
    cfg = walk.WalkConfig(spec=dwt, h=0.25, n_steps=n2 + 20, n_chains=10_000,
                          seed=20240, start=("well", 2), record_every=5)
    out["plateau"] = walk.simulate(cfg, lab1d, stationary_weights=weights(0.25))
    out["exits"] = {}
    for h, cap in ((0.35, 8000), (0.30, 16000), (0.25, 40000)):
        cfg = walk.WalkConfig(spec=dwt, h=h, n_steps=cap, n_chains=10_000,
                              seed=515, start=("well", 2), record_every=cap,
                              freeze_exited=True)
        out["exits"][h] = walk.simulate(cfg, lab1d,
                                        stationary_weights=weights(h))
    return out


def test_criterion_08a_occupation_plateau(metastability_runs):
    """Occupation drop < 5% over [2|ln h|/h, 0.1/gap] from the shallow well.

    Structurally this window pins the drop near (1 - e^(-0.1)) times the
    non-stationary share, about 9.5 percent for any shallow start well; the
    criterion is asserted as stated and the measured plateau numbers are
    printed either way.
    """
    h = 0.25
    tr = metastability_runs["plateau"]
    gap = metastability_runs["gap"]
    n1 = int(math.ceil(2 * abs(math.log(h)) / h))
    n2 = int(math.floor(0.1 / gap))
    steps = tr.recorded_steps
    frac = tr.occupation[:, 1] / tr.n_chains
    i1 = int(np.searchsorted(steps, n1))
    i2 = int(np.searchsorted(steps, n2, side="right")) - 1
    drop = (frac[i1] - frac[i2]) / frac[i1]
    print(f"[criterion 8a] occ({steps[i1]}) = {frac[i1]:.4f}, "
          f"occ({steps[i2]}) = {frac[i2]:.4f}, relative drop "
          f"{drop * 100:.2f}% over window [{n1}, {n2}] (criterion: < 5%)")
    assert drop < 0.05


def test_criterion_08b_exit_time_scaling(metastability_runs, lab1d):
    """Mean first-exit Arrhenius slope within 15% of 2 S_2, 1e4 chains."""
    S2 = lab1d.pairs[1][3]
    hs, ys = [], []
    for h, tr in sorted(metastability_runs["exits"].items(), reverse=True):
        exited = tr.first_exit_steps[tr.first_exit_steps > 0]
        assert exited.size >= 0.99 * tr.n_chains
        mean = float(exited.mean())
        hs.append(h)
        ys.append(math.log(mean * h))
    x = 1.0 / np.array(hs)
    slope = np.polyfit(x, ys, 1)[0]
    rel = abs(slope - 2 * S2) / (2 * S2)
    print(f"[criterion 8b] exit slope {slope:.4f} vs 2 S_2 = {2 * S2:.4f}, "
          f"rel err {rel * 100:.2f}% (< 15%)")
    assert rel <= 0.15


def test_criterion_09_quasimode_diagnostics(dwt, lab1d, sweep1d):
    """Gram off-diagonal decay and quasimode/eigenspace alignment."""
    grid = gridop.build_grid(BOX_1D, 0.004)   # the witten benchmark grid
    offs, coss = [], []
    for h in H_SWEEP_1D:
        q = oracles.build_quasimodes(grid, dwt, lab1d, h=h)
        offs.append(abs(q.gram[0, 1]))
        wres = sweep1d[h]["w_res"]
        cos = oracles.subspace_alignment(q, wres.vectors[:, :2])
        coss.append(cos)
        assert cos >= 1.0 - 5.0 * h, f"h={h}: cos={cos}"
    x = 1.0 / np.array(H_SWEEP_1D)
    y = np.log(offs)
    coef = np.polyfit(x, y, 1)
    assert coef[0] < 0
    resid = y - np.polyval(coef, x)
    assert np.max(np.abs(resid)) < 0.5
    print(f"[criterion 9] gram off-diag {offs[0]:.1e} -> {offs[-1]:.1e} "
          f"(log-linear, slope {coef[0]:.2f}); "
          f"worst alignment cos {min(coss):.6f}")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical outputs of every data subcommand at any thread count."""
    doc = {
        "schema_version": 1,
        "potential": {"dimension": 1, "form": "builtin",
                      "name": "double_well_tilted", "params": [0.3]},
        "box": [[-2.0, 2.0]],
        "dx": 0.005,
        "h_list": [0.3, 0.25, 0.2, 0.15],
        "count": 5,
        "landscape": {"dx": 0.002},
        "walk": {"h": 0.25, "n_steps": 60, "n_chains": 1000, "seed": 99,
                 "start": {"well": 2}, "record_every": 10},
        "output": {"directory": "out", "formats": ["json", "csv"]},
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    commands = ("landscape", "spectrum", "sweep", "predict", "simulate")
    digests = {cmd: set() for cmd in commands}
    for threads, repeat in (("1", 0), ("4", 0), ("1", 1)):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        for cmd in commands:
            out = tmp_path / f"{cmd}_{threads}_{repeat}"
            r = subprocess.run(
                [sys.executable, "-m", "ballwalk.cli", cmd, str(cfgp),
                 "--output-dir", str(out)],
                capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            blob = b""
            for name in sorted(os.listdir(out)):
                if name.endswith("_metadata.json"):
                    continue
                blob += (out / name).read_bytes()
            digests[cmd].add(blob)
    for cmd in commands:
        assert len(digests[cmd]) == 1, cmd
    print(f"[criterion 10] {', '.join(commands)} outputs byte-identical "
          "across thread settings and repeats")
