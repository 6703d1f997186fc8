import dataclasses
import json
import math
import os
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2 as chi2dist

from ballwalk import config, gridop, landscape, pipeline, potentials, walk
from ballwalk.potentials import Box
from ballwalk.walk import WalkConfig

import oracles


@pytest.fixture(scope="module")
def dwt_sim(dwt, box1d):
    lab = landscape.label_potential(dwt, box1d, dx=2e-3)

    def weights(h):
        return gridop.assemble_walk(lab.values, lab.grid, h).data.pi
    return lab, weights


def test_uniform_sampling_in_ball():
    const = potentials.polynomial([((0,), 1.0)])
    rng = np.random.Generator(np.random.Philox(key=5))
    xs = np.array([oracles.single_chain_step(0.3, const, 0.2, rng)
                   for _ in range(20000)])
    offs = xs[:, 0] - 0.3
    assert np.abs(offs).max() <= 0.2
    sigma = 0.2 / math.sqrt(3.0)
    assert abs(offs.mean()) <= 4.0 * sigma / math.sqrt(len(offs))


def test_step_exactness_chi_square(dwt):
    h = 0.2
    z = quad(lambda y: np.exp(-potentials.value(dwt, y) / h), -h, h,
             epsabs=1e-13)[0]
    nbin = 40
    edges = np.linspace(-h, h, nbin + 1)
    probs = np.array([quad(lambda y: np.exp(-potentials.value(dwt, y) / h),
                           edges[i], edges[i + 1])[0] / z
                      for i in range(nbin)])
    pos = np.zeros((200_000, 1))
    walk._advance_all(dwt, h, pos, seed=77, step_index=1,
                      lower=walk.ball_lower_bound(dwt, h, pos))
    cnt = np.histogram(pos[:, 0], bins=edges)[0]
    expect = probs * len(pos)
    chi2 = float(np.sum((cnt - expect) ** 2 / expect))
    pval = 1.0 - chi2dist.cdf(chi2, nbin - 1)
    assert pval > 0.001


def test_single_step_matches_batched(dwt):
    # the lower bound is the same in both paths, so both sample one law
    rng = np.random.Generator(np.random.Philox(key=9))
    xs = np.array([oracles.single_chain_step(0.5, dwt, 0.15, rng)
                   for _ in range(50_000)])
    pos = np.full((50_000, 1), 0.5)
    walk._advance_all(dwt, 0.15, pos, seed=8, step_index=1,
                      lower=walk.ball_lower_bound(dwt, 0.15, pos))
    # same law: compare histograms loosely (two-sample chi-square)
    edges = np.linspace(0.35, 0.65, 21)
    c1 = np.histogram(xs[:, 0], bins=edges)[0] + 1
    c2 = np.histogram(pos[:, 0], bins=edges)[0] + 1
    stat = np.sum((c1 - c2) ** 2 / (c1 + c2))
    assert stat < 60.0


def test_detailed_balance_binned_flux(dwt, dwt_sim, box1d):
    # chains drawn from the stationary histogram: the one-step flux between
    # spatial bins must balance within Monte Carlo error
    lab, weights = dwt_sim
    h = 0.25
    pi = weights(h)
    n_chains = 30_000
    cfg = WalkConfig(spec=dwt, h=h, n_steps=1, n_chains=n_chains, seed=31,
                     start="stationary", record_every=1)
    pos = walk._initial_positions(cfg, lab, pi)
    edges = np.linspace(-1.6, 1.6, 9)
    counts = np.zeros((8, 8))
    for n in range(1, 40):
        prev = np.clip(np.digitize(pos[:, 0], edges) - 1, 0, 7)
        walk._advance_all(dwt, h, pos, seed=123, step_index=n,
                          lower=walk.ball_lower_bound(dwt, h, pos))
        cur = np.clip(np.digitize(pos[:, 0], edges) - 1, 0, 7)
        np.add.at(counts, (prev, cur), 1)
    asym = counts - counts.T
    for i in range(8):
        for j in range(i + 1, 8):
            tot = counts[i, j] + counts[j, i]
            if tot > 200:
                assert abs(asym[i, j]) <= 5.0 * math.sqrt(tot)


def test_rejection_stall_guard():
    steep = potentials.polynomial([((1,), 1e5)])
    with pytest.raises(walk.RejectionStall):
        # the round budget is tiny here to keep the test fast
        old = walk.MAX_REJECTION_ROUNDS
        walk.MAX_REJECTION_ROUNDS = 3
        try:
            pos = np.zeros((4, 1))
            walk._advance_all(steep, 0.5, pos, seed=1, step_index=1,
                              lower=walk.ball_lower_bound(steep, 0.5, pos))
        finally:
            walk.MAX_REJECTION_ROUNDS = old


@pytest.mark.parametrize("budget", [3, 5])
def test_rejection_stall_inside_batch(budget, monkeypatch):
    # on a tilt of 6 the chains far out on the walls need hundreds of rounds
    # and the ones near the wells settle within a few; 14 chains take many
    # rounds per pass, so the budget cuts a pass short: the stall must fire
    # at the same round as in the slot-by-slot sampler, with every chain
    # that settled before it already moved
    monkeypatch.setattr(walk, "MAX_REJECTION_ROUNDS", budget)
    spec = potentials.builtin("double_well_tilted", (6.0,))
    start = np.linspace(-2.6, 2.6, 14)[:, None]
    pos, ref = start.copy(), start.copy()
    with pytest.raises(walk.RejectionStall, match=f"after {budget} rounds"):
        walk._advance_all(spec, 0.3, pos, seed=5, step_index=1,
                          lower=walk.ball_lower_bound(spec, 0.3, pos))
    with pytest.raises(walk.RejectionStall, match=f"after {budget} rounds"):
        oracles.slot_loop_advance_all(spec, 0.3, ref, seed=5, step_index=1)
    assert np.array_equal(pos, ref)
    moved = np.count_nonzero(pos != start)
    assert 0 < moved < start.shape[0]


@pytest.mark.parametrize("name, h, tilt, n_chains, stride", [
    ("double_well_tilted", 0.25, 0.3, 3000, None),
    ("double_well_tilted", 0.25, 0.3, 3000, 7),
    ("three_well", 0.2, None, 2000, None),
    ("three_well", 0.2, None, 2000, 5),
    # a steep tilt: about three rejection rounds per chain-step
    ("double_well_tilted", 0.3, 6.0, 2000, None),
    ("double_well_tilted", 0.3, 6.0, 2000, 3),
    # few active chains: rounds are drawn several at a time
    ("double_well_tilted", 0.3, 6.0, 2000, 97),
])
def test_batched_rounds_match_slot_loop(name, h, tilt, n_chains, stride,
                                        monkeypatch):
    # the evaluation in passes must reproduce the slot-by-slot sampler bit
    # for bit: positions, and all five counts (accepted, proposed, rounds,
    # chain_rounds, violations); with a stride only every stride-th chain
    # (from chain 1) is advanced
    spec = potentials.builtin(name, () if tilt is None else (tilt,))
    d = spec.dimension
    gen = np.random.Generator(np.random.Philox(key=2))
    start = gen.uniform(-1.4, 1.4, size=(n_chains, d))
    active = None if stride is None else np.arange(1, n_chains, stride)
    batches = []
    uniforms = walk._uniforms

    def spy(stream, rounds, chains, first_col, stop_col):
        batches.append((len(rounds), first_col, stop_col))
        return uniforms(stream, rounds, chains, first_col, stop_col)

    monkeypatch.setattr(walk, "_uniforms", spy)
    pos, ref = start.copy(), start.copy()
    rounds = []
    for n in range(1, 5):
        chains = slice(None) if active is None else active
        counts = walk._advance_all(
            spec, h, pos, seed=19, step_index=n, active=active,
            lower=walk.ball_lower_bound(spec, h, pos[chains]))
        expect = oracles.slot_loop_advance_all(spec, h, ref, seed=19,
                                               step_index=n, active=active)
        assert np.array_equal(pos, ref)
        assert tuple(counts) == expect
        rounds.append(counts.rounds)
    assert not np.array_equal(pos, start)
    assert max(rounds) > 1
    # many chains take round 0 in two parts; few take several rounds a pass
    head = walk._FIRST_SLOTS * (d + 1)
    if stride is None:
        assert (1, 0, head) in batches
        assert (1, head, walk._SLOTS * (d + 1)) in batches
    if stride == 97:
        assert max(batches)[0] > 1
    assert np.array_equal(walk.ball_lower_bound(spec, h, start),
                          oracles.slot_loop_lower_bound(spec, h, start))


@pytest.mark.parametrize("spec", [
    potentials.builtin("double_well_tilted", (0.3,)),
    potentials.builtin("double_well"),
    potentials.builtin("single_well"),
    potentials.builtin("three_well"),
    potentials.polynomial([((4,), 1.0), ((3,), 0.2), ((2,), -2.0)]),
    potentials.polynomial([((4, 0), 1.0), ((0, 4), 1.0), ((2, 1), -0.7),
                           ((0, 2), -1.0)]),
], ids=["dwt", "dw", "sw", "three_well", "poly1d", "poly2d"])
def test_lower_bound_matches_slot_loop(spec):
    # one probe pass for values and gradients gives the same bits as the
    # chain-major bound built from separate value and gradient calls
    gen = np.random.Generator(np.random.Philox(key=6))
    x = gen.uniform(-2.2, 2.2, size=(2000, spec.dimension))
    for h in (0.12, 0.3):
        assert np.array_equal(walk.ball_lower_bound(spec, h, x),
                              oracles.slot_loop_lower_bound(spec, h, x))


def test_uniforms_match_slot_loop():
    chains = np.array([0, 1, 17, 4000, 2**40 + 3])
    stream = walk._stream(11, 5)
    for n_slots in (2, 3, 16, 24):
        assert np.array_equal(
            walk._uniforms(stream, [2], chains, 0, n_slots)[0].T,
            oracles.slot_loop_uniforms(11, 5, 2, chains, n_slots))
    # several rounds and a column range: each round's lanes, cut to the range
    block = walk._uniforms(stream, [2, 3, 4], chains, 6, 24)
    for j, rnd in enumerate((2, 3, 4)):
        assert np.array_equal(
            block[j].T, oracles.slot_loop_uniforms(11, 5, rnd, chains, 24)[:, 6:])


def test_stream_known_answers():
    # words of the counter-based stream pinned to hex: the slot-loop oracle
    # builds its uniforms with walk._mix64, so only fixed values catch a
    # change of the mixer itself
    z = np.array([0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF], np.uint64)
    assert [hex(v) for v in walk._mix64(z).tolist()] == [
        "0x0", "0x5692161d100b05e5", "0x25c26ea579cea98a",
        "0xb4d055fcf2cbbd7b", "0xb2c058e4ebb5112c"]
    for seed, step, key in [
            (0, 0, 0x7ab40e090f363a7d),
            (424242, 400, 0x61ded5b748580be1),
            (-1, 7, 0xfbd2c269350a8823),                # a negative seed
            (-(2**70) + 5, 3, 0x584284394309850f),
            (2**63 + 12345, 9, 0xf13ae858f846f821),     # a seed >= 2**63
            (2**64 + 1, 2, 0x7adda25fcf93ee03),
            (424242, walk._INIT_STEP, 0xc21a9f7a93f59ba3)]:
        assert int(walk._stream(seed, step)) == key, (seed, step)

    def words(stream, rounds, chains, first_col, stop_col):
        u = walk._uniforms(stream, rounds, np.array(chains), first_col,
                           stop_col)
        return [[hex(w) for w in row] for row in
                (u * 2.0**53).astype(np.uint64).reshape(-1, len(chains)).tolist()]

    stream = walk._stream(2**63 + 12345, 9)
    # (round, column) rows by chain columns; rounds 0 and 3, columns 2 and 3
    assert words(stream, [0, 3], [0, 2**40 + 3], 2, 4) == [
        ["0x23f5cb9ee3300", "0x1e11874900193b"],
        ["0x1a7d609a1048c5", "0x5dcba811be9aa"],
        ["0xba4243f7ffc3a", "0x1847acdfd028a"],
        ["0x8efb5d73b72fd", "0x182f8230708d3e"]]
    # the start positions' stream
    stream = walk._stream(-3, walk._INIT_STEP)
    assert words(stream, [0], [1, 1999], 0, 2) == [
        ["0x19e68c95fb07cb", "0x1051b1278f530d"],
        ["0x14947ad3311395", "0x1d1497ecc862c"]]


def test_trajectory_independent_of_batch(dwt):
    # a chain's trajectory is a function of (seed, chain id) alone: chains
    # advanced on their own equal the same chains inside a larger batch
    ids = np.array([3, 17, 41])
    gen = np.random.Generator(np.random.Philox(key=4))
    start = gen.uniform(-1.4, 1.4, size=(1000, 1))
    alone, batch = start.copy(), start.copy()
    for n in range(1, 31):
        walk._advance_all(dwt, 0.25, alone, seed=8, step_index=n, active=ids,
                          lower=walk.ball_lower_bound(dwt, 0.25, alone[ids]))
        walk._advance_all(dwt, 0.25, batch, seed=8, step_index=n,
                          lower=walk.ball_lower_bound(dwt, 0.25, batch))
    assert np.array_equal(alone[ids], batch[ids])
    assert not np.array_equal(alone[ids], start[ids])
    others = np.setdiff1d(np.arange(1000), ids)
    assert np.array_equal(alone[others], start[others])


def test_step_counts(dwt):
    pos = np.full((500, 1), 0.9)
    c = walk._advance_all(dwt, 0.25, pos, seed=3, step_index=1,
                          lower=walk.ball_lower_bound(dwt, 0.25, pos))
    assert c.accepted == 500
    assert c.accepted <= c.chain_rounds <= c.rounds * c.accepted
    assert c.chain_rounds <= c.proposed <= walk._SLOTS * c.chain_rounds
    assert c.violations == 0
    # a bound above phi everywhere: every first proposal is accepted, and
    # each one is a violation
    c = walk._advance_all(dwt, 0.25, pos, seed=3, step_index=2,
                          lower=np.full(pos.shape[0], np.inf))
    assert c == (500, 500, 1, 500, 500)


def test_bound_memo_fills_each_cell_once(dwt, box1d, monkeypatch):
    # a cell's L is the probe heuristic over the ball of radius
    # h + sqrt(d) dx / 2 about the cell's centre, evaluated on the first
    # visit only; later batches land in cells filled before
    grid = gridop.build_grid(box1d, 0.002)
    h = 0.25
    radius = h + 0.5 * math.sqrt(1) * 0.002
    memo = walk._BoundMemo(dwt, h, grid)
    bound = walk.ball_lower_bound
    filled = []

    def spy(spec, r, x):
        assert r == radius
        filled.extend(grid.floor(x)[:, 0].tolist())
        return bound(spec, r, x)

    monkeypatch.setattr(walk, "ball_lower_bound", spy)
    gen = np.random.Generator(np.random.Philox(key=12))
    for _ in range(4):
        pos = gen.uniform(-2.2, 2.2, size=(3000, 1))
        cells = grid.floor(pos)
        lower = memo.lower(pos, np.arange(pos.shape[0]), cells)
        assert np.array_equal(lower,
                              bound(dwt, radius, grid.coordinate(cells)))
    assert len(filled) == len(set(filled)) == memo.filled().size
    assert memo.fallbacks == 0


def test_bound_memo_falls_back_outside_the_padded_grid(dwt, box1d):
    # the grid [-2, 2] is padded by ceil(h / dx) + 1 = 126 cells a side, to
    # [-2.252, 2.252); a chain past that gets the heuristic over its own
    # ball, and only the chains at ``rows`` are bounded
    grid = gridop.build_grid(box1d, 0.002)
    h = 0.25
    memo = walk._BoundMemo(dwt, h, grid)
    pos = np.array([[-3.0], [0.7], [-2.26], [0.3], [2.26], [1.9], [2.9]])
    rows = np.array([0, 2, 3, 4, 6])
    lower = memo.lower(pos, rows, grid.floor(pos[rows]))
    out = [0, 1, 3, 4]
    assert np.array_equal(lower[out],
                          walk.ball_lower_bound(dwt, h, pos[rows[out]]))
    assert lower[2] == walk.ball_lower_bound(
        dwt, memo.radius, grid.coordinate(grid.floor(pos[3])))[0]
    assert memo.fallbacks == 4 and memo.filled().size == 1


@pytest.mark.parametrize("name, box, dx, h", [
    ("double_well_tilted", [(-2.0, 2.0)], 0.002, 0.25),
    ("three_well", [(-2.4, 2.4)] * 2, 0.0125, 0.3),
])
def test_bound_memo_below_phi_on_random_balls(name, box, dx, h):
    # balls centred up to 2h past the box edge: in the box, in its padding
    # and beyond it; phi is sampled on each ball finely, edge included
    spec = potentials.builtin(name)
    grid = gridop.build_grid(Box.from_pairs(box), dx)
    memo = walk._BoundMemo(spec, h, grid)
    d = spec.dimension
    gen = np.random.Generator(np.random.Philox(key=13))
    x = gen.uniform(np.subtract(grid.box.lo, 2 * h),
                    np.add(grid.box.hi, 2 * h), size=(400, d))
    lower = memo.lower(x, np.arange(x.shape[0]), grid.floor(x))
    if d == 1:
        offs = h * np.linspace(-1.0, 1.0, 2001)[:, None]
    else:
        rho, theta = np.meshgrid(h * np.linspace(0.0, 1.0, 41),
                                 np.linspace(0.0, 2.0 * math.pi, 96,
                                             endpoint=False))
        offs = np.stack([(rho * np.cos(theta)).ravel(),
                         (rho * np.sin(theta)).ravel()], axis=1)
    phi = potentials.value(spec, (x[:, None, :] + offs).reshape(-1, d))
    assert memo.fallbacks > 0 and memo.filled().size > 0
    assert np.all(lower <= phi.reshape(x.shape[0], -1).min(axis=1))


def test_frozen_chains_are_not_looked_up(dwt_sim, dwt, monkeypatch):
    # after the initial floor of every chain, step n floors only the chains
    # that were still in their start well when it began, and no step runs
    # once all have left
    lab, weights = dwt_sim
    sizes = []
    floor = gridop.Grid.floor

    def spy(self, pts):
        if np.ndim(pts) == 2:          # the labeling floors single points
            sizes.append(len(pts))
        return floor(self, pts)

    monkeypatch.setattr(gridop.Grid, "floor", spy)
    cfg = WalkConfig(spec=dwt, h=0.6, n_steps=400, n_chains=50, seed=3,
                     start=("well", 2), record_every=7, freeze_exited=True)
    exits = walk.simulate(cfg, lab, stationary_weights=weights(0.6)
                          ).first_exit_steps
    last = exits.max()
    assert exits.min() > 0
    assert sizes == [50] + [int(np.count_nonzero(exits >= n))
                            for n in range(1, last + 1)]


def test_reproducibility_bitwise(dwt_sim, dwt):
    lab, weights = dwt_sim
    pi = weights(0.25)
    cfg = WalkConfig(spec=dwt, h=0.25, n_steps=300, n_chains=1500, seed=99,
                     start=("well", 2), record_every=10)
    t1 = walk.simulate(cfg, lab, stationary_weights=pi)
    t2 = walk.simulate(cfg, lab, stationary_weights=pi)
    assert np.array_equal(t1.occupation, t2.occupation)
    assert np.array_equal(t1.first_exit_steps, t2.first_exit_steps)
    assert t1.acceptance_rate == t2.acceptance_rate
    assert t1.rejection_rounds_max >= 1
    assert 1.0 <= t1.rejection_rounds_mean <= t1.rejection_rounds_max
    assert t1.bound_violations == 0


def test_freeze_exited_preserves_exits(dwt_sim, dwt):
    lab, weights = dwt_sim
    pi = weights(0.3)
    cfg = WalkConfig(spec=dwt, h=0.3, n_steps=1500, n_chains=400, seed=3,
                     start=("well", 2), record_every=1500)
    full = walk.simulate(cfg, lab, stationary_weights=pi)
    frozen = walk.simulate(dataclasses.replace(cfg, freeze_exited=True), lab,
                           stationary_weights=pi)
    assert np.array_equal(full.first_exit_steps, frozen.first_exit_steps)


def test_frozen_run_records_to_the_last_step(dwt_sim, dwt):
    # at h 0.6 all 50 chains have left well 2 by about step 145; the rows
    # still follow the record_every schedule to n_steps, repeating the
    # frozen occupation
    lab, weights = dwt_sim
    cfg = WalkConfig(spec=dwt, h=0.6, n_steps=400, n_chains=50, seed=3,
                     start=("well", 2), record_every=7, freeze_exited=True)
    tr = walk.simulate(cfg, lab, stationary_weights=weights(0.6))
    assert list(tr.recorded_steps) == list(range(0, 400, 7)) + [400]
    last_exit = tr.first_exit_steps.max()
    assert tr.first_exit_steps.min() > 0 and last_exit < 200
    frozen = tr.occupation[tr.recorded_steps >= last_exit]
    assert len(frozen) > 20
    assert np.array_equal(frozen, np.tile([50, 0], (len(frozen), 1)))


def _force_workers(monkeypatch, workers):
    """Make simulate split any chain count over ``workers`` processes."""
    monkeypatch.setattr(walk, "_MIN_CHAINS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(workers)))
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def test_worker_count(monkeypatch):
    # one process per usable core, each with at least 1000 chains; one
    # where fork is missing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [walk.worker_count(n) for n in (1, 1999, 2000, 4000, 10**6)] == [
        1, 1, 2, 4, 8]
    monkeypatch.delattr(os, "fork")
    assert walk.worker_count(10**6) == 1


def _split_case(name, request):
    """(WalkConfig, labeling, stationary weights) of one split test case."""
    if name == "three_well":
        lab = request.getfixturevalue("three_well_labeling")
        spec = request.getfixturevalue("three_well")
        cfg = WalkConfig(spec=spec, h=0.3, n_steps=30, n_chains=150, seed=9,
                         start=("point", [-1.0, 0.1]), record_every=4)
        return cfg, lab, None
    dwt = request.getfixturevalue("dwt")
    lab, weights = request.getfixturevalue("dwt_sim")
    start, h, n_steps, n_chains, extra = {
        "stationary": ("stationary", 0.25, 40, 300, {}),
        "well": (("well", 2), 0.25, 40, 300, {}),
        "point": (("point", [-0.4]), 0.25, 40, 300, {}),
        # blocks run out of chains at different steps, all before n_steps
        "frozen": (("well", 2), 0.6, 400, 50, {"freeze_exited": True}),
    }[name]
    cfg = WalkConfig(spec=dwt, h=h, n_steps=n_steps, n_chains=n_chains,
                     seed=3, start=start, record_every=7, **extra)
    return cfg, lab, weights(h)


@pytest.mark.parametrize("case", ["stationary", "well", "point", "frozen",
                                  "three_well"])
def test_split_over_processes_is_bit_identical(case, request, monkeypatch):
    # chain i's trajectory is a function of (seed, i) alone, so the trace of
    # chains split into blocks over 2 or 3 processes equals one process's
    cfg, lab, pi = _split_case(case, request)
    one = walk.simulate(cfg, lab, stationary_weights=pi)
    for workers in (2, 3):
        forks = _force_workers(monkeypatch, workers)
        assert walk.worker_count(cfg.n_chains) == workers
        split = walk.simulate(cfg, lab, stationary_weights=pi)
        assert len(forks) == workers - 1
        for field in dataclasses.fields(walk.WalkTrace):
            a, b = getattr(one, field.name), getattr(split, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
    if case == "frozen":
        # each block of the 3-way split froze at its own step
        n = cfg.n_chains
        ends = [one.first_exit_steps[n * b // 3:n * (b + 1) // 3].max()
                for b in range(3)]
        assert len(set(ends)) == 3 and max(ends) < cfg.n_steps


def test_rejection_stall_inside_forked_block(monkeypatch):
    # the budget of test_rejection_stall_inside_batch, with every chain in a
    # forked block: its stall reaches the caller with its step
    monkeypatch.setattr(walk, "MAX_REJECTION_ROUNDS", 3)
    spec = potentials.builtin("double_well_tilted", (6.0,))
    pos = np.linspace(-2.6, 2.6, 14)[:, None]

    def run(lo, hi):
        return walk._advance_all(
            spec, 0.3, pos[lo:hi], seed=5, step_index=4, first_chain=lo,
            lower=walk.ball_lower_bound(spec, 0.3, pos[lo:hi]))

    with pytest.raises(walk.RejectionStall, match="after 3 rounds") as exc:
        walk._in_blocks(run, [0, 0, 14])
    assert exc.value.step == 4


@pytest.mark.parametrize("stall_steps, first_chain", [
    ({0: 9, 100: 7, 200: 5}, 200),     # the earliest step wins
    ({0: 9, 100: 5, 200: 5}, 100),     # ties go to the lowest block
    ({0: 5, 100: 5, 200: 5}, 0),
    ({100: 6}, 100),                   # a forked block alone
])
def test_earliest_stall_of_the_blocks_is_raised(dwt_sim, dwt, stall_steps,
                                                first_chain, monkeypatch):
    advance = walk._advance_all

    def stalling(spec, h, pos, seed, step_index, lower, active=None,
                 first_chain=0):
        if stall_steps.get(first_chain) == step_index:
            raise walk.RejectionStall(f"block at chain {first_chain} stuck",
                                      step=step_index)
        return advance(spec, h, pos, seed, step_index, lower, active,
                       first_chain)

    monkeypatch.setattr(walk, "_advance_all", stalling)
    _force_workers(monkeypatch, 3)
    cfg = WalkConfig(spec=dwt, h=0.25, n_steps=12, n_chains=300,
                     start=("point", [0.9]))
    lab, weights = dwt_sim
    with pytest.raises(walk.RejectionStall) as exc:
        walk.simulate(cfg, lab, stationary_weights=weights(0.25))
    assert str(exc.value) == f"block at chain {first_chain} stuck"
    assert exc.value.step == stall_steps[first_chain]


def test_stationarity_preserved(dwt_sim, dwt):
    lab, weights = dwt_sim
    h = 0.25
    pi = weights(h)
    n_chains = 20_000
    cfg = WalkConfig(spec=dwt, h=h, n_steps=25, n_chains=n_chains, seed=11,
                     start="stationary", record_every=5)
    tr = walk.simulate(cfg, lab, stationary_weights=pi)
    frac2 = pi[lab.component_ids.ravel() == 2].sum()
    sigma = math.sqrt(frac2 * (1 - frac2) / n_chains)
    for row in tr.occupation:
        assert abs(row[1] / n_chains - frac2) <= 4.0 * sigma


def test_acceptance_rate_lower_bound(dwt_sim, dwt, box1d):
    lab, weights = dwt_sim
    pi = weights(0.25)
    cfg = WalkConfig(spec=dwt, h=0.25, n_steps=50, n_chains=2000, seed=5,
                     start=("well", 1), record_every=50)
    tr = walk.simulate(cfg, lab, stationary_weights=pi)
    lip = oracles.max_gradient_norm(dwt, box1d)
    assert tr.acceptance_rate >= math.exp(-2.0 * lip)
    assert 0.0 < tr.acceptance_rate <= 1.0


def test_empirical_gap_synthetic_two_state():
    # two-state chain with a known relaxation rate
    rate = 0.01
    pi2 = 0.2
    steps = np.arange(0, 600, 10)
    n_chains = 200_000
    rng = np.random.default_rng(0)
    frac = pi2 + (1 - pi2) * np.exp(-rate * steps)
    counts = rng.binomial(n_chains, frac)
    occ = np.stack([n_chains - counts, counts], axis=1)
    tr = walk.WalkTrace(recorded_steps=steps, occupation=occ,
                        first_exit_steps=np.zeros(n_chains, dtype=np.int64),
                        acceptance_rate=1.0, start_well=2, n_chains=n_chains,
                        chain_steps=n_chains * int(steps[-1]))
    est = walk.empirical_gap(tr, stationary_fraction=pi2)
    assert est.ci_low <= rate <= est.ci_high
    assert est.rate == pytest.approx(rate, rel=0.05)


def test_empirical_gap_not_relaxed():
    steps = np.arange(0, 100, 10)
    occ = np.stack([np.zeros(10, dtype=int), np.full(10, 1000)], axis=1)
    tr = walk.WalkTrace(recorded_steps=steps, occupation=occ,
                        first_exit_steps=np.zeros(1000, dtype=np.int64),
                        acceptance_rate=1.0, start_well=2, n_chains=1000,
                        chain_steps=1000 * 90)
    with pytest.raises(walk.NotRelaxed):
        walk.empirical_gap(tr, stationary_fraction=0.01)


def test_well_lookup_on_labeling(dwt_sim):
    # the sampler reads a chain's well straight off the labeling
    lab, _ = dwt_sim
    assert lab.n0 == lab.component_ids.max() == 2
    pts = np.array([[-1.0], [0.96], [1.9], [-1.9]])
    wells = lab.component_ids.ravel()[lab.grid.cells_of(pts)]
    assert list(wells) == [1, 2, 2, 1]


def test_start_point(dwt_sim, dwt):
    lab, weights = dwt_sim
    cfg = WalkConfig(spec=dwt, h=0.2, n_steps=1, n_chains=64, seed=1,
                     start=("point", [0.9]), record_every=1)
    tr = walk.simulate(cfg, lab, stationary_weights=weights(0.2))
    assert tr.occupation[0][1] == 64   # all chains start in well 2


def test_start_well_restricted(dwt_sim, dwt):
    lab, weights = dwt_sim
    pi = weights(0.25)
    cfg = WalkConfig(spec=dwt, h=0.25, n_steps=1, n_chains=512, seed=2,
                     start=("well", 2), record_every=1)
    tr = walk.simulate(cfg, lab, stationary_weights=pi)
    assert tr.occupation[0][1] == 512


def test_config_validation(dwt):
    with pytest.raises(ValueError):
        WalkConfig(spec=dwt, h=0.2, n_steps=0, n_chains=1, seed=1,
                   start="stationary")


@pytest.mark.parametrize("fields", [
    {"start": "stationary", "freeze_exited": True},
    {"start": ("point", [0.1, 0.2])},
])
def test_config_rejects_inconsistent_start(dwt, fields):
    # frozen exits are counted from a start well; a point needs one
    # coordinate per dimension
    with pytest.raises(ValueError, match="^start"):
        WalkConfig(spec=dwt, h=0.2, n_steps=1, n_chains=1, **fields)


def test_empirical_gap_matches_spectral(dwt_sim, dwt):
    # relaxation rate of the simulated chain vs the spectral gap, factor 2
    from ballwalk import eigen
    lab, weights = dwt_sim
    h = 0.25
    pi = weights(h)
    p = gridop.to_P(gridop.assemble_walk(lab.values, lab.grid, h))
    gap = eigen.smallest_eigs(p, count=3).eigenvalues[1]
    cfg = WalkConfig(spec=dwt, h=h, n_steps=9000, n_chains=2000, seed=606,
                     start=("well", 2), record_every=100)
    tr = walk.simulate(cfg, lab, stationary_weights=pi)
    frac2 = pi[lab.component_ids.ravel() == 2].sum()
    est = walk.empirical_gap(tr, stationary_fraction=float(frac2))
    assert gap / 2 <= est.rate <= gap * 2


def test_sampler_matches_exact_chain_law():
    # configs/simulate_1d.json at h = 0.5 and 100 steps, where 78% of the
    # chains leave well 2: at the shipped h = 0.25 only 15% leave in 400
    # steps, too few to tell a 10% slower walk from noise.  The bounds were
    # fixed before looking: every |z| of the recorded rows (each well's
    # occupation and the fraction exited so far, against the exact law of
    # the discrete chain) below the Bonferroni bound of a family-wise level
    # 1e-3, and the mean exit time of the exited chains within 4 standard
    # errors of the exact censored mean.
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "simulate_1d.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["walk"].update(h=0.5, n_steps=100)
    cfg = config.parse(doc)
    run = pipeline.run_simulation(cfg)
    lab = pipeline.run_landscape(cfg, cell_cap=pipeline.SIMULATION_CELL_CAP)
    tr = run.trace
    occupation, survival = oracles.walk_well_law(lab, cfg.walk.h, 2,
                                                 cfg.walk.n_steps)
    n = tr.n_chains
    exits = tr.first_exit_steps
    exited = [np.count_nonzero((exits > 0) & (exits <= t))
              for t in tr.recorded_steps]
    observed = np.column_stack([tr.occupation, exited]) / n
    expected = np.column_stack([occupation, 1.0 - survival])
    expected = expected[tr.recorded_steps].clip(0.0, 1.0)
    # a floor of one chain keeps the exact rows (all in well 2 at step 0)
    se = np.maximum(np.sqrt(expected * (1.0 - expected) / n), 1.0 / n)
    z = np.abs(observed - expected) / se
    bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * z.size))
    assert z.max() < bound, (z.max(), bound)
    died = survival[:-1] - survival[1:]
    steps = np.arange(1, cfg.walk.n_steps + 1)
    exact_mean = (steps * died).sum() / died.sum()
    assert abs(run.exit_mean - exact_mean) <= 4 * run.exit_stderr
