"""Simulation of the continuous-state ball walk.

One move from x samples the target density proportional to e^(-phi(y)/h)
restricted to the ball B(x, h), by rejection: propose uniformly in the
ball, accept with probability e^((L(x) - phi(y))/h) where L(x) is a lower
bound of phi on the ball.  Any valid lower bound leaves the sampled law
exact; only the acceptance rate depends on its quality, so L is built from
a local sample of the ball (values minus a gradient-scaled margin) rather
than a box-wide worst case, which would make the acceptance probability
astronomically small on boxes whose boundary gradient is large.  That L is
a probe heuristic, not a proven bound; the sampler counts the proposals
that fall below it (``bound_violations``), where the law would no longer
be exact.

Randomness is counter-based: round r of step n reads lane i of a stream
keyed by (seed, n, r), so chain i's trajectory is a pure function of
(seed, i) regardless of execution order, chain count, or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import potentials
from .gridop import Grid
from .landscape import LandscapeLabeling
from .potentials import PotentialSpec

MAX_REJECTION_ROUNDS = 1_000_000


class RejectionStall(RuntimeError):
    """A chain exceeded the rejection budget (mis-specified local bound)."""


class NotRelaxed(RuntimeError):
    """Trace too short: occupation deviation never decayed by half."""


@dataclass(frozen=True)
class WalkConfig:
    spec: PotentialSpec
    h: float
    n_steps: int
    n_chains: int
    seed: int
    start: object                  # ("point", x0) | ("well", k) | "stationary"
    record_every: int = 1

    def __post_init__(self):
        if self.n_steps < 1 or self.n_chains < 1 or self.record_every < 1:
            raise ValueError("n_steps, n_chains and record_every must be >= 1")


@dataclass(frozen=True)
class WalkTrace:
    recorded_steps: np.ndarray       # step indices of occupation rows
    occupation: np.ndarray           # (n_records, n0) chain counts per well
    first_exit_steps: np.ndarray     # per chain; 0 where the chain never left
    acceptance_rate: float
    start_well: int | None
    n_chains: int
    # sampler health: rejection rounds per chain-step, and consumed
    # proposals that fell below the local lower bound
    rejection_rounds_max: int = 0
    rejection_rounds_mean: float = 0.0
    bound_violations: int = 0


@dataclass(frozen=True)
class WellMap:
    """Partition of the box into wells, from the landscape component map."""

    grid: Grid
    component_ids: np.ndarray

    @property
    def n_wells(self) -> int:
        return int(self.component_ids.max())

    def wells_of(self, pts: np.ndarray) -> np.ndarray:
        return self.component_ids.ravel()[self.grid.cells_of(pts)]


def well_map(labeling: LandscapeLabeling) -> WellMap:
    return WellMap(grid=labeling.grid, component_ids=labeling.component_ids)


# --- counter-based stream ------------------------------------------------------
#
# Uniforms are addressed, not streamed: lane (seed, step, round, slot, chain)
# maps through a chain of 64-bit finalizer mixes to one double in [0, 1).
# A chain's randomness is therefore a pure function of (seed, chain index),
# independent of execution order, of how many chains run, and of threading.

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INIT_STEP = (1 << 40) - 1
_SLOTS = 8          # proposals drawn per chain per rejection round


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))          # a new array; the rest in place
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, step: int, rnd: int, chains: np.ndarray,
              n_slots: int) -> np.ndarray:
    """Array (len(chains), n_slots) of addressed uniforms in [0, 1)."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
                      + np.uint64(1))
        base = _mix64(base ^ np.uint64(step) * _GOLDEN)
        base = _mix64(base ^ np.uint64(rnd) * _MIX2)
        lanes = _mix64(base ^ chains.astype(np.uint64) * _GOLDEN)
        slot_words = np.arange(1, n_slots + 1, dtype=np.uint64) * _MIX1
        words = _mix64(lanes[:, None] ^ slot_words[None, :])
    words >>= np.uint64(11)
    return words * (1.0 / (1 << 53))


# --- local lower bound ----------------------------------------------------------


def _ball_probe_offsets(dim: int, h: float) -> tuple[np.ndarray, float]:
    """Probe points inside B(0, h) and the covering radius of the pattern."""
    if dim == 1:
        offs = (h * np.linspace(-1.0, 1.0, 17))[:, None]
        cover = h / 16.0
    else:
        ang = 2.0 * math.pi * np.arange(12) / 12.0
        outer = h * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ang6 = 2.0 * math.pi * (np.arange(6) + 0.5) / 6.0
        inner = 0.55 * h * np.stack([np.cos(ang6), np.sin(ang6)], axis=1)
        offs = np.vstack([np.zeros((1, 2)), inner, outer])
        cover = 0.3 * h
    return offs, cover


def ball_lower_bound(spec: PotentialSpec, h: float, x: np.ndarray) -> np.ndarray:
    """Lower bound of phi on B(x, h), valid for each row of x.

    min over probe points minus (covering radius) * (largest probed
    gradient) * 1.5; the safety factor covers gradient variation between
    probes for the smooth potentials handled here.  This is a heuristic,
    not a certificate: nothing proves phi stays above it between probes.

    Probes are laid out probe-major, so both reductions run over
    contiguous rows; the square root is taken once, after the maximum of
    the squared gradient norms, which is exact since sqrt is monotone.
    """
    x = np.atleast_2d(x)
    offs, cover = _ball_probe_offsets(spec.dimension, h)
    pts = (offs[:, None, :] + x[None, :, :]).reshape(-1, spec.dimension)
    vals = potentials.value(spec, pts).reshape(offs.shape[0], -1)
    grads = potentials.gradient(spec, pts)
    gn2 = np.sum(grads * grads, axis=1).reshape(offs.shape[0], -1)
    return vals.min(axis=0) - 1.5 * cover * np.sqrt(gn2.max(axis=0))


def _propose(x: np.ndarray, h: float, u: np.ndarray) -> np.ndarray:
    """Uniform points of B(x, h) from unit uniforms along the last axis.

    ``x`` (..., d) broadcasts against ``u`` (..., >= d); the result has
    the broadcast leading shape and d columns.
    """
    if x.shape[-1] == 1:
        return x + h * (2.0 * u[..., :1] - 1.0)
    theta = 2.0 * math.pi * u[..., 0]
    rho = h * np.sqrt(u[..., 1])
    return x + np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


def step(x, spec: PotentialSpec, h: float, rng: np.random.Generator):
    """One exact move of a single chain, using an ordinary generator."""
    x = np.asarray(x, float).reshape(1, -1)
    lower = ball_lower_bound(spec, h, x)
    for _ in range(MAX_REJECTION_ROUNDS):
        u = rng.random((1, spec.dimension + 1))
        y = _propose(x, h, u)
        acc = math.exp(min(0.0, (lower[0] - float(potentials.value(spec, y[0]))) / h))
        if u[0, spec.dimension] <= acc:
            return y[0]
    raise RejectionStall("single-chain step exceeded the rejection budget")


class StepCounts(NamedTuple):
    """What one call of ``_advance_all`` consumed."""

    accepted: int        # chains moved: one accepted proposal each
    proposed: int        # proposals consumed, up to each first acceptance
    rounds: int          # rejection rounds of the slowest chain
    chain_rounds: int    # rejection rounds summed over chains
    violations: int      # consumed proposals with phi(y) < L(x)


def _advance_all(spec: PotentialSpec, h: float, pos: np.ndarray, seed: int,
                 step_index: int, active: np.ndarray | None = None
                 ) -> StepCounts:
    """Advance chains by one move of the walk, in place.

    Each rejection round proposes all ``_SLOTS`` slots of every pending
    chain in one potential evaluation; a chain moves to its first
    accepted slot, and the slots after it are not consumed.  ``active``
    restricts the update to a subset of chain indices; lane addressing is
    by absolute chain id, so a chain's trajectory does not depend on which
    other chains are being advanced.
    """
    d = spec.dimension
    pending = np.arange(pos.shape[0]) if active is None else active
    if pending.size == 0:
        return StepCounts(0, 0, 0, 0, 0)
    moved = pending.size
    x = pos[pending]
    lower = ball_lower_bound(spec, h, x)
    slots = np.arange(_SLOTS)
    proposed = chain_rounds = violations = 0
    rnd = 0
    while pending.size:
        if rnd >= MAX_REJECTION_ROUNDS:
            raise RejectionStall(
                f"{pending.size} chains stuck after {rnd} rounds "
                f"at step {step_index}")
        u = _uniforms(seed, step_index, rnd, pending, _SLOTS * (d + 1))
        u = u.reshape(pending.size, _SLOTS, d + 1)
        y = _propose(x[:, None, :], h, u[..., :d])
        phi_y = potentials.value(spec, y.reshape(-1, d)).reshape(u.shape[:2])
        excess = lower[:, None] - phi_y       # > 0 where the bound fails
        acc = u[..., d] <= np.exp(np.minimum(0.0, excess / h))
        hit = acc.any(axis=1)
        first = acc.argmax(axis=1)
        consumed = np.where(hit, first + 1, _SLOTS)
        proposed += int(consumed.sum())
        violations += int(np.count_nonzero(
            (excess > 0.0) & (slots[None, :] < consumed[:, None])))
        chain_rounds += pending.size
        rows = np.nonzero(hit)[0]
        pos[pending[rows]] = y[rows, first[rows]]
        miss = ~hit
        pending, x, lower = pending[miss], x[miss], lower[miss]
        rnd += 1
    return StepCounts(moved, proposed, rnd, chain_rounds, violations)


# --- batched simulation ---------------------------------------------------------


def _initial_positions(cfg: WalkConfig, wmap: WellMap,
                       stationary_weights: np.ndarray | None) -> np.ndarray:
    d = cfg.spec.dimension
    u = _uniforms(cfg.seed, _INIT_STEP, 0, np.arange(cfg.n_chains), d + 1)
    start = cfg.start
    if isinstance(start, tuple) and start[0] == "point":
        x0 = np.asarray(start[1], float).reshape(1, d)
        return np.repeat(x0, cfg.n_chains, axis=0)
    if stationary_weights is None:
        raise ValueError("stationary/well starts need the stationary histogram")
    w = np.asarray(stationary_weights, float).ravel()
    if isinstance(start, tuple) and start[0] == "well":
        k = int(start[1])
        mask = (wmap.component_ids.ravel() == k)
        w = np.where(mask, w, 0.0)
    elif start != "stationary":
        raise ValueError(f"unknown start specification {start!r}")
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, u[:, 0], side="left")
    grid = wmap.grid
    return grid.coordinate(np.stack(np.unravel_index(cells, grid.dims), axis=1),
                           offset=u[:, 1:d + 1])


def simulate(cfg: WalkConfig, wmap: WellMap,
             stationary_weights: np.ndarray | None = None,
             freeze_exited: bool = False) -> WalkTrace:
    """Run independent chains and record per-well occupation counts.

    Chains advance in lockstep, but every uniform a chain consumes is
    addressed by (seed, step, round, slot, chain), so traces are identical
    no matter how the chains are scheduled or batched.  With
    ``freeze_exited`` chains stop once they leave the start well (exit
    statistics only; occupation rows then count survivors in place).
    """
    pos = _initial_positions(cfg, wmap, stationary_weights)
    n0 = wmap.n_wells
    membership = wmap.wells_of(pos)
    start_well = (int(cfg.start[1]) if isinstance(cfg.start, tuple)
                  and cfg.start[0] == "well" else None)
    if freeze_exited and start_well is None:
        raise ValueError("freeze_exited needs a well start")
    first_exit = np.zeros(cfg.n_chains, dtype=np.int64)

    records = [0]
    occ = [np.bincount(membership, minlength=n0 + 1)[1:]]
    accepted = proposed = rounds_max = chain_rounds = violations = 0

    for n in range(1, cfg.n_steps + 1):
        active = None
        if freeze_exited:
            active = np.nonzero(first_exit == 0)[0]
            if active.size == 0:
                break
        c = _advance_all(cfg.spec, cfg.h, pos, cfg.seed, n, active=active)
        accepted += c.accepted
        proposed += c.proposed
        rounds_max = max(rounds_max, c.rounds)
        chain_rounds += c.chain_rounds
        violations += c.violations
        membership = wmap.wells_of(pos)
        if start_well is not None:
            left = (membership != start_well) & (first_exit == 0)
            first_exit[left] = n
        if n % cfg.record_every == 0 or n == cfg.n_steps:
            records.append(n)
            occ.append(np.bincount(membership, minlength=n0 + 1)[1:])

    return WalkTrace(
        recorded_steps=np.asarray(records, dtype=np.int64),
        occupation=np.asarray(occ, dtype=np.int64),
        first_exit_steps=first_exit,
        acceptance_rate=accepted / max(proposed, 1),
        start_well=start_well,
        n_chains=cfg.n_chains,
        rejection_rounds_max=rounds_max,
        rejection_rounds_mean=chain_rounds / max(accepted, 1),
        bound_violations=violations,
    )


# --- relaxation-rate estimate ---------------------------------------------------


@dataclass(frozen=True)
class GapEstimate:
    rate: float
    ci_low: float
    ci_high: float
    window: tuple[int, int]          # record indices used


def empirical_gap(trace: WalkTrace, stationary_fraction: float,
                  well: int | None = None, n_boot: int = 200,
                  seed: int = 1234) -> GapEstimate:
    """Exponential relaxation rate of the well-occupation deviation.

    Fits ln |occupation fraction - stationary fraction| linearly in the
    step index over the stretch where the deviation is resolvable above
    Monte Carlo noise, with a bootstrap-over-chains confidence interval.
    """
    k = well if well is not None else trace.start_well
    if k is None:
        raise ValueError("no start well recorded; pass well= explicitly")
    frac = trace.occupation[:, k - 1] / trace.n_chains
    dev = frac - stationary_fraction
    if abs(dev[-1]) > 0.5 * abs(dev[0]):
        raise NotRelaxed(
            f"final deviation {dev[-1]:.3g} exceeds half the initial "
            f"{dev[0]:.3g}; lengthen the run")
    sigma = math.sqrt(stationary_fraction * (1 - stationary_fraction)
                      / trace.n_chains)
    usable = np.abs(dev) > max(4.0 * sigma, 1e-12)
    sign0 = math.copysign(1.0, dev[0])
    usable &= (np.sign(dev) == sign0)
    idx = np.nonzero(usable)[0]
    if idx.size < 3:
        raise NotRelaxed("fewer than three usable occupation records")
    lo, hi = int(idx[0]), int(idx[-1])
    steps = trace.recorded_steps[lo:hi + 1].astype(float)
    y = np.log(np.abs(dev[lo:hi + 1]))
    a = np.vstack([steps, np.ones(steps.size)]).T
    slope = float(np.linalg.lstsq(a, y, rcond=None)[0][0])

    gen = np.random.Generator(np.random.Philox(key=seed))
    # bootstrap over the binomial fluctuation of each record
    boots = []
    n = trace.n_chains
    for _ in range(n_boot):
        resampled = gen.binomial(n, np.clip(frac[lo:hi + 1], 0, 1)) / n
        dv = np.abs(resampled - stationary_fraction)
        good = dv > 0
        if good.sum() < 3:
            continue
        bs = float(np.linalg.lstsq(a[good], np.log(dv[good]), rcond=None)[0][0])
        boots.append(bs)
    if boots:
        lo_q, hi_q = np.quantile(boots, [0.025, 0.975])
    else:
        lo_q = hi_q = slope
    return GapEstimate(rate=-slope, ci_low=-float(hi_q), ci_high=-float(lo_q),
                       window=(lo, hi))


def mean_exit_time(trace: WalkTrace) -> tuple[float, float]:
    """Mean and standard error of the recorded first-exit steps (exited chains)."""
    exits = trace.first_exit_steps[trace.first_exit_steps > 0]
    if exits.size == 0:
        raise NotRelaxed("no chain left its starting well")
    return float(exits.mean()), float(exits.std(ddof=1) / math.sqrt(exits.size))
