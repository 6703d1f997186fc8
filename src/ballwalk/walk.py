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

L depends on the chain's cell of the landscape grid, not on its point: a
cell's L is the heuristic over the ball of radius h + sqrt(d) dx / 2 about
its centre, which holds B(x, h) for every x of the cell.  It is evaluated
the first time a chain lands in the cell and kept for the rest of the run,
on the grid padded by ceil(h / dx) + 1 cells per side; a chain outside the
padded grid gets the heuristic over its own ball.  A cell's L is the same
whichever chain filled it, so trajectories keep their independence of
batching and of the split into blocks.

Randomness is counter-based: round r of step n reads lane i of a stream
keyed by (seed, n, r), so chain i's trajectory is a pure function of
(seed, i) regardless of execution order, chain count, or thread count.
``simulate`` uses that to split the chains into contiguous blocks, one per
usable core, and runs every block but the first in a forked process; the
trace is the same for any number of blocks.  A chain's well is read off
the caller's ``LandscapeLabeling``: ``component_ids`` at its cell, 1..n0.

A round offers each chain 8 proposal slots, and a chain moves to its first
accepted (round, slot).  The batched sampler evaluates proposals in that
order and stops where a chain stops: the first two slots of round 0 for
every chain, the other six only for the chains that accepted neither,
then whole rounds for the stragglers, several rounds per pass once few
are left.  Since every uniform is addressed, how the slots are grouped
into passes changes neither the trajectories nor the counts.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import potentials
from .gridop import Grid
from .landscape import LandscapeLabeling
from .potentials import PotentialSpec

MAX_REJECTION_ROUNDS = 1_000_000
# fewest chains worth a process of their own: timing simulate_1d's walk in
# one process, two processes gained nothing at 500 chains, and below about
# 2000 chains their gain was within the spread of their own runs
_MIN_CHAINS_PER_WORKER = 1000


class RejectionStall(RuntimeError):
    """A chain exceeded the rejection budget (mis-specified local bound).

    ``step`` is the step the budget ran out in.
    """

    def __init__(self, message: str, step: int = 0):
        super().__init__(message)
        self.step = step


class NotRelaxed(RuntimeError):
    """Trace too short: occupation deviation never decayed by half."""


@dataclass(frozen=True)
class WalkConfig:
    """One simulation run.  A bad field raises a ValueError naming it first.

    With ``freeze_exited`` chains stop once they leave the start well (exit
    statistics only; occupation rows then count survivors in place), so it
    needs a well start.  ``estimate_gap`` asks the caller for a relaxation
    rate fit of the trace out of its start well, so it needs a well start
    too, and unfrozen chains.
    """

    spec: PotentialSpec
    h: float
    n_steps: int
    n_chains: int
    seed: int = 1
    start: object = "stationary"   # ("point", x0) | ("well", k) | "stationary"
    record_every: int = 1
    freeze_exited: bool = False
    estimate_gap: bool = False

    def __post_init__(self):
        for name in ("n_steps", "n_chains", "record_every"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_steps >= _INIT_STEP:
            raise ValueError(
                f"n_steps must be below {_INIT_STEP}, the step whose stream "
                f"draws the start positions, got {self.n_steps}")
        if self.freeze_exited and self.start_well is None:
            raise ValueError(
                f"start must be a well when freeze_exited is set, "
                f"got {self.start!r}")
        if self.freeze_exited and self.estimate_gap:
            raise ValueError(
                "freeze_exited must be false when estimate_gap is set: "
                "frozen chains never return, so the occupation cannot relax")
        if self.estimate_gap and self.start_well is None:
            raise ValueError(
                f"estimate_gap must be false unless start is a well: the gap "
                f"is fit to the relaxation out of it, got {self.start!r}")
        d = self.spec.dimension
        if self.start_point is not None and len(self.start_point) != d:
            raise ValueError(f"start.point must be a list of {d} "
                             f"coordinates, got {self.start_point!r}")

    @property
    def start_well(self) -> int | None:
        """The well k of a ("well", k) start, else None."""
        if isinstance(self.start, tuple) and self.start[0] == "well":
            return int(self.start[1])
        return None

    @property
    def start_point(self):
        """The point x0 of a ("point", x0) start, else None."""
        if isinstance(self.start, tuple) and self.start[0] == "point":
            return self.start[1]
        return None


@dataclass(frozen=True)
class WalkTrace:
    recorded_steps: np.ndarray       # step indices of occupation rows
    occupation: np.ndarray           # (n_records, n0) chain counts per well
    first_exit_steps: np.ndarray     # per chain; 0 where the chain never left
    acceptance_rate: float
    start_well: int | None
    n_chains: int
    # chain-steps advanced, one move each: n_chains x n_steps unless
    # freeze_exited stopped chains early
    chain_steps: int
    # sampler health: rejection rounds per chain-step, and consumed
    # proposals that fell below the local lower bound
    rejection_rounds_max: int = 0
    rejection_rounds_mean: float = 0.0
    bound_violations: int = 0
    # cells of the padded landscape grid whose L was evaluated, and the
    # chain-steps outside it, bounded on their own ball
    bound_cells: int = 0
    bound_fallbacks: int = 0


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
_MASK = (1 << 64) - 1
_SLOTS = 8          # proposals drawn per chain per rejection round
# the passes of _advance_all, sized by timing the sampler on 1D and 2D
# traffic (simulate, frozen-exit runs, a steep tilt): round 0 evaluates its
# first _FIRST_SLOTS slots for every chain and the rest only for the chains
# that accepted none of them; a pass costs some tens of numpy calls whatever
# its size, so once _BATCH_LANES proposals cover a round of every pending
# chain, up to _BATCH_ROUNDS rounds go into one pass
_FIRST_SLOTS = 2
_BATCH_LANES = 4096
_BATCH_ROUNDS = 32


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))          # a new array; the rest in place
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _mix_key(z: int) -> int:
    """``_mix64`` of one 64-bit word held in a Python integer."""
    z = (z ^ z >> 30) * int(_MIX1) & _MASK
    z = (z ^ z >> 27) * int(_MIX2) & _MASK
    return z ^ z >> 31


def _stream(seed: int, step: int) -> int:
    """Key of the stream of one step; lanes branch off it by round and chain.

    Python integers masked to 64 bits: the words ``_mix64`` gives, without
    a numpy call.
    """
    golden = int(_GOLDEN)
    key = _mix_key(((seed & _MASK) * golden + 1) & _MASK)
    return _mix_key(key ^ step * golden & _MASK)


def _uniforms(stream: int, rounds, chains: np.ndarray,
              first_col: int, stop_col: int) -> np.ndarray:
    """Array (len(rounds), stop_col - first_col, len(chains)) of uniforms.

    Entry [j, c, i] is column first_col + c of the lane (round rounds[j],
    chain chains[i]) of ``stream``; a proposal slot s of a d-dimensional
    walk owns columns s (d + 1) to s (d + 1) + d.  Chains run along the
    last axis, so a slot's reductions over chains are contiguous.
    """
    bases = _mix64(stream ^ np.asarray(rounds, np.uint64) * _MIX2)
    lanes = _mix64(bases[:, None] ^ chains.astype(np.uint64) * _GOLDEN)
    col_words = np.arange(first_col + 1, stop_col + 1, dtype=np.uint64) * _MIX1
    words = _mix64(lanes[:, None, :] ^ col_words[:, None])
    words >>= np.uint64(11)
    return words * (1.0 / (1 << 53))


# --- local lower bound ----------------------------------------------------------


@functools.lru_cache
def _ball_probe_offsets(dim: int, h: float) -> tuple[np.ndarray, float]:
    """Probe points inside B(0, h) and the covering radius of the pattern.

    Built once per (dim, h) and shared, so the array is read-only.
    """
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
    offs.flags.writeable = False
    return offs, cover


def ball_lower_bound(spec: PotentialSpec, h: float, x: np.ndarray) -> np.ndarray:
    """Lower bound of phi on B(x, h), valid for each row of x.

    min over probe points minus (covering radius) * (largest probed
    gradient) * 1.5; the safety factor covers gradient variation between
    probes for the smooth potentials handled here.  This is a heuristic,
    not a certificate: nothing proves phi stays above it between probes.

    Values and gradients come from one pass over the probes.  Probes are
    laid out probe-major, so both reductions run over contiguous rows; the
    square root is taken once, after the maximum of the squared gradient
    norms, which is exact since sqrt is monotone.
    """
    x = np.atleast_2d(x)
    offs, cover = _ball_probe_offsets(spec.dimension, h)
    pts = (offs[:, None, :] + x[None, :, :]).reshape(-1, spec.dimension)
    vals, grads = potentials.value_and_gradient(spec, pts)
    vals = vals.reshape(offs.shape[0], -1)
    # the squared norm column by column, as numpy's sum over a row of one or
    # two entries would add them, without its per-row cost
    sq = grads * grads
    gn2 = sq[:, 0] if spec.dimension == 1 else sq[:, 0] + sq[:, 1]
    gn2 = gn2.reshape(offs.shape[0], -1)
    return vals.min(axis=0) - 1.5 * cover * np.sqrt(gn2.max(axis=0))


class _BoundMemo:
    """L per cell of the landscape grid padded by ceil(h/dx) + 1 cells a side.

    Entries start as NaN and are filled on a chain's first visit to the
    cell: ``ball_lower_bound`` over the ball of radius h + sqrt(d) dx / 2
    about the cell's centre, ``grid.coordinate`` of its (possibly negative)
    index.
    """

    def __init__(self, spec: PotentialSpec, h: float, grid: Grid):
        self.spec, self.h, self.grid = spec, h, grid
        self.pad = math.ceil(h / grid.spacing) + 1
        self.dims = tuple(n + 2 * self.pad for n in grid.dims)
        self.radius = h + 0.5 * math.sqrt(grid.dimension) * grid.spacing
        self.table = np.full(math.prod(self.dims), np.nan)
        self.fallbacks = 0              # chain-steps outside the padded grid

    def lower(self, pos: np.ndarray, rows: np.ndarray,
              cells: np.ndarray) -> np.ndarray:
        """L of the chains at ``rows`` of ``pos``, whose ``floor`` is ``cells``."""
        padded = cells + self.pad
        inside = np.all((padded >= 0) & (padded < self.dims), axis=1)
        if not inside.all():
            padded = padded[inside]
        # flattened by hand: np.ravel_multi_index costs more per call here
        flat = padded[:, 0]
        for axis in range(1, len(self.dims)):
            flat = flat * self.dims[axis] + padded[:, axis]
        bound = self.table[flat]
        new = np.isnan(bound)
        if new.any():
            fill = np.unique(flat[new])
            index = np.stack(np.unravel_index(fill, self.dims), axis=1)
            self.table[fill] = ball_lower_bound(
                self.spec, self.radius, self.grid.coordinate(index - self.pad))
            bound = self.table[flat]
        if inside.all():
            return bound
        lower = np.empty(rows.size)
        lower[inside] = bound
        lower[~inside] = ball_lower_bound(self.spec, self.h, pos[rows[~inside]])
        self.fallbacks += rows.size - bound.size
        return lower

    def filled(self) -> np.ndarray:
        """Flat indices of the cells whose L has been evaluated."""
        return np.flatnonzero(~np.isnan(self.table))


def _propose(x: np.ndarray, h: float, u: np.ndarray) -> np.ndarray:
    """Uniform points of B(x, h) for the chains at the rows of x (n, d).

    ``u[..., j, :]`` holds the unit uniforms of coordinate j, one per
    chain along the last axis; the result has shape (..., n, d).
    """
    if x.shape[1] == 1:
        return (x[:, 0] + h * (2.0 * u[..., 0, :] - 1.0))[..., None]
    theta = 2.0 * math.pi * u[..., 0, :]
    rho = h * np.sqrt(u[..., 1, :])
    return np.stack([x[:, 0] + rho * np.cos(theta),
                     x[:, 1] + rho * np.sin(theta)], axis=-1)


class StepCounts(NamedTuple):
    """What one call of ``_advance_all`` consumed."""

    accepted: int        # chains moved: one accepted proposal each
    proposed: int        # proposals consumed, up to each first acceptance
    rounds: int          # rejection rounds of the slowest chain
    chain_rounds: int    # rejection rounds summed over chains
    violations: int      # consumed proposals with phi(y) < L(x)

    def merged(self, other: StepCounts) -> StepCounts:
        """The counts of both calls together."""
        return StepCounts(self.accepted + other.accepted,
                          self.proposed + other.proposed,
                          max(self.rounds, other.rounds),
                          self.chain_rounds + other.chain_rounds,
                          self.violations + other.violations)


def _advance_all(spec: PotentialSpec, h: float, pos: np.ndarray, seed: int,
                 step_index: int, lower: np.ndarray,
                 active: np.ndarray | None = None,
                 first_chain: int = 0) -> StepCounts:
    """Advance chains by one move of the walk, in place.

    A chain's proposals are taken in (round, slot) order, each round
    holding ``_SLOTS`` slots, and the chain moves to the first accepted
    one; the proposals after it are not consumed.  The evaluation follows
    that order in passes: slots 0 to ``_FIRST_SLOTS - 1`` of round 0 for
    every chain, then the other slots of round 0 for the chains that
    accepted none, then whole rounds, as many per pass as
    ``_BATCH_LANES`` proposals hold (at most ``_BATCH_ROUNDS``, and never
    past ``MAX_REJECTION_ROUNDS``); chains that few from the start skip
    the split of round 0.  Every uniform is addressed by (seed, step,
    round, slot, chain), so the passes change neither the trajectories
    nor the counts.  ``active`` restricts the update to a subset of chain
    indices; lane addressing is by absolute chain id, so a chain's
    trajectory does not depend on which other chains are being advanced.
    Row i of ``pos`` is chain ``first_chain + i``.  ``lower`` holds L, a
    lower bound of phi on each advanced chain's ball, in ``active``'s order.
    """
    d = spec.dimension
    chains = np.arange(pos.shape[0]) if active is None else active
    if chains.size == 0:
        return StepCounts(0, 0, 0, 0, 0)
    pending, x = chains, pos[chains]
    stream = _stream(seed, step_index)
    # the accepted slot of each chain, counted over rounds: rnd * _SLOTS + slot
    taken = np.empty(pos.shape[0], dtype=np.int64)
    violations = g0 = 0              # g0: the first slot of the next pass
    while pending.size:
        rnd, s0 = divmod(g0, _SLOTS)
        if rnd >= MAX_REJECTION_ROUNDS:
            raise RejectionStall(
                f"{pending.size} chains stuck after {rnd} rounds "
                f"at step {step_index}", step=step_index)
        fit = _BATCH_LANES // (_SLOTS * pending.size)
        if s0:                          # the rest of round 0
            n_rounds, s1 = 1, _SLOTS
        elif g0 == 0 and not fit:       # the head of round 0
            n_rounds, s1 = 1, _FIRST_SLOTS
        else:
            n_rounds = min(_BATCH_ROUNDS, MAX_REJECTION_ROUNDS - rnd, max(fit, 1))
            s1 = _SLOTS
        u = _uniforms(stream, np.arange(rnd, rnd + n_rounds),
                      pending + first_chain, s0 * (d + 1), s1 * (d + 1))
        # (slot in (round, slot) order, coordinate, chain)
        u = u.reshape(-1, d + 1, pending.size)
        width = u.shape[0]
        slots = np.arange(width)[:, None]
        y = _propose(x, h, u)
        phi_y = potentials.value(spec, y.reshape(-1, d)).reshape(width, -1)
        excess = lower - phi_y                # > 0 where the bound fails
        acc = u[:, d, :] <= np.exp(np.minimum(0.0, excess / h))
        first = np.where(acc, slots, width).min(axis=0)   # width: none
        if excess.max() > 0.0:
            violations += int(np.count_nonzero((excess > 0.0) & (slots <= first)))
        hit = first < width
        rows = np.nonzero(hit)[0]
        f, settled = first[rows], pending[rows]
        pos[settled] = y[f, rows]
        taken[settled] = g0 + f
        miss = ~hit
        pending, x, lower = pending[miss], x[miss], lower[miss]
        g0 += width
    # a chain that accepts slot g made g + 1 proposals in g // _SLOTS + 1 rounds
    g = taken[chains]
    return StepCounts(chains.size, int(g.sum()) + chains.size,
                      int(g.max()) // _SLOTS + 1,
                      int((g // _SLOTS).sum()) + chains.size, violations)


# --- batched simulation ---------------------------------------------------------


def _initial_positions(cfg: WalkConfig, labeling: LandscapeLabeling,
                       stationary_weights: np.ndarray) -> np.ndarray:
    d = cfg.spec.dimension
    u = _uniforms(_stream(cfg.seed, _INIT_STEP), [0], np.arange(cfg.n_chains),
                  0, d + 1)[0]
    if cfg.start_point is not None:
        x0 = np.asarray(cfg.start_point, float).reshape(1, d)
        return np.repeat(x0, cfg.n_chains, axis=0)
    w = np.asarray(stationary_weights, float).ravel()
    if cfg.start_well is not None:
        w = np.where(labeling.component_ids.ravel() == cfg.start_well, w, 0.0)
    elif cfg.start != "stationary":
        raise ValueError(f"unknown start specification {cfg.start!r}")
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, u[0], side="left")
    grid = labeling.grid
    return grid.coordinate(np.stack(np.unravel_index(cells, grid.dims), axis=1),
                           offset=u[1:d + 1].T)


def worker_count(n_chains: int) -> int:
    """Processes ``simulate`` splits ``n_chains`` chains over.

    One per core this process may run on, but none with fewer than
    ``_MIN_CHAINS_PER_WORKER`` chains; one where the platform has no
    ``fork`` or no affinity mask.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      n_chains // _MIN_CHAINS_PER_WORKER))


def _record_steps(cfg: WalkConfig) -> np.ndarray:
    """Steps of the occupation rows: 0, every record_every-th, and the last."""
    steps = list(range(0, cfg.n_steps + 1, cfg.record_every))
    if steps[-1] != cfg.n_steps:
        steps.append(cfg.n_steps)
    return np.asarray(steps, dtype=np.int64)


def _well_counts(membership: np.ndarray, n0: int) -> np.ndarray:
    return np.bincount(membership, minlength=n0 + 1)[1:]


class _Block(NamedTuple):
    """What one contiguous block of chains gave over the whole run."""

    occupation: np.ndarray       # (n_records, n0) chain counts per well
    first_exit: np.ndarray       # per chain of the block
    counts: StepCounts           # summed over the steps
    bound_cells: np.ndarray      # flat indices of the memo's filled cells
    bound_fallbacks: int         # chain-steps bounded outside the memo


def _run_block(cfg: WalkConfig, labeling: LandscapeLabeling,
               pos: np.ndarray, first_chain: int, steps: np.ndarray) -> _Block:
    """Advance the chains at the rows of ``pos`` through every step, in place.

    Row i of ``pos`` is chain ``first_chain + i``.  Occupation rows are
    recorded at ``steps`` whatever the chains do: once ``freeze_exited``
    has stopped every chain, the rest repeat the frozen occupation.  Only
    the ``live`` chains, all of them unless ``freeze_exited`` stops some,
    are floored, looked up and bounded at a step; one floor of their
    coordinates gives both their wells and their memo cells.
    """
    n0, grid = labeling.n0, labeling.grid
    wells = labeling.component_ids.ravel()
    start_well = cfg.start_well
    memo = _BoundMemo(cfg.spec, cfg.h, grid)
    first_exit = np.zeros(pos.shape[0], dtype=np.int64)
    live = np.arange(pos.shape[0])
    cells = grid.floor(pos)
    membership = wells[grid.nearest_cells(cells)]
    occ = np.empty((steps.size, n0), dtype=np.int64)
    occ[0] = _well_counts(membership, n0)
    counts = StepCounts(0, 0, 0, 0, 0)
    row = 1
    for n in range(1, cfg.n_steps + 1):
        if live.size == 0:
            occ[row:] = _well_counts(membership, n0)
            break
        counts = counts.merged(_advance_all(
            cfg.spec, cfg.h, pos, cfg.seed, n, memo.lower(pos, live, cells),
            active=live, first_chain=first_chain))
        cells = grid.floor(pos[live])
        now = membership[live] = wells[grid.nearest_cells(cells)]
        if start_well is not None:
            out = now != start_well
            first_exit[live[out & (first_exit[live] == 0)]] = n
            if cfg.freeze_exited:
                live, cells = live[~out], cells[~out]
        if n == steps[row]:
            occ[row] = _well_counts(membership, n0)
            row += 1
    return _Block(occ, first_exit, counts, memo.filled(), memo.fallbacks)


def _forked_block(run, lo: int, hi: int, read_fd: int, write_fd: int):
    """Body of a forked child: pickle the outcome of run(lo, hi), then exit.

    It never returns, so a failing child cannot run on into its caller's
    code, and ``os._exit`` skips the buffers and exit handlers it shares
    with the parent.
    """
    code = 1
    try:
        os.close(read_fd)
        try:
            outcome = (None, run(lo, hi))
        except Exception as exc:      # the parent raises it
            outcome = (exc, None)
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _in_blocks(run, bounds: list[int]) -> list:
    """``run(lo, hi)`` for the blocks between consecutive ``bounds``, in order.

    The first block runs in this process and every other one in a forked
    child, which sends its outcome back over a pipe.  Every child is reaped
    on every path.  If blocks fail, the failure of the earliest step is
    raised once all have ended, ties going to the lowest block: the one a
    single process would have met first.  A child's failure other than a
    RejectionStall counts as step 0.
    """
    children = {}                     # pid -> read end of its pipe
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _forked_block(run, lo, hi, read_fd, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        try:
            outcomes = [(None, run(bounds[0], bounds[1]))]
        except RejectionStall as exc:
            outcomes = [(exc, None)]
        for pid in list(children):
            with children[pid] as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status or not data:
                raise RuntimeError(
                    f"sampler process {pid} sent no result (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(getattr(exc, "step", 0), block, exc)
              for block, (exc, _) in enumerate(outcomes) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[:2])[2]
    return [result for _, result in outcomes]


def simulate(cfg: WalkConfig, labeling: LandscapeLabeling,
             stationary_weights: np.ndarray) -> WalkTrace:
    """Run independent chains and record per-well occupation counts.

    Rows are recorded at step 0, at every ``record_every``-th step and at
    ``n_steps``.  The chains are split into ``worker_count`` contiguous
    blocks, each advanced in lockstep and all but the first in forked
    processes.  Every uniform a chain consumes is addressed by (seed,
    step, round, slot, chain) and the blocks' counts add up, so the trace
    is the same however the chains are split, scheduled or batched.
    """
    pos = _initial_positions(cfg, labeling, stationary_weights)
    steps = _record_steps(cfg)
    workers = worker_count(cfg.n_chains)
    blocks = _in_blocks(
        lambda lo, hi: _run_block(cfg, labeling, pos[lo:hi], lo, steps),
        [cfg.n_chains * b // workers for b in range(workers + 1)])
    counts = functools.reduce(StepCounts.merged, (b.counts for b in blocks))
    return WalkTrace(
        recorded_steps=steps,
        occupation=sum(b.occupation for b in blocks),
        first_exit_steps=np.concatenate([b.first_exit for b in blocks]),
        acceptance_rate=counts.accepted / max(counts.proposed, 1),
        start_well=cfg.start_well,
        n_chains=cfg.n_chains,
        chain_steps=counts.accepted,
        rejection_rounds_max=counts.rounds,
        rejection_rounds_mean=counts.chain_rounds / max(counts.accepted, 1),
        bound_violations=counts.violations,
        # a cell two blocks filled counts once, as in a single process
        bound_cells=np.unique(np.concatenate(
            [b.bound_cells for b in blocks])).size,
        bound_fallbacks=sum(b.bound_fallbacks for b in blocks),
    )


# --- relaxation-rate estimate ---------------------------------------------------


# resamples of the bootstrap confidence interval, and their Philox key
GAP_BOOTSTRAP_SAMPLES = 200
GAP_BOOTSTRAP_SEED = 1234


@dataclass(frozen=True)
class GapEstimate:
    rate: float
    ci_low: float
    ci_high: float


def empirical_gap(trace: WalkTrace, stationary_fraction: float) -> GapEstimate:
    """Exponential relaxation rate of the start well's occupation deviation.

    Fits ln |occupation fraction - stationary fraction| linearly in the
    step index over the stretch where the deviation is resolvable above
    Monte Carlo noise, with a bootstrap-over-chains confidence interval.
    """
    k = trace.start_well
    if k is None:
        raise ValueError("no start well recorded")
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

    gen = np.random.Generator(np.random.Philox(key=GAP_BOOTSTRAP_SEED))
    # bootstrap over the binomial fluctuation of each record
    boots = []
    n = trace.n_chains
    for _ in range(GAP_BOOTSTRAP_SAMPLES):
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
    return GapEstimate(rate=-slope, ci_low=-float(hi_q), ci_high=-float(lo_q))


def mean_exit_time(trace: WalkTrace) -> tuple[float | None, float | None]:
    """Mean and standard error of the recorded first-exit steps (exited chains).

    The mean is None without an exit, the standard error below two exits.
    """
    exits = trace.first_exit_steps[trace.first_exit_steps > 0]
    mean = float(exits.mean()) if exits.size else None
    stderr = (float(exits.std(ddof=1) / math.sqrt(exits.size))
              if exits.size >= 2 else None)
    return mean, stderr
