"""Monte-Carlo simulation of the per-period disclosure game.

Each path carries a hidden two-state Markov chain and the public belief.
The belief is held as an integer code into a table built once per run (see
_BeliefTable): under a belief-stationary policy it is always a split target
or the initial belief followed by some periods of deterministic drift.
A period runs in the game's event order: the state may flip, the belief
drifts by one no-information step, the policy acts at the drifted belief
(a split draws the message conditionally on the true state), and the
period payoff (1 - x) x^n u(belief) accrues at the post-message belief.
Flips and drift follow one law, the chain's exact period embedding
p -> a + b p (dynamics.period_law): P(0->1) = a and P(1->0) = 1 - a - b, so
a path's belief is the exact posterior of its simulated state.
Period weights (1 - x) x^n, n = 0, 1, ..., sum to one over an infinite
horizon; a run credits the periods past its horizon at the lowest level, so
simulated means are directly comparable to the solver's value.

A path moves from event to event, not period by period.  Paths are
simulated in chunks of at most _CHUNK paths, split evenly (sizes differ by
at most one).  Each chunk spawns two children of its own child of the
master seed sequence and runs a PCG64 generator on each.  The state
generator draws every path's initial state and then its holding times: the
periods to its next flip are geometric with the flip probability of its
current state, drawn by inversion.  The horizon is cut into blocks of
_BLOCK periods; at the start of each block, rounds of holding times are
drawn, in path order, for every path whose next flip still falls in the
block, so the state paths do not depend on the policy.  Then, round by
round, every path short of the block end moves by one event:

1. a flip due in its period is applied;
2. where the policy slides, a drift run: the periods along which the
   drifted belief slides at one payoff level, all at once;
3. at a hold, a split target to which the split of its drifted belief
   returns the path, one uniform u from the message generator gives
   floor(log(1 - u) / log(1 - P(leave))) returning periods, after which a
   period sends the leaving message;
4. at any other split, one period, with the high message when u < beta of
   the state.

No event runs past the path's next flip or the block end, which cuts a
hold's geometric time there (the next event draws afresh).  The paths that
split in a round draw one uniform each, in path order.

A path's payoff is credited run by run: over each maximal run of periods
m, ..., n - 1 whose post-message beliefs share one payoff level h, it earns
h (W[n] - W[m]), added in time order, where W[k] is the sum of the first k
period weights.  Occupancy is tallied per (code, state) in integers, a
held stretch as one weighted count and a drift run through a difference
array, so calibration counts are exact.  Each chunk returns its path
count, mean payoff and summed squared deviations; these are combined in
chunk order by the pairwise update of Chan, Golub and LeVeque, so results
are bit-identical for a given seed no matter how many worker threads run
(one per available core by default; set PERSUADE_THREADS to override).
The bit generator, the chunk layout, the block and the event order are
part of the random stream: changing any of them changes the result for a
given seed.  State paths come from their own generator, so runs with the
same seed see identical state paths under different policies.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange, SimulationError
from .model import Problem, _integer, _is_number
from .dynamics import _check_period, make_split_signal, period_law
from .solver import MarkovPolicy, Solution

__all__ = [
    "SimConfig",
    "SimResult",
    "CalibrationBin",
    "default_period",
    "simulate",
    "compare_policies",
    "sized_horizon",
]

_CHUNK = 10000
# Periods whose state flips are drawn together; no event runs past a block's
# end (part of the random stream).
_BLOCK = 1000
# 21 equal bins: with a bin count that shares no small factor with the
# decimal grids cuts are usually written in (multiples of 0.05 or 0.1),
# posterior atoms at cut values land in bin interiors instead of on edges,
# where a center-based calibration tolerance carries no information.
_N_BINS = 21
DEFAULT_MAX_TAIL = 0.05
#: Longest horizon a simulation may run, in periods.
MAX_HORIZON = 10**7
#: Most paths one simulation may run.
MAX_PATHS = 10**7
# compare_policies' allowance for the period discretization.
_ALLOWANCE = 0.01
# Every double in [0, 1] is an integer multiple of 1 / _SCALE.
_SCALE = 2**1074


def default_period(problem: Problem) -> float:
    """Period short relative to every rate in the instance."""
    return 0.01 / (problem.rates.switch_rate + problem.discounting.r)


def _periods_needed(problem: Problem, delta: float, max_tail: float) -> float:
    """Unrounded horizon at which x^horizon * spread reaches max_tail (inf if r delta underflows)."""
    levels = problem.payoff.levels
    rate = problem.discounting.r * delta
    return math.log((max(levels) - min(levels)) / max_tail) / rate if rate > 0.0 else math.inf


def sized_horizon(problem: Problem, delta: float) -> int:
    """Fewest periods whose truncation bound x^horizon * spread is at most DEFAULT_MAX_TAIL / 2.

    A flat payoff has no truncation error at any horizon; it gets 100 periods.
    Raises OutOfRange when more than MAX_HORIZON periods would be needed.
    """
    _check_period(delta)
    levels = problem.payoff.levels
    if max(levels) - min(levels) <= 0.0:
        return 100
    periods = _periods_needed(problem, delta, DEFAULT_MAX_TAIL / 2)
    if not periods <= MAX_HORIZON:
        raise OutOfRange(f"period length {delta!r} needs a horizon of more than {MAX_HORIZON} periods")
    return math.ceil(max(periods, 1.0))


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Simulation run parameters."""

    delta: float
    horizon: int
    n_paths: int
    seed: int
    initial_belief: float

    def __post_init__(self) -> None:
        # Numbers only: a bool compares like 0 or 1, a string raises a bare
        # TypeError, an int beyond float range overflows later; any float goes
        # on to the range checks.  An infinite period, a one-period game, stays accepted.
        if not (isinstance(self.delta, float) or _is_number(self.delta)):
            raise OutOfRange(f"period length must be a number, got {self.delta!r}")
        _check_period(self.delta)
        if not 1 <= _integer("horizon", self.horizon) <= MAX_HORIZON:
            raise OutOfRange(f"horizon must be 1 to {MAX_HORIZON} periods, got {self.horizon!r}")
        if not 1 <= _integer("n_paths", self.n_paths) <= MAX_PATHS:
            raise OutOfRange(f"need 1 to {MAX_PATHS} paths, got {self.n_paths!r}")
        if not (isinstance(self.initial_belief, float) or _is_number(self.initial_belief)):
            raise OutOfRange(f"initial belief must be a number, got {self.initial_belief!r}")
        if not 0.0 <= self.initial_belief <= 1.0:
            raise OutOfRange(f"initial belief outside [0, 1]: {self.initial_belief!r}")
        if not _integer("seed", self.seed) >= 0:
            raise OutOfRange(f"seed must be non-negative, got {self.seed!r}")


@dataclass(frozen=True, slots=True)
class CalibrationBin:
    """Belief-bin tally: how often the state was 1 when the belief fell here."""

    lo: float
    hi: float
    count: int
    state_one: int
    belief_sum: float

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def frequency(self) -> float:
        return self.state_one / self.count if self.count else math.nan

    @property
    def predicted(self) -> float:
        return self.belief_sum / self.count if self.count else math.nan

    @property
    def std_error(self) -> float:
        if not self.count:
            return math.nan
        p = min(max(self.predicted, 0.0), 1.0)
        return math.sqrt(p * (1.0 - p) / self.count)


@dataclass(frozen=True, slots=True, eq=False)
class SimResult:
    """Aggregates of one simulation run."""

    mean_discounted_payoff: float
    std_error: float
    tail_bound: float
    calibration: tuple[CalibrationBin, ...]


def _thread_count() -> int:
    raw = os.environ.get("PERSUADE_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True, slots=True)
class _BeliefTable:
    """Every belief the simulation can hold, indexed by an integer code.

    Under a belief-stationary policy a path's belief is always an atom (the
    initial belief or a split target) followed by k periods of silent drift,
    so a path carries the code of (atom, k) and code + 1 is one more drift
    step.  Each atom's chain ends at its first drifted belief (k >= 1) that
    the policy splits, or after `horizon` drift steps.  The slot tables are
    indexed by the code a path starts a period at, with the drift step
    folded in; a state-dependent one by slot 2 * code + state, next_code by
    2 * code + high.  A hold is an atom to which one of the messages sent
    at its drifted belief returns the path; the other one leaves it.  The
    initial belief's chain comes first, so every path starts at code 0.
    """

    belief: np.ndarray      # belief per code
    bin: np.ndarray         # calibration bin per code
    level: np.ndarray       # u(belief) per code
    flip: tuple[float, float]  # P(0->1) = a, P(1->0) = 1 - a - b
    split: np.ndarray       # per code: the policy splits the drifted belief
    next_code: np.ndarray   # per 2 * code + high: post-message code (code + 1 where it slides)
    p_high: np.ndarray      # per slot: P(high | the path moves): beta, or the leaving bit at a hold
    log_stay: np.ndarray    # per slot: log(1 - P(leave)) at a hold, -inf elsewhere
    run: np.ndarray         # per code: drift steps along codes at one level, up to a split


def _belief_table(problem: Problem, policy: MarkovPolicy, config: SimConfig) -> _BeliefTable:
    """Tabulate the beliefs reachable from the initial belief under policy.

    Drift is iterated exactly as a path would iterate it, so table beliefs
    are the beliefs a per-path float simulation would hold, bit for bit.
    The policy's target lookup range-checks every chain and the split signal
    every target, so a policy that moves the belief outside [0, 1] raises
    OutOfRange here, before any path is drawn.
    """
    drift0, drift_slope, _ = period_law(problem, config.delta)
    chains: dict[float, list[float]] = {}
    splits = {}  # atom -> (low, high) targets, (beta0, beta1) of its split
    pending = [float(config.initial_belief)]
    while pending:
        atom = pending.pop()
        if atom in chains:
            continue
        chain = [atom]
        for _ in range(config.horizon):
            chain.append(drift0 + drift_slope * chain[-1])
        low, high = policy.targets(np.array(chain))
        hits = np.flatnonzero(high[1:] > low[1:])
        if hits.size:
            stop = int(hits[0]) + 1
            del chain[stop + 1:]
            targets = float(low[stop]), float(high[stop])
            splits[atom] = targets, make_split_signal(chain[stop], *targets)
            pending += targets
        chains[atom] = chain

    offsets, size = {}, 0
    for atom, chain in chains.items():
        offsets[atom] = size
        size += len(chain)
    belief = np.concatenate([np.array(chain) for chain in chains.values()])
    level = problem.payoff.value(belief)
    codes = np.arange(size)
    split = np.zeros(size, dtype=bool)
    beta = np.zeros((size, 2))
    next_code = np.repeat(codes[:, None] + 1, 2, axis=1)
    for atom, (targets, betas) in splits.items():
        code = offsets[atom] + len(chains[atom]) - 2
        split[code] = True
        beta[code] = betas
        next_code[code] = [offsets[target] for target in targets]
    returns = next_code == codes[:, None]  # per (code, high): the message returns the path
    hold = np.any(returns, axis=1)[:, None]
    leave_high = returns[:, :1]
    with np.errstate(divide="ignore"):  # a leave probability of 1 gives -inf
        log_stay = np.where(hold, np.log1p(-np.where(leave_high, beta, 1.0 - beta)), -np.inf)
    # A drift run from code c takes codes c + 1, ..., c + run[c]; it goes on
    # past code d while d drifts, keeps its level and is no chain end (which
    # starts no period: it is a split or the horizon's end).
    goes_on = ~split
    goes_on[[offsets[atom] + len(chain) - 1 for atom, chain in chains.items()]] = False
    goes_on[:-1] &= level[1:] == level[:-1]
    ends = np.append(np.flatnonzero(~goes_on), size)
    run = ends[np.searchsorted(ends, codes + 1)] - codes
    return _BeliefTable(
        belief=belief,
        bin=np.clip((belief * _N_BINS).astype(np.int64), 0, _N_BINS - 1),
        level=level,
        flip=(drift0, 1.0 - drift0 - drift_slope),
        split=split,
        next_code=next_code.ravel(),
        p_high=np.where(hold, leave_high, beta).ravel(),
        log_stay=log_stay.ravel(),
        run=np.where(split, 1, run),
    )


def _holding_times(rng, state: np.ndarray, log_stay: np.ndarray, horizon: int) -> np.ndarray:
    """Geometric periods to the next flip out of each state, on 1, 2, ..., by inversion.

    log_stay holds log(1 - P(flip)) per state.  One uniform per draw, worked
    in place.  Draws are capped at horizon + 1, which reaches past the run
    from any start, before anything is added to them; a flip probability of
    0 gives the cap.
    """
    periods = rng.random(state.size)
    np.log1p(np.negative(periods, out=periods), out=periods)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(periods, np.where(state, log_stay[1], log_stay[0]), out=periods)
    np.floor(periods, out=periods)
    periods += 1.0
    return np.fmin(periods, horizon + 1, out=periods).astype(np.int64)


def _flip_lists(rng, state, next_flip, log_stay, first, stop, horizon):
    """Per path, the periods from first to stop - 1 in which its state flips, then stop.

    next_flip[j] is the period in which path j's state next flips; every due
    flip toggles state and draws the following holding time, in rounds of
    all paths still due before stop, in path order.  Returns the lists laid
    end to end in path order, as periods counted from first, and each
    path's first index into them.
    """
    rounds = []
    counts = np.ones(state.size, dtype=np.int64)
    due = first_due = np.flatnonzero(next_flip < stop)
    while due.size:
        periods = (next_flip[due] - first).astype(np.int16)  # a block fits 16 bits
        counts[due] += 1
        state[due] ^= True
        next_flip[due] += _holding_times(rng, state[due], log_stay, horizon)
        still = next_flip[due] < stop
        rounds.append((periods, still))
        due = due[still]
    # Round k holds the k-th flip of each path due in it.
    start = np.cumsum(counts) - counts
    flips = np.full(int(start[-1] + counts[-1]), stop - first, dtype=np.int16)
    due = first_due
    for k, (periods, still) in enumerate(rounds):
        flips[start[due] + k] = periods
        due = due[still]
    return flips, start


def _events(table, message_rng, c, s, t, limit, visits, runs):
    """Move each path by one event from code c and state s at period t.

    limit is the period of the path's next flip or the block end, whichever
    comes first.  Adds the periods ended to visits (per slot) and to runs
    (a difference array per slot, for drift runs).  Returns the code and
    period after the event, the paths whose payoff level it changed, and
    the period at which each of them entered the new level.
    """
    room = limit - t
    slot = 2 * c + s
    # A drift run's steps past its first go to runs: one at its second code,
    # minus one past its last.
    drifts = np.flatnonzero(table.run[c] > 1)
    steps = np.minimum(table.run[c[drifts]], room[drifts]) - 1
    drifts, steps = drifts[steps > 0], steps[steps > 0]
    np.add.at(runs, slot[drifts] + 4, 1)
    np.add.at(runs, slot[drifts] + 4 + 2 * steps, -1)

    moves = table.split[c]
    draws = np.zeros(c.size)
    draws[moves] = message_rng.random(np.count_nonzero(moves))
    new = table.next_code[2 * c + (draws < table.p_high[slot])]
    # A hold returns for `stays` periods, then leaves; a split moves at
    # once, and so does a drift step (draw 0, never high).
    np.log1p(np.negative(draws, out=draws), out=draws)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(draws, table.log_stay[slot], out=draws)
    left = np.floor(draws, out=draws) < room
    stays = np.fmin(draws, room, out=draws).astype(np.int64)
    np.add.at(visits, slot, stays)
    del draws, slot, room  # freed here: the chunk's memory peaks below
    np.copyto(new, c, where=~left)
    np.add.at(visits, (2 * new + s)[left], 1)
    end = t + stays + left
    new[drifts] += steps
    end[drifts] += steps
    changed = np.flatnonzero(table.level[new] != table.level[c])
    return new, end, changed, t[changed] + stays[changed]


def _run_chunk(table, config, n_paths, seed_seq, cum_weights):
    """Simulate one chunk.

    Returns the path count, the mean and the summed squared deviations of
    the path payoffs, and occupancy[code, state], the periods ended there.
    """
    state_seq, message_seq = seed_seq.spawn(2)
    state_rng = np.random.Generator(np.random.PCG64(state_seq))
    message_rng = np.random.Generator(np.random.PCG64(message_seq))
    horizon = config.horizon
    size = table.level.size
    level = table.level
    log_flip_stay = np.log1p(-np.array(table.flip))  # per state: log(1 - P(flip))

    # The state after every flip drawn so far: at the start of a block, each path's state.
    drawn = state_rng.random(n_paths) < config.initial_belief
    next_flip = (_holding_times(state_rng, drawn, log_flip_stay, horizon) - 1).astype(np.int32)
    code = np.zeros(n_paths, dtype=np.int64)
    since = np.zeros(n_paths, dtype=np.int64)  # first period of the path's level run
    totals = np.zeros(n_paths)
    # Periods ended per slot, and per slot a difference array for drift runs.
    visits = np.zeros(2 * size, dtype=np.int64)
    runs = np.zeros(2 * size + 2, dtype=np.int64)

    for first in range(0, horizon, _BLOCK):
        stop = min(first + _BLOCK, horizon)
        s = drawn.copy()  # each path's state at first, before the block's flips are drawn
        flips, cursor = _flip_lists(state_rng, drawn, next_flip, log_flip_stay, first, stop, horizon)
        # The paths short of stop, and their period (counted from first), code and state.
        live = np.arange(n_paths)
        t = np.zeros(n_paths, dtype=np.int64)
        c = code.copy()
        while live.size:
            due = flips[cursor] == t
            cursor += due
            s ^= due
            new, t, changed, starts = _events(table, message_rng, c, s, t, flips[cursor], visits, runs)
            # Credit the level run that ends where the path enters a new level.
            paths = live[changed]
            starts += first
            totals[paths] += level[c[changed]] * (cum_weights[starts] - cum_weights[since[paths]])
            since[paths] = starts
            c = new
            going = t < stop - first
            if not going.all():
                done = ~going
                code[live[done]] = c[done]
                live, cursor, s, c, t = live[going], cursor[going], s[going], c[going], t[going]

    totals += level[code] * (cum_weights[horizon] - cum_weights[since])
    mean = float(np.sum(totals)) / n_paths
    occupancy = visits.reshape(-1, 2) + np.cumsum(runs[:-2].reshape(-1, 2), axis=0)
    return n_paths, mean, float(np.sum(np.square(totals - mean))), occupancy


def _exact_bin_sums(values: np.ndarray, counts: np.ndarray, bins: np.ndarray) -> list[float]:
    """Per-bin sum(values * counts) of beliefs in [0, 1] and integer counts, correctly rounded.

    The sums of belief * _SCALE are exact in Python integers, and the true
    division rounds each bin once.
    """
    sums = [0] * _N_BINS
    for value, count, k in zip(values.tolist(), counts.tolist(), bins.tolist()):
        num, den = value.as_integer_ratio()
        sums[k] += num * (_SCALE // den) * count
    return [total / _SCALE for total in sums]


def simulate(problem: Problem, policy: MarkovPolicy, config: SimConfig,
             max_tail: float = DEFAULT_MAX_TAIL) -> SimResult:
    """Run the discrete game under a fixed policy and aggregate path payoffs.

    The periods past `horizon` carry weight x^horizon and are credited at the
    lowest level, so the mean falls short of the infinite-horizon value by at
    most tail_bound = x^horizon times the payoff spread; SimulationError is
    raised when that bound exceeds max_tail.
    """
    if not max_tail > 0.0:
        raise OutOfRange(f"max_tail must be positive, got {max_tail!r}")
    x = period_law(problem, config.delta)[2]
    levels = problem.payoff.levels
    tail_weight = x ** config.horizon
    tail_bound = tail_weight * (max(levels) - min(levels))
    if tail_bound > max_tail:
        raise SimulationError(
            f"truncation bound {tail_bound:.3g} exceeds {max_tail}; need a horizon of "
            f"about {_periods_needed(problem, config.delta, max_tail):.3g} periods"
        )

    weights = (1.0 - x) * x ** np.arange(config.horizon)
    cum_weights = np.concatenate([[0.0], np.cumsum(weights)])
    n_chunks = (config.n_paths + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(config.seed).spawn(n_chunks)
    # Even sizes (differing by at most one) keep the threads equally loaded.
    base, extra = divmod(config.n_paths, n_chunks)
    sizes = [base + (i < extra) for i in range(n_chunks)]

    table = _belief_table(problem, policy, config)

    def job(i: int):
        return _run_chunk(table, config, sizes[i], children[i], cum_weights)

    threads = min(_thread_count(), n_chunks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(job, range(n_chunks)))
    else:
        outputs = [job(i) for i in range(n_chunks)]

    # Chan, Golub and LeVeque's pairwise update, in chunk order.
    n, mean, squares = 0, 0.0, 0.0
    for count, chunk_mean, chunk_squares, _ in outputs:
        step = chunk_mean - mean
        share = count / (n + count)
        mean += step * share
        squares += chunk_squares + step * step * n * share
        n += count
    occupancy = sum(out[3] for out in outputs)  # (code, state)
    visits = occupancy.sum(axis=1)
    counts = np.bincount(table.bin, weights=visits, minlength=_N_BINS)  # exact below 2**53
    state_one = np.bincount(table.bin, weights=occupancy[:, 1], minlength=_N_BINS)
    belief_sum = _exact_bin_sums(table.belief, visits, table.bin)

    std_error = math.sqrt(squares / (n - 1) / n) if n > 1 else math.nan
    # The floor is the same on every path, so it moves the mean only.
    mean += tail_weight * min(levels)
    edges = np.linspace(0.0, 1.0, _N_BINS + 1)
    calibration = tuple(
        CalibrationBin(float(edges[k]), float(edges[k + 1]), int(counts[k]),
                       int(state_one[k]), belief_sum[k])
        for k in range(_N_BINS)
    )
    return SimResult(
        mean_discounted_payoff=mean,
        std_error=std_error,
        tail_bound=tail_bound,
        calibration=calibration,
    )


def compare_policies(problem: Problem, solution: Solution, policies, beliefs,
                     config: SimConfig) -> list[dict]:
    """Simulate each policy from each starting belief against the solver value.

    Every run reuses the same seed, so policies face identical state paths.
    A row is flagged when its simulated mean exceeds the solver's value by
    more than three standard errors plus _ALLOWANCE for the discretization,
    which would contradict the value function's optimality.
    """
    rows = []
    for name, policy in dict(policies).items():
        for belief in beliefs:
            run_config = replace(config, initial_belief=float(belief))
            result = simulate(problem, policy, run_config)
            solver_value = solution.value.value(float(belief))
            excess = result.mean_discounted_payoff - solver_value
            rows.append({
                "policy": name,
                "initial_belief": float(belief),
                "mean": result.mean_discounted_payoff,
                "std_error": result.std_error,
                "solver_value": solver_value,
                "excess": excess,
                "beats_value": excess > 3.0 * result.std_error + _ALLOWANCE,
            })
    return rows
