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
p -> a + b p (dynamics.drift_map): P(0->1) = a and P(1->0) = 1 - a - b, so
a path's belief is the exact posterior of its simulated state.
Period weights (1 - x) x^n, n = 0, 1, ..., sum to one over an infinite
horizon, so simulated means are directly comparable to the solver's value.

Paths are simulated in chunks of at most _CHUNK paths, split evenly (sizes
differ by at most one), each drawing from a PCG64 generator on its own child
of the master seed sequence.  Chunk payoff sums are folded in chunk order
with math.fsum and integer visit counts are added, so results are
bit-identical for a given seed no matter how many worker threads run (one
per available core by default; set PERSUADE_THREADS to override).  The bit
generator and the chunk layout are part of the random stream: changing
either changes the result for a given seed.  State randomness is drawn
before any policy-dependent quantity, so runs with the same seed see
identical state paths under different policies.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange, SimulationError
from .model import Problem
from .dynamics import SplitSignal, drift_map, make_split_signal
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

_CHUNK = 32768
# 21 equal bins: with a bin count that shares no small factor with the
# decimal grids cuts are usually written in (multiples of 0.05 or 0.1),
# posterior atoms at cut values land in bin interiors instead of on edges,
# where a center-based calibration tolerance carries no information.
_N_BINS = 21
DEFAULT_MAX_TAIL = 0.05


def default_period(problem: Problem) -> float:
    """Period short relative to every rate in the instance."""
    return 0.01 / (problem.rates.lambda0 + problem.rates.lambda1 + problem.discounting.r)


def sized_horizon(problem: Problem, delta: float, max_tail: float) -> int:
    """Fewest periods whose truncation bound x^horizon * spread is at most max_tail.

    A flat payoff has no truncation error at any horizon; it gets 100 periods.
    """
    if not delta > 0.0:
        raise OutOfRange(f"period length must be positive, got {delta!r}")
    levels = problem.payoff.levels
    spread = max(levels) - min(levels)
    if spread <= 0.0:
        return 100
    return max(1, math.ceil(math.log(spread / max_tail) / (problem.discounting.r * delta)))


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Simulation run parameters."""

    delta: float
    horizon: int
    n_paths: int
    seed: int
    initial_belief: float

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise OutOfRange(f"period length must be positive, got {self.delta!r}")
        if self.horizon < 1:
            raise OutOfRange(f"horizon must be at least 1 period, got {self.horizon!r}")
        if self.n_paths < 1:
            raise OutOfRange(f"need at least one path, got {self.n_paths!r}")
        if not (0.0 <= self.initial_belief <= 1.0):
            raise OutOfRange(f"initial belief outside [0, 1]: {self.initial_belief!r}")


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

    config: SimConfig
    mean_discounted_payoff: float
    std_error: float
    tail_bound: float
    calibration: tuple[CalibrationBin, ...]
    trace: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.config.n_paths


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
    the policy splits, or after `horizon` drift steps.  A path holds its code
    and hidden state as one integer s = 2 * code + state, so every period
    lookup is one take on s; next_s[2 * s + high] is the post-message s
    (the same s where the policy slides).
    """

    start: int              # code of the initial belief
    belief: np.ndarray      # belief per code
    bin: np.ndarray         # calibration bin per code
    flip: np.ndarray        # per s: P(0->1) = a or P(1->0) = 1 - a - b
    p_high: np.ndarray      # per s: beta0 or beta1
    level: np.ndarray       # per s: u(belief)
    next_s: np.ndarray      # per 2 * s + high: post-message s


def _belief_table(problem: Problem, policy: MarkovPolicy, config: SimConfig) -> _BeliefTable:
    """Tabulate the beliefs reachable from the initial belief under policy.

    Drift is iterated exactly as a path would iterate it, so table beliefs
    are the beliefs a per-path float simulation would hold, bit for bit.
    The policy's region lookup range-checks every chain and the split signal
    every target, so a policy that moves the belief outside [0, 1] raises
    OutOfRange here, before any path is drawn.
    """
    drift0, drift_slope = drift_map(problem.rates, config.delta)
    is_split = np.array([region.action == "split" for region in policy.regions])
    chains: dict[float, list[float]] = {}
    signals: dict[float, SplitSignal] = {}
    pending = [float(config.initial_belief)]
    while pending:
        atom = pending.pop()
        if atom in chains:
            continue
        chain = [atom]
        for _ in range(config.horizon):
            chain.append(drift0 + drift_slope * chain[-1])
        regions = policy.region_index(np.array(chain))
        hits = np.flatnonzero(is_split[regions[1:]])
        if hits.size:
            stop = int(hits[0]) + 1
            del chain[stop + 1:]
            region = policy.regions[regions[stop]]
            signal = make_split_signal(chain[stop], float(region.low_target),
                                       float(region.high_target))
            signals[atom] = signal
            pending += [signal.low_target, signal.high_target]
        chains[atom] = chain

    offsets, size = {}, 0
    for atom, chain in chains.items():
        offsets[atom] = size
        size += len(chain)
    belief = np.concatenate([np.array(chain) for chain in chains.values()])
    p_high = np.zeros((belief.size, 2))
    next_code = np.repeat(np.arange(belief.size)[:, None], 2, axis=1)
    for atom, signal in signals.items():
        code = offsets[atom] + len(chains[atom]) - 1
        p_high[code] = signal.beta0, signal.beta1
        next_code[code] = offsets[signal.low_target], offsets[signal.high_target]
    return _BeliefTable(
        start=offsets[float(config.initial_belief)],
        belief=belief,
        bin=np.clip((belief * _N_BINS).astype(np.int64), 0, _N_BINS - 1),
        flip=np.tile((drift0, 1.0 - drift0 - drift_slope), belief.size),
        p_high=p_high.ravel(),
        level=np.repeat(problem.payoff.value(belief), 2),
        next_s=(2 * next_code[:, None, :] + np.arange(2)[:, None]).ravel(),
    )


def _run_chunk(table, config, n_paths, seed_seq, weights, want_trace):
    """Simulate one chunk; returns payoff sums and occupancy[s], the periods ended at s."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))

    s = 2 * table.start + (rng.random(n_paths) < config.initial_belief)
    draws = np.empty((2, n_paths))  # flip and message uniforms, one fill
    totals = np.zeros(n_paths)
    occupancy = np.zeros(table.flip.size, dtype=np.int64)
    trace = np.empty((config.horizon, 5)) if want_trace else None

    for n in range(config.horizon):
        rng.random(out=draws)
        s ^= draws[0] < np.take(table.flip, s)
        s += 2
        drifted = table.belief[s[0] >> 1] if want_trace else 0.0
        high = draws[1] < np.take(table.p_high, s)
        s = np.take(table.next_s, 2 * s + high)
        totals += weights[n] * np.take(table.level, s)
        np.add.at(occupancy, s, 1)
        if want_trace:
            trace[n] = (n, (n + 1) * config.delta, s[0] & 1, drifted, table.belief[s[0] >> 1])

    return float(np.sum(totals)), float(np.sum(totals * totals)), occupancy, trace


def _exact_bin_sums(values: np.ndarray, counts: np.ndarray, bins: np.ndarray) -> list[float]:
    """Per-bin sum(values * counts), correctly rounded; counts are integers below 2**53.

    Veltkamp's split makes every partial product exact, so math.fsum rounds once.
    """
    big = 134217729.0 * values              # (2**27 + 1) * values
    v_hi = big - (big - values)
    v_lo = values - v_hi
    c_hi = (counts >> 26 << 26).astype(float)
    c_lo = (counts & (2**26 - 1)).astype(float)
    parts = np.stack([v_hi * c_hi, v_hi * c_lo, v_lo * c_hi, v_lo * c_lo], axis=1)
    occupied = set(bins[counts > 0].tolist())
    return [math.fsum(parts[bins == k].ravel()) if k in occupied else 0.0 for k in range(_N_BINS)]


def simulate(problem: Problem, policy: MarkovPolicy, config: SimConfig,
             record_trace: bool = False,
             max_tail: float = DEFAULT_MAX_TAIL) -> SimResult:
    """Run the discrete game under a fixed policy and aggregate path payoffs.

    The truncation error of stopping after `horizon` periods is at most
    x^horizon times the payoff spread; SimulationError is raised when that
    bound exceeds max_tail.  With record_trace the first path of the first
    chunk is kept period by period (columns: period, elapsed time, state,
    drifted belief, post-message belief).
    """
    if not max_tail > 0.0:
        raise OutOfRange(f"max_tail must be positive, got {max_tail!r}")
    x = math.exp(-problem.discounting.r * config.delta)
    levels = problem.payoff.levels
    tail_bound = x ** config.horizon * (max(levels) - min(levels))
    if tail_bound > max_tail:
        raise SimulationError(
            f"truncation bound {tail_bound:.3g} exceeds {max_tail}; need a horizon of "
            f"about {sized_horizon(problem, config.delta, max_tail)} periods"
        )

    weights = (1.0 - x) * x ** np.arange(config.horizon)
    n_chunks = (config.n_paths + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(config.seed).spawn(n_chunks)
    # Even sizes (differing by at most one) keep the threads equally loaded.
    base, extra = divmod(config.n_paths, n_chunks)
    sizes = [base + (i < extra) for i in range(n_chunks)]

    table = _belief_table(problem, policy, config)

    def job(i: int):
        return _run_chunk(table, config, sizes[i], children[i], weights,
                          record_trace and i == 0)

    threads = min(_thread_count(), n_chunks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(job, range(n_chunks)))
    else:
        outputs = [job(i) for i in range(n_chunks)]

    total = math.fsum(out[0] for out in outputs)
    total_sq = math.fsum(out[1] for out in outputs)
    occupancy = sum(out[2] for out in outputs).reshape(-1, 2)  # (code, state)
    visits = occupancy.sum(axis=1)
    counts = np.bincount(table.bin, weights=visits, minlength=_N_BINS)  # exact below 2**53
    state_one = np.bincount(table.bin, weights=occupancy[:, 1], minlength=_N_BINS)
    belief_sum = _exact_bin_sums(table.belief, visits, table.bin)

    n = config.n_paths
    mean = total / n
    if n > 1:
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(variance / n)
    else:
        std_error = math.nan
    edges = np.linspace(0.0, 1.0, _N_BINS + 1)
    calibration = tuple(
        CalibrationBin(float(edges[k]), float(edges[k + 1]), int(counts[k]),
                       int(state_one[k]), belief_sum[k])
        for k in range(_N_BINS)
    )
    return SimResult(
        config=config,
        mean_discounted_payoff=mean,
        std_error=std_error,
        tail_bound=tail_bound,
        calibration=calibration,
        trace=outputs[0][3],
    )


def compare_policies(problem: Problem, solution: Solution, policies, beliefs,
                     config: SimConfig, allowance: float = 0.01,
                     max_tail: float = DEFAULT_MAX_TAIL) -> list[dict]:
    """Simulate each policy from each starting belief against the solver value.

    Every run reuses the same seed, so policies face identical state paths.
    A row is flagged when its simulated mean exceeds the solver's value by
    more than three standard errors plus the discretization allowance,
    which would contradict the value function's optimality.
    """
    rows = []
    for name, policy in dict(policies).items():
        for belief in beliefs:
            run_config = replace(config, initial_belief=float(belief))
            result = simulate(problem, policy, run_config, max_tail=max_tail)
            solver_value = solution.value.value(float(belief))
            excess = result.mean_discounted_payoff - solver_value
            rows.append({
                "policy": name,
                "initial_belief": float(belief),
                "mean": result.mean_discounted_payoff,
                "std_error": result.std_error,
                "solver_value": solver_value,
                "excess": excess,
                "beats_value": excess > 3.0 * result.std_error + allowance,
            })
    return rows
