"""Monte Carlo simulator: exactness, determinism, calibration."""

from __future__ import annotations

import faulthandler
import json
import math
import multiprocessing.pool
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from persuade import sim
from persuade.dynamics import period_law
from persuade.errors import OutOfRange, SimulationError
from persuade.model import parse_problem
from persuade.oracle import full_disclosure_policy, myopic_policy, slide_only_policy
from persuade.sim import (
    SimConfig,
    compare_policies,
    default_period,
    simulate,
    sized_horizon,
)
from persuade.solver import MarkovPolicy, solve

from conftest import CANON_RAW


# --- configuration ------------------------------------------------------------

def test_default_period_scales_with_rates(canon_problem):
    assert default_period(canon_problem) == 0.01 / 3.0


@pytest.mark.parametrize("kwargs", [
    {"delta": 0.0}, {"horizon": 0}, {"n_paths": 0}, {"initial_belief": 1.5},
    {"initial_belief": -0.1}, {"horizon": 10**7 + 1}, {"n_paths": 10**7 + 1},
    {"seed": -1}, {"horizon": 100.5}, {"n_paths": 10.5}, {"seed": 1.5},
    {"horizon": True}, {"n_paths": True}, {"seed": False},
    {"delta": True}, {"initial_belief": True}, {"delta": "0.01"}, {"delta": None},
    {"initial_belief": "0.5"}, {"initial_belief": None},
])
def test_config_validation(kwargs):
    base = {"delta": 0.01, "horizon": 100, "n_paths": 10, "seed": 0,
            "initial_belief": 0.5}
    base.update(kwargs)
    with pytest.raises(OutOfRange):
        SimConfig(**base)


@pytest.mark.parametrize("kwargs, message", [
    ({"delta": True}, "period length must be a number, got True"),
    ({"delta": "0.01"}, "period length must be a number, got '0.01'"),
    ({"delta": None}, "period length must be a number, got None"),
    ({"delta": 10**400}, "period length must be a number, got 1000"),
    ({"delta": math.nan}, "period length must be positive, got nan"),
    ({"delta": -math.inf}, "period length must be positive, got -inf"),
    ({"initial_belief": True}, "initial belief must be a number, got True"),
    ({"initial_belief": "0.5"}, "initial belief must be a number, got '0.5'"),
    ({"initial_belief": None}, "initial belief must be a number, got None"),
    ({"initial_belief": math.nan}, "initial belief outside [0, 1]: nan"),
])
def test_config_names_the_defect(kwargs, message):
    base = {"delta": 0.01, "horizon": 100, "n_paths": 10, "seed": 0,
            "initial_belief": 0.5}
    with pytest.raises(OutOfRange) as exc:
        SimConfig(**dict(base, **kwargs))
    assert str(exc.value).startswith(message)


def test_config_accepts_numpy_floats_and_an_infinite_period():
    # numpy floats are floats; an infinite period is a one-period game, which
    # `persuade simulate --delta inf` runs.
    SimConfig(delta=np.float64(0.01), horizon=10, n_paths=1, seed=0, initial_belief=np.float64(0.3))
    SimConfig(delta=math.inf, horizon=1, n_paths=1, seed=0, initial_belief=0.5)


def test_sized_horizon_ceiling(canon_problem):
    # Canon: spread 1 and r = 1, and the bound lands at 0.05 / 2, so the
    # horizon is ceil(ln(40) / delta).
    assert sized_horizon(canon_problem, 3.7e-7) == 9969945
    with pytest.raises(OutOfRange, match="needs a horizon of more than 10000000 periods"):
        sized_horizon(canon_problem, 3.6e-7)


def test_horizon_too_short(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=10, n_paths=100, seed=0, initial_belief=0.5)
    with pytest.raises(SimulationError, match="truncation bound") as exc:
        simulate(canon_problem, canon_solution.policy, config)
    assert "periods" in str(exc.value)


@pytest.mark.parametrize("max_tail", [0.0, -1.0, math.nan, math.inf])
def test_max_tail_must_be_positive(canon_problem, canon_solution, max_tail):
    # A short horizon so that any finite cap is exceeded; inf turns the check off.
    config = SimConfig(delta=0.01, horizon=10, n_paths=16, seed=0, initial_belief=0.5)
    if max_tail == math.inf:
        assert simulate(canon_problem, canon_solution.policy, config,
                        max_tail=max_tail).tail_bound > 0.0
        return
    with pytest.raises(OutOfRange, match="max_tail must be positive"):
        simulate(canon_problem, canon_solution.policy, config, max_tail=max_tail)


@pytest.mark.parametrize("delta", [1e-300, 1e-17])
def test_discount_factor_rounding_to_one_is_out_of_range(canon_problem, canon_solution, delta):
    # With x == 1 no horizon bounds the truncation, even with the check off.
    config = SimConfig(delta=delta, horizon=5, n_paths=10, seed=0, initial_belief=0.5)
    with pytest.raises(OutOfRange, match="discount factor exp\\(-r delta\\) rounds to 1"):
        simulate(canon_problem, canon_solution.policy, config, max_tail=math.inf)


def test_tail_bound_formula(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=400, n_paths=16, seed=0, initial_belief=0.5)
    res = simulate(canon_problem, canon_solution.policy, config)
    assert res.tail_bound == math.exp(-0.01) ** 400 * 1.0


# --- exact cases --------------------------------------------------------------

def test_flat_payoff_mean_is_deterministic(flat_problem):
    config = SimConfig(delta=0.05, horizon=200, n_paths=50, seed=1, initial_belief=0.3)
    res = simulate(flat_problem, slide_only_policy(flat_problem), config)
    # The periods past the horizon are credited at the lowest level, 0.6.
    assert res.mean_discounted_payoff == pytest.approx(0.6, abs=1e-12)
    # Identical paths; the variance formula leaves only cancellation noise.
    assert res.std_error <= 1e-7
    assert res.tail_bound == 0.0       # zero payoff spread, truncation is free


def test_stationary_slide_mean_exact(canon_problem):
    # At p* with no disclosure the belief never moves, so every path collects
    # the flow 0.8 with the mass-one weights: mean = 0.8 (1 - x^horizon).
    config = SimConfig(delta=0.01, horizon=301, n_paths=64, seed=3, initial_belief=0.5)
    res = simulate(canon_problem, slide_only_policy(canon_problem), config)
    x = math.exp(-0.01)
    assert res.mean_discounted_payoff == pytest.approx(0.8 * (1.0 - x ** 301), abs=1e-12)
    assert res.std_error <= 1e-7


def test_shifted_levels_shift_the_mean(canon_problem, canon_solution):
    # Levels 2h + 5 under the same policy and seed: every path payoff, and
    # the credit for the periods past the horizon, map by the same affine law.
    shifted = parse_problem(dict(CANON_RAW, levels=[2.0 * h + 5.0 for h in CANON_RAW["levels"]]))
    config = SimConfig(delta=0.01, horizon=400, n_paths=3000, seed=5, initial_belief=0.3)
    base = simulate(canon_problem, canon_solution.policy, config)
    res = simulate(shifted, canon_solution.policy, config)
    assert res.mean_discounted_payoff == pytest.approx(2.0 * base.mean_discounted_payoff + 5.0,
                                                       rel=0.0, abs=1e-12)
    assert res.std_error == pytest.approx(2.0 * base.std_error, rel=1e-12)
    assert res.tail_bound == 2.0 * base.tail_bound


def test_single_path_has_no_std_error(flat_problem):
    config = SimConfig(delta=0.05, horizon=100, n_paths=1, seed=0, initial_belief=0.5)
    res = simulate(flat_problem, slide_only_policy(flat_problem), config)
    assert math.isnan(res.std_error)
    assert math.isfinite(res.mean_discounted_payoff)


# --- event loop against a per-path float loop ---------------------------------

def _reference_states(problem, config, state_rng):
    """Hidden states and flips per (period, path), post-flip, from geometric holding times.

    Each path draws its initial state, then the period of its first flip
    (one uniform per holding time, by inversion).  Within each block of
    sim._BLOCK periods, rounds of holding times are drawn, in path order,
    for every path whose next flip still falls in the block.  A path's state
    is its initial state XOR the parity of its flips so far.
    """
    n_paths, horizon, block = config.n_paths, config.horizon, sim._BLOCK
    drift0, drift_slope = period_law(problem, config.delta)[:2]
    prob_up, prob_down = drift0, 1.0 - drift0 - drift_slope

    def holding_times(state):
        uniform = state_rng.random(state.size)
        periods = np.floor(np.log1p(-uniform) / np.log1p(-np.where(state, prob_down, prob_up))) + 1
        return np.where(periods <= horizon, periods, horizon + 1).astype(np.int64)

    initial = state_rng.random(n_paths) < config.initial_belief
    state = initial.copy()
    next_flip = holding_times(state) - 1
    flips = np.zeros((horizon, n_paths), dtype=bool)
    for first in range(0, horizon, block):
        stop = min(first + block, horizon)
        while (due := np.flatnonzero(next_flip < stop)).size:
            flips[next_flip[due], due] = True
            state[due] = ~state[due]
            next_flip[due] += holding_times(state[due])
    return initial ^ np.logical_xor.accumulate(flips, axis=0), flips


def _chunk_generators(config, chunk=0, n_chunks=1):
    """The state and message generators of one chunk of a run."""
    seed_seq = np.random.SeedSequence(config.seed).spawn(n_chunks)[chunk]
    return [np.random.Generator(np.random.PCG64(child)) for child in seed_seq.spawn(2)]


def _reference_totals(problem, policy, config, chunk=0, n_chunks=1):
    """Per-path payoffs of one chunk by the float event loop, with its states and beliefs."""
    state_rng, message_rng = _chunk_generators(config, chunk, n_chunks)
    states, flips = _reference_states(problem, config, state_rng)
    beliefs = _event_beliefs(problem, policy, config, states, flips, message_rng)
    return _credited_totals(problem, config, beliefs), states, beliefs


def _event_beliefs(problem, policy, config, states, flips, message_rng):
    """Post-message belief per (period, path), with a float belief per path.

    Within each block a path moves event by event, never past its next state
    flip or the block end, and round k moves every path short of the block
    end by its k-th event:
    - where the policy slides the drifted belief, a drift run: one period,
      then more while the next drifted belief slides at the same payoff level;
    - at a split target (the initial belief or a message's posterior) that
      the split of its drifted belief returns to, a hold: one uniform u
      gives floor(log(1 - u) / log(1 - P(leave))) returning periods, then a
      period that leaves to the other target;
    - any other split: one period, high message when u < beta of the state.
    The paths that split in a round draw one uniform each, in path order.
    """
    n_paths, horizon, block = config.n_paths, config.horizon, sim._BLOCK
    drift0, drift_slope = period_law(problem, config.delta)[:2]
    level = problem.payoff.value
    splits = np.array([r.action == "split" for r in policy.regions])
    lows = np.array([r.low_target if r.action == "split" else np.nan for r in policy.regions])
    highs = np.array([r.high_target if r.action == "split" else np.nan for r in policy.regions])

    # Written where an event sets the belief, then carried forward.
    beliefs = np.full((horizon, n_paths), np.nan)
    belief = np.full(n_paths, float(config.initial_belief))
    at_atom = np.ones(n_paths, dtype=bool)
    period = np.zeros(n_paths, dtype=np.int64)
    for first in range(0, horizon, block):
        stop = min(first + block, horizon)
        # after[n - first, j]: path j's first flip after period n, or stop.
        marks = np.where(flips[first + 1:stop], np.arange(first + 1, stop)[:, None], stop)
        after = np.vstack([np.minimum.accumulate(marks[::-1], axis=0)[::-1],
                           np.full((1, n_paths), stop)])
        while (live := np.flatnonzero(period < stop)).size:
            n = period[live]
            limit = after[n - first, live]
            drifted = drift0 + drift_slope * belief[live]
            region = policy.region_index(drifted)
            splitting = splits[region]

            slide, k, q = live[~splitting], n[~splitting].copy(), drifted[~splitting]
            run_level, stop_at = level(q), limit[~splitting]
            going = np.ones(slide.size, dtype=bool)
            while going.any():
                beliefs[k[going], slide[going]] = q[going]
                belief[slide[going]] = q[going]
                k[going] += 1
                step = drift0 + drift_slope * q
                going &= (k < stop_at) & ~splits[policy.region_index(step)] \
                    & (level(step) == run_level)
                q = np.where(going, step, q)
            period[slide] = k
            at_atom[slide] = False

            split = live[splitting]
            draws = message_rng.random(split.size)
            q, n, limit = drifted[splitting], n[splitting], limit[splitting]
            lo, hi = lows[region[splitting]], highs[region[splitting]]
            beta1 = hi * (q - lo) / (q * (hi - lo))
            beta0 = (1.0 - hi) * (q - lo) / ((1.0 - q) * (hi - lo))
            beta = np.where(states[n, split], beta1, beta0)
            here = belief[split]
            hold = at_atom[split] & ((here == lo) | (here == hi))
            with np.errstate(divide="ignore", invalid="ignore"):
                log_stay = np.log1p(-np.where(here == lo, beta, 1.0 - beta))
                stays = np.floor(np.log1p(-draws) / log_stay)
            room = limit - n
            left = hold & (stays < room)
            stays = np.where(hold, np.fmin(stays, room), 0).astype(np.int64)
            beliefs[n[hold], split[hold]] = here[hold]
            target = np.where(hold, np.where(here == lo, hi, lo), np.where(draws < beta, hi, lo))
            moves = ~hold | left
            beliefs[(n + stays)[moves], split[moves]] = target[moves]
            belief[split[moves]] = target[moves]
            at_atom[split] = True
            period[split] = n + stays + moves
    filled = np.where(np.isnan(beliefs), 0, np.arange(horizon)[:, None])
    return beliefs[np.maximum.accumulate(filled, axis=0), np.arange(n_paths)]


def _credited_totals(problem, config, beliefs):
    """Per-path payoff by the crediting rule: level x (W[end] - W[start]) per level run."""
    x = math.exp(-problem.discounting.r * config.delta)
    cum_weights = np.concatenate([[0.0], np.cumsum((1.0 - x) * x ** np.arange(config.horizon))])
    levels = problem.payoff.value(beliefs)
    totals = np.zeros(config.n_paths)
    since = np.zeros(config.n_paths, dtype=np.int64)
    for n in range(1, config.horizon):
        changed = np.flatnonzero(levels[n] != levels[n - 1])
        totals[changed] += levels[n - 1, changed] * (cum_weights[n] - cum_weights[since[changed]])
        since[changed] = n
    return totals + levels[-1] * (cum_weights[config.horizon] - cum_weights[since])


def _calibration(beliefs, states):
    """Per-bin visits, state-one visits and exact belief sums of per-period beliefs."""
    n_bins = 21
    bins = np.clip((beliefs * n_bins).astype(np.int64), 0, n_bins - 1)
    counts = np.bincount(bins.ravel(), minlength=n_bins)
    state_one = np.bincount(bins[states], minlength=n_bins)
    exact = [Fraction(0)] * n_bins
    for b, c in zip(*np.unique(beliefs, return_counts=True)):
        exact[min(int(b * n_bins), n_bins - 1)] += Fraction(b) * int(c)
    return counts.tolist(), state_one.tolist(), [float(total) for total in exact]


def _assert_calibration(res, beliefs, states):
    counts, state_one, belief_sum = _calibration(beliefs, states)
    assert [b.count for b in res.calibration] == counts
    assert [b.state_one for b in res.calibration] == state_one
    assert [b.belief_sum for b in res.calibration] == belief_sum


def _assert_matches_float_loop(problem, policy, config, max_tail=sim.DEFAULT_MAX_TAIL):
    """simulate() on one chunk against the float event loop on the same generators."""
    res = simulate(problem, policy, config, max_tail=max_tail)
    totals, states, beliefs = _reference_totals(problem, policy, config)
    assert res.mean_discounted_payoff == float(np.sum(totals)) / config.n_paths
    _assert_calibration(res, beliefs, states)


# At (sigma_star, 0.4) the initial belief is a split target, so a path can
# hold from its first period.
@pytest.mark.parametrize("case,p0", [
    ("sigma_star", 0.1), ("sigma_star", 0.5), ("sigma_star", 0.62),
    ("sigma_star", 0.9), ("myopic", 0.7), ("slide_only", 0.3), ("pinned", 0.55),
    ("full_disclosure", 0.4), ("sigma_star", 0.4),
])
def test_table_step_matches_float_loop(case, p0, canon_problem, canon_solution,
                                       pinned_problem):
    problem = pinned_problem if case == "pinned" else canon_problem
    policy = {
        "sigma_star": canon_solution.policy,
        "myopic": myopic_policy(canon_problem),
        "slide_only": slide_only_policy(canon_problem),
        "pinned": solve(pinned_problem).policy if case == "pinned" else None,
        # Holds at 0 and 1 that the path never leaves in one of the states.
        "full_disclosure": full_disclosure_policy(canon_problem),
    }[case]
    config = SimConfig(delta=0.01, horizon=300, n_paths=2000, seed=19, initial_belief=p0)
    _assert_matches_float_loop(problem, policy, config)


@pytest.mark.parametrize("horizon,n_paths", [
    (5, 300), (sim._BLOCK, 300), (3 * sim._BLOCK, 700), (333, 1), (2, 1),
    (sim._BLOCK + 333, 300),
])
def test_table_step_matches_float_loop_at_block_edges(horizon, n_paths, canon_problem,
                                                      canon_solution):
    # Horizons shorter than, equal to, a multiple of and off a block, and
    # single paths; the fast chain flips many times per block.
    config = SimConfig(delta=0.01, horizon=horizon, n_paths=n_paths, seed=31,
                       initial_belief=0.45)
    _assert_matches_float_loop(canon_problem, canon_solution.policy, config, max_tail=math.inf)
    fast = parse_problem(dict(CANON_RAW, lambda0=30.0, lambda1=20.0))
    _assert_matches_float_loop(fast, myopic_policy(fast), config, max_tail=math.inf)


def test_chunks_combine_to_the_mean_and_spread_of_all_paths(canon_problem, canon_solution,
                                                            monkeypatch):
    # Three chunks of 3000 paths, each on its own generators; the pairwise
    # combination must give the mean and standard error of all 9000 payoffs.
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    config = SimConfig(delta=0.01, horizon=300, n_paths=9000, seed=43, initial_belief=0.3)
    res = simulate(canon_problem, canon_solution.policy, config)
    chunk = replace(config, n_paths=3000)
    totals = np.concatenate([_reference_totals(canon_problem, canon_solution.policy, chunk, i, 3)[0]
                             for i in range(3)])
    assert res.mean_discounted_payoff == pytest.approx(np.mean(totals), rel=1e-14)
    assert res.std_error == pytest.approx(np.std(totals, ddof=1) / math.sqrt(totals.size), rel=1e-12)


@pytest.mark.parametrize("p0", [0.1, 0.3, 0.9])
def test_silent_policy_tallies_match_per_period_loop(canon_problem, p0):
    # No messages: the per-period loop drifts every path one step a period,
    # on the same state stream, and must give the event loop's tallies.
    config = SimConfig(delta=0.01, horizon=sim._BLOCK + 500, n_paths=300, seed=37,
                       initial_belief=p0)
    res = simulate(canon_problem, slide_only_policy(canon_problem), config)
    states, _ = _reference_states(canon_problem, config, _chunk_generators(config)[0])
    drift0, drift_slope = period_law(canon_problem, config.delta)[:2]
    beliefs = np.empty((config.horizon, config.n_paths))
    belief = np.full(config.n_paths, p0)
    for n in range(config.horizon):
        belief = drift0 + drift_slope * belief
        beliefs[n] = belief
    _assert_calibration(res, beliefs, states)


@pytest.mark.parametrize("regions,p0", [
    ([{"lo": 0.0, "hi": 0.5, "action": "slide"},
      {"lo": 0.5, "hi": 1.0, "action": "split", "targets": [0.5, 1.5]}], 0.9),
    ([{"lo": 0.0, "hi": 0.5, "action": "split", "targets": [-0.5, 0.5]},
      {"lo": 0.5, "hi": 1.0, "action": "slide"}], 0.2),
])
def test_split_target_outside_unit_interval_raises(canon_problem, regions, p0):
    policy = MarkovPolicy.from_dict(json.loads(json.dumps({"regions": regions})))
    config = SimConfig(delta=0.01, horizon=400, n_paths=100, seed=0, initial_belief=p0)
    with pytest.raises(OutOfRange):
        simulate(canon_problem, policy, config)


# --- determinism --------------------------------------------------------------

def test_same_seed_bit_identical(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=400, n_paths=5000, seed=11, initial_belief=0.4)
    a = simulate(canon_problem, canon_solution.policy, config)
    b = simulate(canon_problem, canon_solution.policy, config)
    assert a.mean_discounted_payoff == b.mean_discounted_payoff
    assert a.std_error == b.std_error
    assert a.calibration == b.calibration


def test_thread_count_does_not_change_results(canon_problem, canon_solution, monkeypatch):
    # Small chunks so the 9000 paths span three chunks for the threads to share.
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    config = SimConfig(delta=0.01, horizon=300, n_paths=9000, seed=7, initial_belief=0.4)
    monkeypatch.setenv("PERSUADE_THREADS", "1")
    serial = simulate(canon_problem, canon_solution.policy, config)
    monkeypatch.setenv("PERSUADE_THREADS", "3")
    threaded = simulate(canon_problem, canon_solution.policy, config)
    assert serial.mean_discounted_payoff == threaded.mean_discounted_payoff
    assert serial.std_error == threaded.std_error
    assert serial.calibration == threaded.calibration


@pytest.mark.parametrize("raw", ["two", "", "0", "-3"])
def test_unusable_thread_setting_runs_one_thread(monkeypatch, raw):
    monkeypatch.setenv("PERSUADE_THREADS", raw)
    assert sim._thread_count() == 1


@pytest.mark.parametrize("cpus, threads", [(7, 7), (None, 1)])
def test_thread_count_without_affinity_reads_cpu_count(monkeypatch, cpus, threads):
    monkeypatch.delenv("PERSUADE_THREADS", raising=False)
    monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    assert sim._thread_count() == threads


def test_workers_capped_at_chunk_count(canon_problem, canon_solution, monkeypatch):
    # One chunk needs one worker, so it starts no pool; three chunks get three.
    workers = []

    class RecordingPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            workers.append(processes)
            super().__init__(processes, *args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started for a single chunk")

    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    monkeypatch.setenv("PERSUADE_THREADS", "2")
    config = SimConfig(delta=0.01, horizon=300, n_paths=sim._CHUNK, seed=3, initial_belief=0.4)
    assert math.isfinite(simulate(canon_problem, canon_solution.policy, config).mean_discounted_payoff)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordingPool)
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    monkeypatch.setenv("PERSUADE_THREADS", "8")
    simulate(canon_problem, canon_solution.policy, SimConfig(
        delta=0.01, horizon=300, n_paths=9000, seed=3, initial_belief=0.4))
    assert workers == [3]


def test_without_fork_chunks_run_inline(canon_problem, canon_solution, monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    config = SimConfig(delta=0.01, horizon=300, n_paths=9000, seed=5, initial_belief=0.4)
    monkeypatch.setenv("PERSUADE_THREADS", "1")
    serial = simulate(canon_problem, canon_solution.policy, config)

    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started without fork")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    monkeypatch.setenv("PERSUADE_THREADS", "3")
    inline = simulate(canon_problem, canon_solution.policy, config)
    assert inline.mean_discounted_payoff == serial.mean_discounted_payoff
    assert inline.calibration == serial.calibration


def test_no_worker_outlives_the_call(canon_problem, canon_solution, monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    monkeypatch.setenv("PERSUADE_THREADS", "3")
    simulate(canon_problem, canon_solution.policy, SimConfig(
        delta=0.01, horizon=300, n_paths=9000, seed=3, initial_belief=0.4))
    assert multiprocessing.active_children() == []


def test_worker_error_reaches_the_caller(canon_problem, canon_solution, monkeypatch):
    # The workers are forked after the patch, so they run the broken step.
    def broken_events(*args):
        raise SimulationError(f"chunk failed in process {os.getpid()}")

    monkeypatch.setattr(sim, "_events", broken_events)
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    monkeypatch.setenv("PERSUADE_THREADS", "2")
    config = SimConfig(delta=0.01, horizon=300, n_paths=9000, seed=3, initial_belief=0.4)
    # A hang fails the run after a minute instead of stalling it.
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(SimulationError, match="chunk failed in process") as info:
            simulate(canon_problem, canon_solution.policy, config)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


def test_policies_share_state_paths(canon_problem, canon_solution, monkeypatch):
    # Common random numbers: the state draws do not depend on the policy.
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    config = SimConfig(delta=0.01, horizon=300, n_paths=9000, seed=23, initial_belief=0.4)
    runs = [simulate(canon_problem, policy, config)
            for policy in (canon_solution.policy, myopic_policy(canon_problem),
                           slide_only_policy(canon_problem))]
    ones = [sum(b.state_one for b in res.calibration) for res in runs]
    assert ones == [ones[0]] * 3
    # Silence visits other beliefs than sigma_star, yet the states agree.
    assert runs[2].calibration != runs[0].calibration


def test_long_table_tallies(canon_problem):
    # Silent drift from 0.3 for 20,000 periods: a chain of about 20k codes.
    config = SimConfig(delta=0.001, horizon=20_000, n_paths=100, seed=4, initial_belief=0.3)
    res = simulate(canon_problem, slide_only_policy(canon_problem), config)
    assert sum(b.count for b in res.calibration) == 100 * 20_000
    for b in res.calibration:
        if b.count:
            assert b.lo - 1e-12 <= b.predicted <= b.hi + 1e-12


def test_different_seeds_differ(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=300, n_paths=500, seed=0, initial_belief=0.4)
    other = SimConfig(delta=0.01, horizon=300, n_paths=500, seed=1, initial_belief=0.4)
    a = simulate(canon_problem, canon_solution.policy, config)
    b = simulate(canon_problem, canon_solution.policy, other)
    assert a.mean_discounted_payoff != b.mean_discounted_payoff


# --- statistical checks -------------------------------------------------------

def test_state_frequency_matches_stationary_belief(canon_problem):
    # Holding the belief at p* = 0.5, the state itself is a symmetric chain
    # started from its stationary law, so the long-run state-1 share is 0.5.
    config = SimConfig(delta=0.01, horizon=300, n_paths=4000, seed=5, initial_belief=0.5)
    res = simulate(canon_problem, slide_only_policy(canon_problem), config)
    total = sum(b.count for b in res.calibration)
    ones = sum(b.state_one for b in res.calibration)
    beliefs = sum(b.belief_sum for b in res.calibration)
    assert total == 4000 * 300
    assert beliefs / total == pytest.approx(0.5, abs=1e-12)
    # Paths are independent; a per-path time average has SD at most 0.5.
    assert abs(ones / total - 0.5) <= 3.0 * 0.5 / math.sqrt(4000)


@pytest.mark.parametrize("lambda0,lambda1", [(3.0, 1.0), (0.2, 5.0)])
def test_state_frequency_on_asymmetric_rates(lambda0, lambda1):
    # Canon's flip probabilities a and 1 - a - b are equal, so a swap of the
    # two would go unseen there; here it would pull the share to 1 - p*.
    problem = parse_problem(dict(CANON_RAW, lambda0=lambda0, lambda1=lambda1))
    p_star = problem.stationary_belief
    config = SimConfig(delta=0.01, horizon=400, n_paths=4000, seed=29, initial_belief=p_star)
    res = simulate(problem, slide_only_policy(problem), config)
    total = sum(b.count for b in res.calibration)
    ones = sum(b.state_one for b in res.calibration)
    assert total == 4000 * 400
    # A per-path time average of a stationary 0/1 chain has variance at most p*(1 - p*).
    assert abs(ones / total - p_star) <= 3.0 * math.sqrt(p_star * (1.0 - p_star) / 4000)


@pytest.mark.parametrize("rate", [1e-300, 1e-12])
def test_vanishing_rates_never_flip(rate):
    # At 1e-300 both flip probabilities round to 0; at 1e-12 every holding
    # time exceeds the horizon and is capped before it is added.
    problem = parse_problem(dict(CANON_RAW, lambda0=rate, lambda1=rate))
    config = SimConfig(delta=0.01, horizon=400, n_paths=1000, seed=3, initial_belief=0.5)
    res = simulate(problem, slide_only_policy(problem), config)
    ones = sum(b.state_one for b in res.calibration)
    # Every path spends all or none of its periods in state 1.
    assert ones % 400 == 0 and 0 < ones < 1000 * 400
    single = simulate(problem, slide_only_policy(problem), replace(config, n_paths=1))
    assert sum(b.state_one for b in single.calibration) in (0, 400)


def test_calibration_bins_match_beliefs(canon_problem, canon_solution):
    # From 0.3 the optimal policy visits the posterior atoms 0.2, 0.4, 0.6,
    # so three separate bins accumulate enough mass to test.
    config = SimConfig(delta=0.01, horizon=400, n_paths=4000, seed=9, initial_belief=0.3)
    res = simulate(canon_problem, canon_solution.policy, config)
    checked = 0
    for b in res.calibration:
        if b.count < 1000:
            continue
        checked += 1
        assert abs(b.frequency - b.center) <= 3.0 * b.std_error + b.half_width
    assert checked >= 3


def test_calibration_counts_are_consistent(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=301, n_paths=1000, seed=2, initial_belief=0.6)
    res = simulate(canon_problem, canon_solution.policy, config)
    for b in res.calibration:
        assert 0 <= b.state_one <= b.count
        if b.count:
            assert b.lo - 1e-12 <= b.predicted <= b.hi + 1e-12


def test_empty_calibration_bin_is_nan():
    empty = sim.CalibrationBin(lo=0.0, hi=0.1, count=0, state_one=0, belief_sum=0.0)
    assert math.isnan(empty.frequency)
    assert math.isnan(empty.predicted)
    assert math.isnan(empty.std_error)


# --- policy comparison --------------------------------------------------------

def test_compare_policies_nothing_beats_the_solution(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=400, n_paths=4000, seed=13, initial_belief=0.5)
    rows = compare_policies(
        canon_problem, canon_solution,
        {"sigma_star": canon_solution.policy,
         "slide_only": slide_only_policy(canon_problem)},
        beliefs=[0.3, 0.5], config=config,
    )
    assert len(rows) == 4
    assert {row["policy"] for row in rows} == {"sigma_star", "slide_only"}
    for row in rows:
        assert not row["beats_value"], row
    # The silent policy is clearly suboptimal away from the stationary belief.
    slide_at_03 = next(r for r in rows
                       if r["policy"] == "slide_only" and r["initial_belief"] == 0.3)
    shortfall = slide_at_03["solver_value"] - slide_at_03["mean"]
    assert shortfall > 3.0 * slide_at_03["std_error"] + 0.01


def test_compare_policies_optimal_within_noise(canon_problem, canon_solution):
    config = SimConfig(delta=0.005, horizon=900, n_paths=4000, seed=17, initial_belief=0.5)
    rows = compare_policies(canon_problem, canon_solution,
                            {"sigma_star": canon_solution.policy},
                            beliefs=[0.5], config=config)
    (row,) = rows
    assert abs(row["excess"]) <= 3.0 * row["std_error"] + 0.01


def test_compare_policies_empty_input(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=400, n_paths=10, seed=0, initial_belief=0.5)
    assert compare_policies(canon_problem, canon_solution, {}, [0.5], config) == []


# --- cross-checks against the solved value ------------------------------------

def test_simulated_optimal_value_near_solver(canon_problem, canon_solution):
    config = SimConfig(delta=0.005, horizon=900, n_paths=8000, seed=41, initial_belief=0.3)
    res = simulate(canon_problem, canon_solution.policy, config)
    target = float(canon_solution.value.value(0.3))
    budget = 3.0 * res.std_error + res.tail_bound + 0.01
    assert abs(res.mean_discounted_payoff - target) <= budget


def test_pinned_instance_simulates(pinned_problem):
    sol = solve(pinned_problem)
    config = SimConfig(delta=0.01, horizon=301, n_paths=2000, seed=8, initial_belief=0.5)
    res = simulate(pinned_problem, sol.policy, config)
    budget = 3.0 * res.std_error + res.tail_bound + 0.01
    assert abs(res.mean_discounted_payoff - 0.7) <= budget
