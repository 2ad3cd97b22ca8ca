"""Monte Carlo simulator: exactness, determinism, calibration."""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from persuade import sim
from persuade.dynamics import drift_map
from persuade.errors import OutOfRange, SimulationError
from persuade.model import parse_problem
from persuade.oracle import myopic_policy, slide_only_policy
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
    {"seed": -1},
])
def test_config_validation(kwargs):
    base = {"delta": 0.01, "horizon": 100, "n_paths": 10, "seed": 0,
            "initial_belief": 0.5}
    base.update(kwargs)
    with pytest.raises(OutOfRange):
        SimConfig(**base)


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


# --- table-driven step against a per-path float loop ----------------------------

def _reference_states(problem, config, state_rng):
    """Hidden states per (period, path), post-flip, from geometric holding times.

    Each path draws its initial state, then the period of its first flip
    (one uniform per holding time, by inversion).  Within each block of
    sim._FLIP_BLOCK periods, rounds of holding times are drawn, in path
    order, for every path whose next flip still falls in the block.  A
    path's state is its initial state XOR the parity of its flips so far.
    """
    n_paths, horizon, block = config.n_paths, config.horizon, sim._FLIP_BLOCK
    drift0, drift_slope = drift_map(problem.rates, config.delta)
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
    return initial ^ np.logical_xor.accumulate(flips, axis=0)


def _float_loop_reference(problem, policy, config):
    """One chunk simulated with a float belief per path, region by region.

    Returns per-path discounted totals and the calibration tallies, for an
    exact comparison with simulate().  States come from the chunk's state
    generator, messages from its message generator, one uniform per path and
    period.  Each bin's belief sum is summed exactly over (belief, visit
    count) pairs and rounded once.
    """
    n_paths, horizon = config.n_paths, config.horizon
    seed_seq = np.random.SeedSequence(config.seed).spawn(1)[0]
    state_rng, message_rng = (np.random.Generator(np.random.PCG64(child))
                              for child in seed_seq.spawn(2))
    states = _reference_states(problem, config, state_rng)
    drift0, drift_slope = drift_map(problem.rates, config.delta)
    x = math.exp(-problem.discounting.r * config.delta)
    weights = (1.0 - x) * x ** np.arange(horizon)
    n_bins = 21

    belief = np.full(n_paths, float(config.initial_belief))
    totals = np.zeros(n_paths)
    counts = np.zeros(n_bins, dtype=np.int64)
    state_one = np.zeros(n_bins, dtype=np.int64)
    visits = Counter()
    for n in range(horizon):
        message_draw = message_rng.random(n_paths)
        state = states[n]
        belief = drift0 + drift_slope * belief
        region_idx = policy.region_index(belief)
        for k, region in enumerate(policy.regions):
            mask = region_idx == k
            if region.action != "split" or not mask.any():
                continue
            lo, hi = region.low_target, region.high_target
            q = belief[mask]
            beta1 = hi * (q - lo) / (q * (hi - lo))
            beta0 = (1.0 - hi) * (q - lo) / ((1.0 - q) * (hi - lo))
            high = message_draw[mask] < np.where(state[mask], beta1, beta0)
            belief[mask] = np.where(high, hi, lo)
        totals += weights[n] * problem.payoff.value(belief)
        bins = np.clip((belief * n_bins).astype(np.int64), 0, n_bins - 1)
        counts += np.bincount(bins, minlength=n_bins)
        state_one += np.bincount(bins[state], minlength=n_bins)
        visits.update(dict(zip(*np.unique(belief, return_counts=True))))
    exact = [Fraction(0)] * n_bins
    for b, c in visits.items():
        exact[min(int(b * n_bins), n_bins - 1)] += Fraction(b) * int(c)
    belief_sum = np.array([float(total) for total in exact])
    return totals, counts, state_one, belief_sum


def _assert_matches_float_loop(problem, policy, config, max_tail=sim.DEFAULT_MAX_TAIL):
    res = simulate(problem, policy, config, max_tail=max_tail)
    totals, counts, state_one, belief_sum = _float_loop_reference(problem, policy, config)
    assert res.mean_discounted_payoff == float(np.sum(totals)) / config.n_paths
    assert [b.count for b in res.calibration] == counts.tolist()
    assert [b.state_one for b in res.calibration] == state_one.tolist()
    assert [b.belief_sum for b in res.calibration] == belief_sum.tolist()


@pytest.mark.parametrize("case,p0", [
    ("sigma_star", 0.1), ("sigma_star", 0.5), ("sigma_star", 0.62),
    ("sigma_star", 0.9), ("myopic", 0.7), ("slide_only", 0.3), ("pinned", 0.55),
])
def test_table_step_matches_float_loop(case, p0, canon_problem, canon_solution,
                                       pinned_problem):
    problem = pinned_problem if case == "pinned" else canon_problem
    policy = {
        "sigma_star": canon_solution.policy,
        "myopic": myopic_policy(canon_problem),
        "slide_only": slide_only_policy(canon_problem),
        "pinned": solve(pinned_problem).policy if case == "pinned" else None,
    }[case]
    config = SimConfig(delta=0.01, horizon=300, n_paths=2000, seed=19, initial_belief=p0)
    _assert_matches_float_loop(problem, policy, config)


@pytest.mark.parametrize("horizon,n_paths", [
    (5, 300), (sim._FLIP_BLOCK, 300), (20 * sim._FLIP_BLOCK, 700), (333, 1), (2, 1),
])
def test_table_step_matches_float_loop_at_block_edges(horizon, n_paths, canon_problem,
                                                      canon_solution):
    # Horizons shorter than, equal to, a multiple of and off a scheduling
    # block, and single paths; the fast chain flips several times per block.
    config = SimConfig(delta=0.01, horizon=horizon, n_paths=n_paths, seed=31,
                       initial_belief=0.45)
    _assert_matches_float_loop(canon_problem, canon_solution.policy, config, max_tail=math.inf)
    fast = parse_problem(dict(CANON_RAW, lambda0=30.0, lambda1=20.0))
    _assert_matches_float_loop(fast, myopic_policy(fast), config, max_tail=math.inf)


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
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool started for a single chunk")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("PERSUADE_THREADS", "2")
    config = SimConfig(delta=0.01, horizon=300, n_paths=sim._CHUNK, seed=3, initial_belief=0.4)
    assert math.isfinite(simulate(canon_problem, canon_solution.policy, config).mean_discounted_payoff)

    workers = []

    def recording_pool(max_workers):
        workers.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(sim, "_CHUNK", 4096)
    monkeypatch.setenv("PERSUADE_THREADS", "8")
    simulate(canon_problem, canon_solution.policy, SimConfig(
        delta=0.01, horizon=300, n_paths=9000, seed=3, initial_belief=0.4))
    assert workers == [3]


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
