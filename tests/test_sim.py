"""Monte Carlo simulator: exactness, determinism, calibration."""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from persuade import sim
from persuade.dynamics import drift_map
from persuade.errors import OutOfRange, SimulationError
from persuade.oracle import myopic_policy, slide_only_policy
from persuade.sim import (
    SimConfig,
    compare_policies,
    default_period,
    simulate,
)
from persuade.solver import MarkovPolicy, solve


# --- configuration ------------------------------------------------------------

def test_default_period_scales_with_rates(canon_problem):
    assert default_period(canon_problem) == 0.01 / 3.0


@pytest.mark.parametrize("kwargs", [
    {"delta": 0.0}, {"horizon": 0}, {"n_paths": 0}, {"initial_belief": 1.5},
    {"initial_belief": -0.1},
])
def test_config_validation(kwargs):
    base = {"delta": 0.01, "horizon": 100, "n_paths": 10, "seed": 0,
            "initial_belief": 0.5}
    base.update(kwargs)
    with pytest.raises(OutOfRange):
        SimConfig(**base)


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


def test_tail_bound_formula(canon_problem, canon_solution):
    config = SimConfig(delta=0.01, horizon=400, n_paths=16, seed=0, initial_belief=0.5)
    res = simulate(canon_problem, canon_solution.policy, config)
    assert res.tail_bound == math.exp(-0.01) ** 400 * 1.0


# --- exact cases --------------------------------------------------------------

def test_flat_payoff_mean_is_deterministic(flat_problem):
    config = SimConfig(delta=0.05, horizon=200, n_paths=50, seed=1, initial_belief=0.3)
    res = simulate(flat_problem, slide_only_policy(flat_problem), config)
    x = math.exp(-0.05)
    assert res.mean_discounted_payoff == pytest.approx(0.6 * (1.0 - x ** 200), abs=1e-12)
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


def test_single_path_has_no_std_error(flat_problem):
    config = SimConfig(delta=0.05, horizon=100, n_paths=1, seed=0, initial_belief=0.5)
    res = simulate(flat_problem, slide_only_policy(flat_problem), config)
    assert math.isnan(res.std_error)
    assert math.isfinite(res.mean_discounted_payoff)


# --- table-driven step against a per-path float loop ----------------------------

def _float_loop_reference(problem, policy, config):
    """One chunk simulated with a float belief per path, region by region.

    Returns per-path discounted totals, the calibration tallies and the trace
    of the first path, for an exact comparison with simulate().  Each bin's
    belief sum is summed exactly over (belief, visit count) pairs and rounded
    once.
    """
    n_paths, horizon = config.n_paths, config.horizon
    seed_seq = np.random.SeedSequence(config.seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    drift0, drift_slope = drift_map(problem.rates, config.delta)
    prob_up, prob_down = drift0, 1.0 - drift0 - drift_slope
    x = math.exp(-problem.discounting.r * config.delta)
    weights = (1.0 - x) * x ** np.arange(horizon)
    n_bins = 21

    state = rng.random(n_paths) < config.initial_belief
    belief = np.full(n_paths, float(config.initial_belief))
    totals = np.zeros(n_paths)
    counts = np.zeros(n_bins, dtype=np.int64)
    state_one = np.zeros(n_bins, dtype=np.int64)
    visits = Counter()
    trace = np.empty((horizon, 5))
    for n in range(horizon):
        flip_draw = rng.random(n_paths)
        message_draw = rng.random(n_paths)
        state = state ^ np.where(state, flip_draw < prob_down, flip_draw < prob_up)
        belief = drift0 + drift_slope * belief
        drifted = belief[0]
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
        trace[n] = (n, (n + 1) * config.delta, float(state[0]), drifted, belief[0])
    exact = [Fraction(0)] * n_bins
    for b, c in visits.items():
        exact[min(int(b * n_bins), n_bins - 1)] += Fraction(b) * int(c)
    belief_sum = np.array([float(total) for total in exact])
    return totals, counts, state_one, belief_sum, trace


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
    res = simulate(problem, policy, config, record_trace=True)
    totals, counts, state_one, belief_sum, trace = _float_loop_reference(problem, policy, config)
    assert res.mean_discounted_payoff == float(np.sum(totals)) / config.n_paths
    assert [b.count for b in res.calibration] == counts.tolist()
    assert [b.state_one for b in res.calibration] == state_one.tolist()
    assert [b.belief_sum for b in res.calibration] == belief_sum.tolist()
    np.testing.assert_array_equal(res.trace, trace)


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
    a = simulate(canon_problem, canon_solution.policy, config, record_trace=True)
    b = simulate(canon_problem, canon_solution.policy, config, record_trace=True)
    assert a.mean_discounted_payoff == b.mean_discounted_payoff
    assert a.std_error == b.std_error
    assert a.calibration == b.calibration
    np.testing.assert_array_equal(a.trace, b.trace)


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
    runs = [simulate(canon_problem, policy, config, record_trace=True)
            for policy in (canon_solution.policy, myopic_policy(canon_problem),
                           slide_only_policy(canon_problem))]
    for res in runs[1:]:
        np.testing.assert_array_equal(res.trace[:, 2], runs[0].trace[:, 2])
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


# --- trace --------------------------------------------------------------------

def test_trace_shape_and_columns(canon_problem, canon_solution):
    config = SimConfig(delta=0.02, horizon=160, n_paths=8, seed=21, initial_belief=0.35)
    res = simulate(canon_problem, canon_solution.policy, config, record_trace=True)
    assert res.trace is not None
    assert res.trace.shape == (160, 5)
    np.testing.assert_array_equal(res.trace[:, 0], np.arange(160))
    np.testing.assert_allclose(res.trace[:, 1], 0.02 * np.arange(1, 161), atol=1e-15)
    assert set(np.unique(res.trace[:, 2])) <= {0.0, 1.0}
    assert np.all((res.trace[:, 3] >= 0.0) & (res.trace[:, 3] <= 1.0))
    assert np.all((res.trace[:, 4] >= 0.0) & (res.trace[:, 4] <= 1.0))


def test_trace_absent_by_default(flat_problem):
    config = SimConfig(delta=0.05, horizon=100, n_paths=4, seed=0, initial_belief=0.5)
    res = simulate(flat_problem, slide_only_policy(flat_problem), config)
    assert res.trace is None


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
