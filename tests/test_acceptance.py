"""Acceptance suite: one test per shipping criterion, A1 through A10.

Each test prints a single `A<n> PASS/FAIL` line with the measured quantity
before asserting, so a bare `pytest -v` (or `-rA`) gives a one-line verdict
per criterion.  Expensive artifacts (the fine-grid value iteration, the
random-instance batch) are built once per module and shared.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from persuade.dynamics import discounted_time_split
from persuade.model import parse_problem
from persuade.oracle import (
    evaluate_policy_discrete,
    make_grid,
    myopic_policy,
    value_iteration,
)
from persuade.sim import SimConfig, simulate
from persuade.solver import solve, verify_solution

from conftest import CANON_RAW, SINGLE_DISC_RAW, dp_split_mask, random_instance, slide_reach_time

N_RANDOM = 100
A8_SEED = 2024


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fine_dp(canon_problem, canon_solution):
    """Value iteration on CANON at the acceptance resolution (shared A2-A4)."""
    grid = make_grid(canon_problem, 2.5e-4, extra=canon_solution.cutoffs)
    start = time.perf_counter()
    result = value_iteration(canon_problem, 1e-3, grid, tol=1e-6)
    return grid, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_batch():
    """The shared 100-instance batch with solutions (A6 and A7)."""
    rng = np.random.default_rng(2024)
    batch = []
    for _ in range(N_RANDOM):
        prob = random_instance(rng)
        batch.append((prob, solve(prob)))
    return batch


def test_a1_slide_never_beats_split_reach_time():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = np.inf
    for _ in range(10_000):
        lambda0 = rng.uniform(0.1, 5.0)
        lambda1 = rng.uniform(0.1, 5.0)
        r = rng.uniform(0.05, 3.0)
        prob = parse_problem({"lambda0": lambda0, "lambda1": lambda1, "r": r,
                              "cuts": [0.0, 1.0], "levels": [0.5]})
        p_star = prob.stationary_belief
        p_from = rng.uniform(0.0, 1.0)
        while abs(p_from - p_star) < 1e-9:
            p_from = rng.uniform(0.0, 1.0)
        p_to = p_from + rng.uniform(1e-9, 1.0 - 1e-9) * (p_star - p_from)
        y_slide = slide_reach_time(prob, p_from, p_to)
        y_split = discounted_time_split(prob, p_from, p_to)
        worst = min(worst, y_slide - y_split)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 1.0
    _report("A1", ok, f"min(Y_slide - Y_split) = {worst:.3e} over 10^4 tuples, "
                      f"{elapsed:.2f}s")


def test_a2_solver_matches_fine_dp(canon_solution, fine_dp):
    grid, result, elapsed = fine_dp
    exact = canon_solution.value.value(grid.points)
    sup = float(np.max(np.abs(result.values - exact)))
    spots = [(0.5, 0.875), (0.2, 0.7625), (0.4, 0.85)]
    spot_err = max(abs(float(canon_solution.value.value(p)) - v) for p, v in spots)
    ok = sup <= 0.01 and spot_err <= 1e-12 and elapsed < 300.0
    _report("A2", ok, f"sup|v_dp - v_solver| = {sup:.3e} (budget 0.01), "
                      f"spot error {spot_err:.1e}, dp in {elapsed:.1f}s")


def test_a3_cutoff_location_and_dp_action_switch(canon_problem, canon_solution, fine_dp):
    grid, result, _ = fine_dp
    q = canon_solution.cutoffs[0]
    mask = dp_split_mask(canon_problem, result)
    pts = grid.points
    in_arc = (pts >= 0.6) & (pts < 0.8)
    split_pts = pts[in_arc & mask]
    onset = float(split_pts.min()) if split_pts.size else np.nan
    top = pts >= 0.8
    top_splits = int(np.count_nonzero(mask[top]))
    ok = (0.6 < q < 0.8 and abs(q - 0.662) <= 5e-4
          and abs(onset - q) <= 0.01 and top_splits == 0)
    _report("A3", ok, f"q_1 = {q:.6f}, dp split onset {onset:.6f} "
                      f"(gap {abs(onset - q):.2e}), top-interval split points {top_splits}")


def test_a4_myopic_suboptimal_above_center_only(canon_problem, canon_solution, fine_dp):
    grid, _, _ = fine_dp
    w = evaluate_policy_discrete(canon_problem, myopic_policy(canon_problem), 1e-3, grid)
    pts = grid.points
    v = canon_solution.value.value(pts)
    gap_062 = float(canon_solution.value.value(0.62) - w.value(0.62))
    gap_065 = float(canon_solution.value.value(0.65) - w.value(0.65))
    below = pts <= 0.6
    sup_below = float(np.max(np.abs(w.values[below] - v[below])))
    ok = gap_062 >= 1e-3 and gap_065 >= 1e-3 and sup_below <= 0.01
    _report("A4", ok, f"myopic shortfall {gap_062:.2e} at 0.62, {gap_065:.2e} at 0.65 "
                      f"(floor 1e-3); sup gap {sup_below:.2e} on [0, 0.6] (budget 0.01)")


def test_a5_single_discontinuity_myopic_optimal(single_disc_problem):
    sol = solve(single_disc_problem)
    grid = make_grid(single_disc_problem, 2.5e-4, extra=sol.cutoffs)
    dp = value_iteration(single_disc_problem, 1e-3, grid, tol=1e-6)
    w = evaluate_policy_discrete(single_disc_problem, myopic_policy(single_disc_problem),
                                 1e-3, grid)
    sup = float(np.max(np.abs(w.values - dp.values)))
    ok = sol.cutoffs == () and sup <= 0.005
    _report("A5", ok, f"cutoffs = {sol.cutoffs!r}, sup|w_myopic - v_dp| = {sup:.3e} "
                      f"(budget 0.005)")


def test_a6_characterization_holds_everywhere(canon_problem, canon_solution, random_batch):
    start = time.perf_counter()
    report = verify_solution(canon_problem, canon_solution)
    total_violations = len(report.violations)
    worst_instance = None
    for prob, sol in random_batch:
        rep = verify_solution(prob, sol, n_points=2000)
        if rep.violations:
            total_violations += len(rep.violations)
            worst_instance = prob.payoff.cuts
    elapsed = time.perf_counter() - start
    ok = total_violations == 0 and elapsed < 60.0
    _report("A6", ok, f"{total_violations} violations across canon + {N_RANDOM} random "
                      f"instances in {elapsed:.1f}s"
                      + (f" (first bad: cuts {worst_instance})" if worst_instance else ""))


def test_a7_smooth_pasting_two_ways(random_batch):
    h = 1e-6
    worst_eval, worst_fd, n_cutoffs = 0.0, 0.0, 0
    for _, sol in random_batch:
        for q in sol.cutoffs:
            n_cutoffs += 1
            left = float(sol.value.derivative(q, "left"))
            right = float(sol.value.derivative(q, "right"))
            worst_eval = max(worst_eval, abs(left - right))
            fd_left = (float(sol.value.value(q)) - float(sol.value.value(q - h))) / h
            fd_right = (float(sol.value.value(q + h)) - float(sol.value.value(q))) / h
            worst_fd = max(worst_fd, abs(fd_left - fd_right))
    ok = worst_eval <= 1e-8 and worst_fd <= 1e-4 and n_cutoffs > 0
    _report("A7", ok, f"max derivative jump {worst_eval:.2e} by evaluation (tol 1e-8), "
                      f"{worst_fd:.2e} by one-sided differences (tol 1e-4) "
                      f"over {n_cutoffs} cutoffs")


def test_a8_simulation_agrees_with_solver(canon_problem, canon_solution):
    start = time.perf_counter()
    failures = []
    worst_margin = np.inf
    for p0 in (0.1, 0.5, 0.62, 0.9):
        config = SimConfig(delta=0.01, horizon=3000, n_paths=100_000, seed=A8_SEED,
                           initial_belief=p0)
        res = simulate(canon_problem, canon_solution.policy, config)
        target = float(canon_solution.value.value(p0))
        err = abs(res.mean_discounted_payoff - target)
        budget = 3.0 * res.std_error + 0.01
        worst_margin = min(worst_margin, budget - err)
        if err > budget:
            failures.append(f"mean at {p0}: err {err:.4f} > {budget:.4f}")
        for b in res.calibration:
            if b.count >= 1000:
                gap = abs(b.frequency - b.center)
                bound = 3.0 * b.std_error + b.half_width
                if gap > bound:
                    failures.append(f"bin [{b.lo:.3f},{b.hi:.3f}) at p0={p0}: "
                                    f"{gap:.4f} > {bound:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report("A8", ok, f"4 starting beliefs, worst mean margin {worst_margin:.4f}, "
                      f"calibration clean, {elapsed:.0f}s"
                      + (f"; failures: {failures}" if failures else ""))


def test_a9_errors_shrink_with_period_length(canon_problem, canon_solution):
    grid = make_grid(canon_problem, 1e-3, extra=canon_solution.cutoffs)
    v = canon_solution.value.value(grid.points)
    vi_errors, pol_errors = [], []
    for delta in (0.1, 0.03, 0.01, 0.003):
        dp = value_iteration(canon_problem, delta, grid, tol=1e-6)
        w = evaluate_policy_discrete(canon_problem, canon_solution.policy, delta, grid)
        vi_errors.append(float(np.max(np.abs(dp.values - v))))
        pol_errors.append(float(np.max(np.abs(w.values - v))))
    ok = all(b <= a * 1.1 for a, b in zip(vi_errors, vi_errors[1:])) and \
        all(b <= a * 1.1 for a, b in zip(pol_errors, pol_errors[1:]))
    _report("A9", ok, f"vi errors {['%.4f' % e for e in vi_errors]}, "
                      f"policy errors {['%.4f' % e for e in pol_errors]} "
                      f"over deltas [0.1, 0.03, 0.01, 0.003]")


def test_a10_scale_invariances(canon_solution):
    ps = np.linspace(0.0, 1.0, 2001)
    base = canon_solution.value.value(ps)

    scaled_raw = dict(CANON_RAW)
    a, b = 0.6, 0.25
    scaled_raw["levels"] = [a * h + b for h in CANON_RAW["levels"]]
    affine = solve(parse_problem(scaled_raw))
    affine_err = float(np.max(np.abs(affine.value.value(ps) - (a * base + b))))
    cutoff_err = float(max(abs(x - y) for x, y
                           in zip(affine.cutoffs, canon_solution.cutoffs)))

    rate_raw = dict(CANON_RAW)
    for key in ("lambda0", "lambda1", "r"):
        rate_raw[key] = CANON_RAW[key] * 3.7
    rescaled = solve(parse_problem(rate_raw))
    rate_err = float(np.max(np.abs(rescaled.value.value(ps) - base)))
    rate_cutoff_err = float(max(abs(x - y) for x, y
                                in zip(rescaled.cutoffs, canon_solution.cutoffs)))

    ok = affine_err <= 1e-9 and cutoff_err <= 1e-9 and \
        rate_err <= 1e-12 and rate_cutoff_err <= 1e-12
    _report("A10", ok, f"affine value error {affine_err:.2e}, cutoff shift {cutoff_err:.2e} "
                       f"(tol 1e-9); rate-scale value error {rate_err:.2e}, "
                       f"cutoff shift {rate_cutoff_err:.2e} (tol 1e-12)")
