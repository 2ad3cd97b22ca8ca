"""Discrete DP oracle: grids, value iteration, policy evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from persuade.errors import NoConvergence, OracleError, OutOfRange
from persuade.oracle import (
    _upper_hull,
    contact_gap,
    dp_split_mask,
    evaluate_policy_discrete,
    full_disclosure_policy,
    make_grid,
    myopic_policy,
    slide_only_policy,
    value_iteration,
)


# --- grids --------------------------------------------------------------------

def test_grid_contains_cuts_and_extras(canon_problem):
    grid = make_grid(canon_problem, 1e-2, extra=(0.123,))
    pts = grid.points
    assert pts[0] == 0.0 and pts[-1] == 1.0
    for c in canon_problem.payoff.cuts:
        assert np.min(np.abs(pts - c)) == 0.0
    assert np.min(np.abs(pts - 0.123)) == 0.0
    # A sample just left of each interior cut pins the step's left limit.
    for c in canon_problem.payoff.cuts[1:-1]:
        assert np.min(np.abs(pts - (c - 1e-12))) == 0.0
    assert np.all(np.diff(pts) > 0)


def test_grid_spacing_honors_gap(canon_problem):
    grid = make_grid(canon_problem, 1e-3)
    # Ignoring the paired left samples, neighbouring nodes stay within the gap.
    spacing = np.diff(grid.points)
    assert np.max(spacing) <= 1e-3 + 1e-12


def test_grid_read_only(canon_problem):
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(ValueError):
        grid.points[0] = 0.5


def test_grid_too_coarse(canon_problem):
    with pytest.raises(OracleError, match="has only 2 grid points"):
        make_grid(canon_problem, 0.5)


# --- upper hull ---------------------------------------------------------------

def test_upper_hull_dominates_and_is_concave():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xs = np.unique(rng.uniform(0.0, 1.0, size=40))
        xs[0], xs[-1] = 0.0, 1.0
        ys = rng.uniform(0.0, 1.0, size=xs.size)
        hx, hy = _upper_hull(xs, ys)
        on_nodes = np.interp(xs, hx, hy)
        assert np.all(on_nodes >= ys - 1e-12)
        slopes = np.diff(hy) / np.diff(hx)
        assert np.all(np.diff(slopes) <= 1e-9)
        assert hx[0] == 0.0 and hx[-1] == 1.0


def test_upper_hull_keeps_concave_input():
    xs = np.linspace(0.0, 1.0, 21)
    ys = 1.0 - (xs - 0.4) ** 2
    hx, hy = _upper_hull(xs, ys)
    np.testing.assert_allclose(np.interp(xs, hx, hy), ys, atol=1e-12)


# --- value iteration ----------------------------------------------------------

def test_flat_problem_converges_immediately(flat_problem):
    grid = make_grid(flat_problem, 1e-2)
    res = value_iteration(flat_problem, 0.05, grid)
    assert res.iterations == 1
    np.testing.assert_array_equal(res.values, 0.6)


def test_value_iteration_matches_solver(canon_problem, canon_solution):
    grid = make_grid(canon_problem, 2e-3)
    res = value_iteration(canon_problem, 0.01, grid, tol=1e-8)
    exact = canon_solution.value.value(grid.points)
    sup = float(np.max(np.abs(res.values - exact)))
    assert sup <= 0.02          # dominated by the O(delta) discretization bias


def test_value_iteration_contraction_ratio(canon_problem):
    grid = make_grid(canon_problem, 5e-3)
    delta = 0.05
    res = value_iteration(canon_problem, delta, grid, tol=1e-8)
    x = math.exp(-delta)
    changes = res.change_history
    # Far above float noise the change sequence contracts at rate x.  Near
    # 1e-7 the hull/interp rounding (~1e-16 absolute) already shows up in the
    # ratio at the 1e-9 level, so stay a decade above it.
    big = changes > 1e-6
    ratios = changes[1:][big[1:] & big[:-1]] / changes[:-1][big[1:] & big[:-1]]
    assert ratios.size > 20
    assert np.max(ratios) <= x + 1e-9


def test_value_iteration_stays_in_level_range(canon_problem):
    grid = make_grid(canon_problem, 5e-3)
    res = value_iteration(canon_problem, 0.05, grid)
    assert np.min(res.values) >= 0.0
    assert np.max(res.values) <= 1.0 + 1e-12


def test_value_iteration_result_interpolates(canon_problem):
    grid = make_grid(canon_problem, 5e-3)
    res = value_iteration(canon_problem, 0.05, grid)
    i = 137
    assert res.value(float(grid.points[i])) == res.values[i]


def test_value_iteration_rejects_bad_delta(canon_problem):
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(OutOfRange):
        value_iteration(canon_problem, 0.0, grid)


def test_no_convergence_carries_partial_result(canon_problem):
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(NoConvergence) as exc:
        value_iteration(canon_problem, 0.05, grid, tol=1e-10, max_iter=3)
    assert exc.value.result is not None
    assert exc.value.result.iterations == 3
    assert exc.value.result.change_history.size == 3


# --- DP action detection ------------------------------------------------------

def test_split_mask_matches_known_regions(canon_problem):
    grid = make_grid(canon_problem, 1e-3)
    res = value_iteration(canon_problem, 0.01, grid, tol=1e-8)
    gap = contact_gap(canon_problem, res)
    mask = dp_split_mask(canon_problem, res)
    pts = grid.points
    assert np.all(gap >= -1e-12)
    # Splits below and around p*, plus between the pasting cutoff and 0.8.
    assert mask[np.argmin(np.abs(pts - 0.3))]
    assert mask[np.argmin(np.abs(pts - 0.5))]
    assert mask[np.argmin(np.abs(pts - 0.7))]
    # Holds on the first arc and everywhere above 0.8.
    assert not mask[np.argmin(np.abs(pts - 0.63))]
    assert not np.any(mask[pts >= 0.81])


# --- policy evaluation --------------------------------------------------------

def test_policy_value_never_exceeds_dp_value(canon_problem):
    grid = make_grid(canon_problem, 2e-3)
    delta = 0.02
    dp = value_iteration(canon_problem, delta, grid, tol=1e-10)
    for policy in (myopic_policy(canon_problem), slide_only_policy(canon_problem),
                   full_disclosure_policy(canon_problem)):
        w = evaluate_policy_discrete(canon_problem, policy, delta, grid)
        assert float(np.max(w.values - dp.values)) <= 1e-8


def test_policy_evaluation_residual_is_tiny(canon_problem):
    grid = make_grid(canon_problem, 5e-3)
    res = evaluate_policy_discrete(canon_problem, myopic_policy(canon_problem), 0.02, grid)
    assert res.residual <= 1e-8
    assert res.iterations == 1


def test_slide_only_value_matches_closed_form(canon_problem):
    # Sliding silently from 0.3 crosses 0.4 at t = ln(2)/2 and then pays 0.8
    # forever: V = 0.5 (1 - 2^{-1/2}) + 0.8 * 2^{-1/2}.  The discrete value
    # differs only by the in-period rounding of the crossing time.
    target = 0.5 * (1.0 - 2.0 ** -0.5) + 0.8 * 2.0 ** -0.5
    grid = make_grid(canon_problem, 1e-3)
    res = evaluate_policy_discrete(canon_problem, slide_only_policy(canon_problem),
                                   0.005, grid)
    got = res.value(0.3)
    assert got == pytest.approx(target, abs=3e-3)


def test_flat_policy_value_exact(flat_problem):
    grid = make_grid(flat_problem, 1e-2)
    res = evaluate_policy_discrete(flat_problem, slide_only_policy(flat_problem),
                                   0.05, grid)
    np.testing.assert_allclose(res.values, 0.6, atol=1e-12)


def test_full_disclosure_value_closed_form(canon_problem):
    # Revealing every period keeps posteriors at {0, 1} after the first step;
    # from belief 1 the flow is 1 until the state flips, from 0 it is 0 until
    # it flips back.  At p = p* the discrete value solves a 3-state linear
    # system; just pin the monotone envelope instead: value at 1 must exceed
    # value at 0 by a margin and both stay inside [0, 1].
    grid = make_grid(canon_problem, 2e-3)
    res = evaluate_policy_discrete(canon_problem, full_disclosure_policy(canon_problem),
                                   0.01, grid)
    v0, v1 = res.value(0.0), res.value(1.0)
    assert 0.0 <= v0 < v1 <= 1.0
    assert v1 - v0 > 0.2


# --- reference policies -------------------------------------------------------

def test_myopic_policy_structure(canon_problem):
    pol = myopic_policy(canon_problem)
    actions = [r.action for r in pol.regions]
    assert actions == ["split", "split", "split", "split", "slide"]
    assert pol.regions[0].low_target == 0.0
    assert pol.regions[3].high_target == 0.8


def test_myopic_policy_flat_slides(flat_problem):
    pol = myopic_policy(flat_problem)
    assert [r.action for r in pol.regions] == ["slide"]


def test_reference_policies_cover_unit_interval(canon_problem):
    for pol in (slide_only_policy(canon_problem), full_disclosure_policy(canon_problem)):
        assert pol.regions[0].lo == 0.0
        assert pol.regions[-1].hi == 1.0
