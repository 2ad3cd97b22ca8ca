"""Closed-form solver: frozen values, structure, serialization, verification."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from persuade.errors import ProblemValidationError, SolverError
from persuade.model import parse_problem
from persuade.solver import (
    MarkovPolicy,
    PiecewiseValue,
    PolicyRegion,
    Solution,
    ValueSegment,
    _find_cutoff,
    _solve_above_interval,
    solution_from_dict,
    solve,
    verify_solution,
)

from conftest import CANON_RAW, canon_variant, random_instance

# Value of the canon instance at selected beliefs.  Everything up to 0.6 is
# exactly rational (chords of the endpoint recursion and the center line);
# the rest sits on power arcs and was frozen from a verified run.
CANON_VALUES = [
    (0.0, 61.0 / 96.0),
    (0.2, 0.7625),
    (0.3, 0.80625),
    (0.4, 0.85),
    (0.5, 0.875),
    (0.6, 0.9),
    (0.7, 0.9153135839354049),
    (0.8, 0.9274116433730777),
    (1.0, 0.943773300731073),
]

CANON_CUTOFF = 0.6622368591229324


# --- canon instance -----------------------------------------------------------

@pytest.mark.parametrize("p,expected", CANON_VALUES)
def test_canon_frozen_values(canon_solution, p, expected):
    assert float(canon_solution.value.value(p)) == pytest.approx(expected, abs=1e-12)


def test_canon_arc_closed_form(canon_solution):
    # First arc: w(p) = 0.95 - 0.05 sqrt(0.1) (p - 0.5)^{-1/2}, hand-derived
    # from the boundary value w(0.6) = 0.9.
    w_065 = 0.95 - 0.05 * math.sqrt(0.1 / 0.15)
    assert float(canon_solution.value.value(0.65)) == pytest.approx(w_065, abs=1e-12)


def test_canon_cutoff_frozen(canon_solution):
    assert canon_solution.cutoffs == pytest.approx((CANON_CUTOFF,), abs=1e-10)


def test_canon_cutoff_independent_root(canon_solution):
    # Re-derive the pasting cutoff with brentq on a hand-written residual:
    # the tangent line of the arc at q must meet 0.8 with the slope that the
    # balance condition implies for the next level.
    p_star, mu, h1, h2 = 0.5, 0.5, 0.95, 1.0
    k = (0.9 - h1) * (0.6 - p_star) ** mu

    def arc(p):
        return h1 + k * (p - p_star) ** -mu

    def arc_slope(p):
        return -mu * k * (p - p_star) ** (-mu - 1.0)

    def residual(q):
        return arc(q) + arc_slope(q) * (0.8 - q) - h2 + arc_slope(q) * (0.8 - p_star) / mu

    q_ref = brentq(residual, 0.601, 0.799, xtol=1e-14)
    assert abs(q_ref - canon_solution.cutoffs[0]) <= 1e-10


def test_canon_tangent_line_reaches_next_cut(canon_solution):
    # Between the cutoff and 0.8 the value is the tangent line of the arc.
    q = canon_solution.cutoffs[0]
    w_q = float(canon_solution.value.value(q))
    slope = float(canon_solution.value.derivative(q, "left"))
    line_end = w_q + slope * (0.8 - q)
    assert line_end == pytest.approx(float(canon_solution.value.value(0.8)), abs=1e-12)


def test_canon_derivative_smooth_at_bracket_top(canon_solution):
    left = float(canon_solution.value.derivative(0.6, "left"))
    right = float(canon_solution.value.derivative(0.6, "right"))
    assert left == pytest.approx(0.25, abs=1e-12)
    assert right == pytest.approx(0.25, abs=1e-12)


def test_canon_smooth_pasting_at_cutoff(canon_solution):
    q = canon_solution.cutoffs[0]
    left = float(canon_solution.value.derivative(q, "left"))
    right = float(canon_solution.value.derivative(q, "right"))
    assert abs(left - right) <= 1e-8


def test_canon_region_structure(canon_solution):
    q = canon_solution.cutoffs[0]
    got = [(r.lo, r.hi, r.action) for r in canon_solution.policy.regions]
    assert got == [
        (0.0, 0.2, "split"),
        (0.2, 0.4, "split"),
        (0.4, 0.6, "split"),
        (0.6, q, "slide"),
        (q, 0.8, "split"),
        (0.8, 1.0, "slide"),
    ]
    for r in canon_solution.policy.regions:
        if r.action == "split":
            assert (r.low_target, r.high_target) == (r.lo, r.hi)


def test_canon_value_continuous_and_concave(canon_solution):
    assert max((g for _, g in canon_solution.value.junction_gaps()), default=0.0) <= 1e-10
    ps = np.linspace(0.0, 1.0, 4001)
    d = canon_solution.value.derivative(ps, "right")
    assert np.max(np.diff(d)) <= 1e-8
    assert np.min(d) >= -1e-10


def test_canon_value_bounds(canon_problem, canon_solution):
    # The value stays inside the level range and dominates the flow at p*,
    # where the belief can be held forever.  Above p* it sits strictly below
    # the local level (the belief inevitably drifts away).
    ps = np.linspace(0.0, 1.0, 4001)
    vals = canon_solution.value.value(ps)
    assert np.min(vals) >= 0.0 - 1e-12
    assert np.max(vals) <= 1.0 + 1e-12
    assert float(canon_solution.value.value(0.5)) >= 0.8 - 1e-12
    for c, h in [(0.8, 1.0)]:
        assert float(canon_solution.value.value(c)) < h


# --- corner regimes -----------------------------------------------------------

def test_pinned_instance_values(pinned_problem):
    sol = solve(pinned_problem)
    assert sol.cutoffs == ()
    assert float(sol.value.value(0.5)) == 0.7            # pinned endpoint, exact
    assert float(sol.value.value(0.8)) == pytest.approx(0.8, abs=1e-12)
    assert float(sol.value.value(0.0)) == pytest.approx(7.0 / 15.0, abs=1e-12)
    # Top arc by hand: 1 - 0.2 sqrt(0.3/(p - 0.5)).
    assert float(sol.value.value(0.9)) == pytest.approx(1.0 - 0.2 * math.sqrt(0.75), abs=1e-12)
    assert float(sol.value.value(1.0)) == pytest.approx(1.0 - 0.2 * math.sqrt(0.6), abs=1e-12)


def test_pinned_kink_allowed_at_stationary(pinned_problem):
    sol = solve(pinned_problem)
    rep = verify_solution(pinned_problem, sol, n_points=4000)
    assert rep.ok, [dataclasses.astuple(v) for v in rep.violations]
    left = float(sol.value.derivative(0.5, "left"))
    right = float(sol.value.derivative(0.5, "right"))
    assert left > right + 0.1      # genuine kink at the pinned belief


def test_one_interval_above_constant_top(one_above_problem):
    sol = solve(one_above_problem)
    assert sol.cutoffs == ()
    ps = np.linspace(0.3, 1.0, 101)
    np.testing.assert_allclose(sol.value.value(ps), 1.0, atol=1e-12)
    assert float(sol.value.value(0.0)) == pytest.approx(10.0 / 11.0, abs=1e-12)
    assert float(sol.value.value(0.2)) == pytest.approx(32.0 / 33.0, abs=1e-12)


def test_single_discontinuity_no_cutoffs(single_disc_problem):
    sol = solve(single_disc_problem)
    assert sol.cutoffs == ()
    # Center line on [0, 0.7] is 10(1+p)/21 by hand.
    for p in (0.0, 0.35, 0.7):
        assert float(sol.value.value(p)) == pytest.approx(10.0 * (1.0 + p) / 21.0, abs=1e-12)
    assert float(sol.value.value(1.0)) == pytest.approx(1.0 - (4.0 / 21.0) * math.sqrt(0.4),
                                                        abs=1e-12)
    actions = [r.action for r in sol.policy.regions]
    assert actions == ["split", "slide"]


def test_flat_payoff_constant_value(flat_problem):
    sol = solve(flat_problem)
    assert sol.cutoffs == ()
    ps = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(sol.value.value(ps), 0.6)
    assert [r.action for r in sol.policy.regions] == ["slide"]
    rep = verify_solution(flat_problem, sol, n_points=2000)
    assert rep.ok


# --- invariances --------------------------------------------------------------

def test_affine_level_transform_shifts_value(canon_problem, canon_solution):
    a, b = 0.6, 0.25
    raw = dict(CANON_RAW)
    raw["levels"] = [a * h + b for h in CANON_RAW["levels"]]
    scaled = solve(parse_problem(raw))
    ps = np.linspace(0.0, 1.0, 501)
    np.testing.assert_allclose(scaled.value.value(ps),
                               a * canon_solution.value.value(ps) + b, atol=1e-9)
    assert scaled.cutoffs == pytest.approx(canon_solution.cutoffs, abs=1e-9)


def test_common_rate_scale_leaves_value_unchanged(canon_problem, canon_solution):
    raw = dict(CANON_RAW)
    for key in ("lambda0", "lambda1", "r"):
        raw[key] = CANON_RAW[key] * 3.7
    scaled = solve(parse_problem(raw))
    ps = np.linspace(0.0, 1.0, 501)
    np.testing.assert_allclose(scaled.value.value(ps), canon_solution.value.value(ps),
                               atol=1e-12)


# --- serialization ------------------------------------------------------------

def test_solution_json_round_trip(canon_solution):
    blob = json.dumps(canon_solution.to_dict())
    again = solution_from_dict(json.loads(blob))
    ps = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_array_equal(again.value.value(ps), canon_solution.value.value(ps))
    assert again.cutoffs == canon_solution.cutoffs
    assert [r.action for r in again.policy.regions] == \
        [r.action for r in canon_solution.policy.regions]


def test_policy_dict_round_trip(canon_solution):
    d = canon_solution.policy.to_dict()
    again = MarkovPolicy.from_dict(d)
    ps = np.linspace(0.0, 1.0, 257)
    np.testing.assert_array_equal(again.region_index(ps),
                                  canon_solution.policy.region_index(ps))


# --- value/policy container contracts -----------------------------------------

def test_piecewise_value_rejects_gap():
    segs = [ValueSegment.linear(0.0, 0.4, 0.0, 1.0),
            ValueSegment.linear(0.5, 1.0, 0.0, 1.0)]
    with pytest.raises(SolverError):
        PiecewiseValue(segs)


def test_piecewise_value_rejects_partial_cover():
    with pytest.raises(SolverError):
        PiecewiseValue([ValueSegment.linear(0.0, 0.9, 0.0, 1.0)])


def test_check_shape_flags_discontinuity():
    segs = [ValueSegment.linear(0.0, 0.5, 0.0, 0.5),
            ValueSegment.linear(0.5, 1.0, 0.5, 0.5)]   # jumps 0.25 -> 0.75
    value = PiecewiseValue(segs)                        # construction is fine
    with pytest.raises(SolverError):
        value.check_shape()


def test_check_shape_flags_convex_kink():
    segs = [ValueSegment.linear(0.0, 0.5, 0.0, 0.2),
            ValueSegment.linear(0.5, 1.0, -0.3, 0.8)]   # slope rises 0.2 -> 0.8
    value = PiecewiseValue(segs)
    with pytest.raises(SolverError):
        value.check_shape()


def test_policy_region_validation():
    with pytest.raises(ProblemValidationError, match="unknown action 'wait'"):
        PolicyRegion(lo=0.0, hi=0.5, action="wait", low_target=None, high_target=None)
    with pytest.raises(ProblemValidationError, match="without targets"):
        PolicyRegion(lo=0.0, hi=0.5, action="split", low_target=None, high_target=None)
    with pytest.raises(ProblemValidationError, match="do not contain the region"):
        PolicyRegion(lo=0.0, hi=0.5, action="split", low_target=0.2, high_target=0.8)


def test_policy_partition_required():
    slide = PolicyRegion(lo=0.0, hi=0.5, action="slide", low_target=None, high_target=None)
    with pytest.raises(ProblemValidationError, match="last region ends at 0.5, not 1"):
        MarkovPolicy([slide])      # nothing covers (0.5, 1]
    other = PolicyRegion(lo=0.6, hi=1.0, action="slide", low_target=None, high_target=None)
    with pytest.raises(ProblemValidationError, match="regions leave a gap between 0.5 and 0.6"):
        MarkovPolicy([slide, other])


def test_policy_region_lookup(canon_solution):
    pol = canon_solution.policy
    q = canon_solution.cutoffs[0]
    # Left-closed regions: boundary belief belongs to the region it opens.
    assert pol.region_at(0.6).action == "slide"
    assert pol.region_at(q).action == "split"
    assert pol.region_at(1.0).action == "slide"
    idx = pol.region_index(np.array([0.0, 0.2 - 1e-12, 0.2, q, 1.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 4, 5])


def test_segment_slide_arc_needs_positive_gap():
    with pytest.raises(SolverError):
        ValueSegment.slide_arc(0.4, 0.6, level=1.0, start=-0.1, center=0.5, exponent=0.5)


# --- internal guard rails -----------------------------------------------------

def test_boundary_at_or_above_level_rejected(canon_problem):
    with pytest.raises(SolverError, match="must be strictly below the flow level"):
        _solve_above_interval(canon_problem, 1, 0.95)    # boundary equals level


def test_no_sign_change_raises(canon_problem):
    # A start a hair below the level keeps the arc essentially flat at the
    # level, so the pasting residual never crosses zero inside the interval.
    with pytest.raises(SolverError, match="pasting residual has no sign change"):
        _find_cutoff(0.6, 0.8, 0.95, 1.0, 0.95 - 1e-12, 0.5, 0.5)


# --- verification -------------------------------------------------------------

def test_verify_canon_clean(canon_problem, canon_solution):
    rep = verify_solution(canon_problem, canon_solution)
    assert rep.ok
    assert rep.violations == ()
    assert rep.checked_points >= 10_000
    assert rep.max_binding_gap <= 1e-8
    assert rep.max_pasting_gap <= 1e-8
    assert rep.max_residual_deficit <= 1e-8


def test_verify_flags_perturbed_value(canon_problem, canon_solution):
    segs = list(canon_solution.value.segments)
    bumped = segs[1]
    segs[1] = ValueSegment.linear(bumped.lo, bumped.hi, bumped.intercept + 1e-3,
                                  bumped.slope)
    broken = dataclasses.replace(canon_solution, value=PiecewiseValue(segs))
    rep = verify_solution(canon_problem, broken, n_points=2000)
    assert not rep.ok
    conditions = {v.condition for v in rep.violations}
    assert "continuity" in conditions


def test_verify_flags_value_below_payoff(canon_problem, canon_solution):
    segs = [
        ValueSegment.linear(s.lo, s.hi, s.intercept * 0.5, s.slope * 0.5)
        if s.kind == "linear"
        else ValueSegment.slide_arc(s.lo, s.hi, s.level * 0.5, s.start * 0.5,
                                    s.center, s.exponent)
        for s in canon_solution.value.segments
    ]
    broken = dataclasses.replace(canon_solution, value=PiecewiseValue(segs))
    rep = verify_solution(canon_problem, broken, n_points=2000)
    assert not rep.ok
    conditions = {v.condition for v in rep.violations}
    assert "value_floor" in conditions or "balance_right" in conditions


def shifted_cutoff(solution, shift):
    """Canon solution with its cutoff moved left, the line and top arc rebuilt by continuity."""
    below, (arc, line, top) = solution.value.segments[:-3], solution.value.segments[-3:]
    q = arc.hi - shift
    arc = ValueSegment.slide_arc(arc.lo, q, arc.level, arc.start, arc.center, arc.exponent)
    slope = float(arc.derivative_at(q))
    line = ValueSegment.linear(q, line.hi, float(arc.value_at(q)) - slope * q, slope)
    top = ValueSegment.slide_arc(top.lo, top.hi, top.level, float(line.value_at(line.hi)),
                                 top.center, top.exponent)
    regions = solution.policy.regions[:-3] + (
        PolicyRegion(arc.lo, q, "slide"), PolicyRegion(q, line.hi, "split", q, line.hi),
        solution.policy.regions[-1])
    return dataclasses.replace(solution, value=PiecewiseValue(below + (arc, line, top)),
                               policy=MarkovPolicy(regions, (q,)), cutoffs=(q,))


@pytest.mark.parametrize("shift, jump", [(0.01, 1.5e-2), (0.03, 5.5e-2)])
def test_verify_flags_corner_at_moved_cutoff(canon_problem, canon_solution, shift, jump):
    # Tangent at the moved cutoff and continuous everywhere, yet above the
    # optimum at 0.9: only the slope jump at the next cut (0.8) gives it away.
    broken = shifted_cutoff(canon_solution, shift)
    assert broken.value.value(0.9) > canon_solution.value.value(0.9) + 1e-3
    rep = verify_solution(canon_problem, broken)
    assert [(v.condition, v.belief) for v in rep.violations] == [("corner", 0.8)]
    assert rep.max_pasting_gap == pytest.approx(jump, rel=0.02)


def test_verify_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(25):
        prob = random_instance(rng)
        sol = solve(prob)
        rep = verify_solution(prob, sol, n_points=2000)
        assert rep.ok, (prob.payoff.cuts, [dataclasses.astuple(v) for v in rep.violations])


# --- scale-free slide arcs ----------------------------------------------------

def wide_mu_instance(rng: np.random.Generator) -> dict:
    """2..8 steps, cuts >= 0.06 apart, p* >= 0.03 from every cut, mu log-uniform on [1e-4, 1e4]."""
    n_steps = int(rng.integers(2, 9))
    gaps = 0.06 + (1.0 - 0.06 * n_steps) * rng.dirichlet(np.ones(n_steps))
    cuts = np.concatenate(([0.0], np.cumsum(gaps)[:-1], [1.0]))
    while True:
        lambda0, lambda1 = rng.uniform(0.4, 2.5, size=2)
        if np.min(np.abs(cuts - lambda0 / (lambda0 + lambda1))) >= 0.03:
            break
    mu = math.exp(rng.uniform(math.log(1e-4), math.log(1e4)))
    slopes = rng.uniform(0.35, 0.8) ** np.arange(n_steps - 1)
    levels = np.concatenate(([0.0], np.cumsum(slopes * np.diff(cuts[:-1]))))
    return {"lambda0": lambda0, "lambda1": lambda1, "r": mu * (lambda0 + lambda1),
            "cuts": cuts.tolist(), "levels": levels.tolist()}


def solve_and_verify(raw):
    problem = parse_problem(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve(problem)
        report = verify_solution(problem, solution, n_points=2000)
    assert report.ok, (raw, [dataclasses.astuple(v) for v in report.violations])


def test_solve_scale_free_in_mu():
    rng = np.random.default_rng(2027)
    for _ in range(400):
        solve_and_verify(wide_mu_instance(rng))


@pytest.mark.parametrize("r", [800.0, 2000.0, 10000.0])
def test_canon_solves_at_large_mu(r):
    solve_and_verify(dict(CANON_RAW, r=r))


@pytest.mark.parametrize("p_star", [
    cut + offset
    for cut in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    for offset in (-1e-3, -1e-4, 1e-4, 1e-3)
    if 0.0 < cut + offset < 1.0
])
def test_canon_stationary_belief_near_cut(p_star):
    solve_and_verify(canon_variant(p_star))


def test_cutoff_matches_power_form_root():
    # The pasting residual in its unanchored form, with K = (v(p_j) - h_j)(p_j - p*)^mu
    # read off each solved arc; it is safe from overflow at random_instance's mu.
    rng = np.random.default_rng(31)
    for _ in range(100):
        problem = random_instance(rng)
        solution = solve(problem)
        segments = solution.value.segments
        for arc, line in zip(segments, segments[1:]):
            if arc.kind != "slide_arc" or line.kind != "linear":
                continue
            p_star, mu, p_next = arc.center, arc.exponent, line.hi
            k = (arc.start - arc.level) * (arc.lo - p_star) ** mu
            h_next = problem.payoff.value(p_next)

            def residual(q):
                slope = -mu * k * (q - p_star) ** (-mu - 1.0)
                return (arc.level + k * (q - p_star) ** -mu + slope * (p_next - q) - h_next
                        + slope * (p_next - p_star) / mu)

            root = brentq(residual, arc.lo, p_next, xtol=1e-15)
            assert abs(arc.hi - root) <= 1e-12
