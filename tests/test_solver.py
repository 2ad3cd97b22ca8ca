"""Closed-form solver: frozen values, structure, serialization, verification."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from persuade.dynamics import discounted_time_split
from persuade.errors import ProblemValidationError, SolverError
from persuade.model import _locate, parse_problem
from persuade.oracle import full_disclosure_policy, myopic_policy, slide_only_policy
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

from conftest import (
    CANON_RAW,
    FLAT_RAW,
    ONE_ABOVE_RAW,
    PINNED_RAW,
    SINGLE_DISC_RAW,
    canon_variant,
    random_instance,
)

# p* = 0.9 inside the top payoff interval [0.8, 1].
TOP_INTERVAL_RAW = dict(CANON_RAW, lambda0=9.0, lambda1=1.0, r=5.0)

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


def test_center_line_endpoint_recursions(canon_problem):
    # The line on the interval [p0, p1] holding p* is the value of splitting
    # to its ends: L(end) = Y u(end) + (1 - Y) L(other), with the split reach
    # time Y in each direction.
    rng = np.random.default_rng(41)
    for problem in [canon_problem] + [random_instance(rng) for _ in range(20)]:
        k = problem.pivot
        line = solve(problem).value.segments[k]
        p0, p1 = problem.payoff.cuts[k], problem.payoff.cuts[k + 1]
        u0, u1 = problem.payoff.value(p0), problem.payoff.value(p1)
        assert (line.kind, line.lo, line.hi) == ("linear", p0, p1)
        v0, v1 = float(line.value_at(p0)), float(line.value_at(p1))
        y_up = discounted_time_split(problem, p0, p1)
        y_down = discounted_time_split(problem, p1, p0)
        assert v0 == pytest.approx(y_up * u0 + (1.0 - y_up) * v1, abs=1e-10)
        assert v1 == pytest.approx(y_down * u1 + (1.0 - y_down) * v0, abs=1e-10)


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
    segs = canon_solution.value.segments
    assert max(abs(float(a.value_at(a.hi)) - float(b.value_at(b.lo)))
               for a, b in zip(segs, segs[1:])) <= 1e-10
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


def test_top_interval_center_line_splits():
    # p* = 0.9 lies in the top interval, so the center line has slope 0 at
    # the top level; it still splits to its ends.  Only a one-level payoff
    # slides on its line.
    sol = solve(parse_problem(TOP_INTERVAL_RAW))
    assert sol.value.segments[-1].slope == 0.0
    top = sol.policy.regions[-1]
    assert (top.lo, top.action, top.low_target, top.high_target) == (0.8, "split", 0.8, 1.0)
    assert sol.cutoffs == ()


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
    # simulate --policy reads the regions of a solution file.
    again = MarkovPolicy.from_dict(json.loads(json.dumps(canon_solution.to_dict())))
    ps = np.linspace(0.0, 1.0, 257)
    np.testing.assert_array_equal(again.region_index(ps),
                                  canon_solution.policy.region_index(ps))


def test_solution_from_dict_derives_policy_from_segments(canon_solution):
    d = json.loads(json.dumps(canon_solution.to_dict()))
    d["regions"] = [{"lo": 0.0, "hi": 1.0, "action": "slide"}]
    d["cutoffs"] = [0.123]
    again = solution_from_dict(d)
    assert again.cutoffs == canon_solution.cutoffs
    assert again.policy.regions == canon_solution.policy.regions


@pytest.mark.parametrize("raw", [CANON_RAW, PINNED_RAW, ONE_ABOVE_RAW, SINGLE_DISC_RAW,
                                 FLAT_RAW, TOP_INTERVAL_RAW],
                         ids=["canon", "pinned", "one_above", "single_disc", "flat",
                              "top_interval"])
def test_solution_dict_round_trip_is_byte_identical(raw):
    d = json.loads(json.dumps(solve(parse_problem(raw)).to_dict()))
    assert json.dumps(solution_from_dict(d).to_dict()) == json.dumps(d)


# --- value/policy container contracts -----------------------------------------

def test_piecewise_value_rejects_gap():
    segs = [ValueSegment.linear(0.0, 0.4, 0.0, 1.0),
            ValueSegment.linear(0.5, 1.0, 0.0, 1.0)]
    with pytest.raises(SolverError):
        PiecewiseValue(segs)


def test_piecewise_value_rejects_no_segments():
    with pytest.raises(SolverError, match="no segments"):
        PiecewiseValue([])


def test_piecewise_value_rejects_partial_cover():
    with pytest.raises(SolverError):
        PiecewiseValue([ValueSegment.linear(0.0, 0.9, 0.0, 1.0)])


def test_piecewise_value_rejects_empty_segment():
    # Each segment starts where the one before ends, but [0.6, 0.3] runs backwards.
    segs = [ValueSegment.linear(lo, hi, 0.0, 1.0) for lo, hi in ((0.0, 0.6), (0.6, 0.3), (0.3, 1.0))]
    with pytest.raises(SolverError, match=r"^segment \[0\.6, 0\.3\] is empty$"):
        PiecewiseValue(segs)


def test_check_shape_flags_discontinuity():
    segs = [ValueSegment.linear(0.0, 0.5, 0.0, 0.5),
            ValueSegment.linear(0.5, 1.0, 0.5, 0.5)]   # jumps 0.25 -> 0.75
    value = PiecewiseValue(segs)                        # construction is fine
    with pytest.raises(SolverError, match=r"^value discontinuity 5\.000e-01 at 0\.5$"):
        value.check_shape()


def test_check_shape_flags_convex_kink():
    segs = [ValueSegment.linear(0.0, 0.5, 0.0, 0.2),
            ValueSegment.linear(0.5, 1.0, -0.3, 0.8)]   # slope rises 0.2 -> 0.8
    value = PiecewiseValue(segs)
    with pytest.raises(SolverError, match=r"^convex kink at 0\.5: left slope 0\.2, right slope 0\.8$"):
        value.check_shape()


def test_check_shape_flags_decreasing_value():
    value = PiecewiseValue([ValueSegment.linear(0.0, 1.0, 1.0, -0.5)])
    with pytest.raises(SolverError, match="decreasing value on segment ending at 1.0"):
        value.check_shape()


# Increasing and continuous (1.02 at 0.8), but the arc's slope rises from
# 2/15 at 0.8 to 2/9 at 1: a negative exponent with start above the level
# bends it up.
CONVEX_ARC = [ValueSegment.linear(0.0, 0.8, 0.86, 0.2),
              ValueSegment.slide_arc(0.8, 1.0, level=1.0, start=1.02, center=0.5, exponent=-2.0)]


def test_check_shape_flags_convex_segment():
    with pytest.raises(SolverError, match=r"^convex segment \[0\.8, 1\.0\]: slope 0\.133"):
        PiecewiseValue(CONVEX_ARC).check_shape()


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
    assert [pol.regions[pol.region_index(p)].action for p in (0.6, q, 1.0)] == [
        "slide", "split", "slide"]
    idx = pol.region_index(np.array([0.0, 0.2 - 1e-12, 0.2, q, 1.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 4, 5])


OFF_GRID_POLICY = {"regions": [
    {"lo": 0.0, "hi": 0.0123456, "action": "slide"},
    {"lo": 0.0123456, "hi": 0.45, "action": "split", "targets": [0.0123456, 0.4567891]},
    {"lo": 0.45, "hi": 0.7, "action": "slide"},
    {"lo": 0.7, "hi": 1.0, "action": "split", "targets": [0.6543211, 1.0]},
]}

POLICIES = {
    "sigma_star-canon": lambda: solve(parse_problem(CANON_RAW)).policy,
    "sigma_star-pinned": lambda: solve(parse_problem(PINNED_RAW)).policy,
    "sigma_star-top-interval": lambda: solve(parse_problem(TOP_INTERVAL_RAW)).policy,
    "myopic": lambda: myopic_policy(parse_problem(CANON_RAW)),
    "slide_only": lambda: slide_only_policy(parse_problem(CANON_RAW)),
    "full_disclosure": lambda: full_disclosure_policy(parse_problem(CANON_RAW)),
    "from_dict": lambda: MarkovPolicy.from_dict(OFF_GRID_POLICY),
}


@pytest.mark.parametrize("name", list(POLICIES))
def test_policy_targets_match_regions(name):
    # A split region's targets wherever the policy splits, the belief itself
    # where it slides: on a dense grid, at every region boundary and at 1.
    policy = POLICIES[name]()
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001),
                                   [r.lo for r in policy.regions],
                                   [r.hi for r in policy.regions]]))
    low, high = policy.targets(ps)
    for p, lo, hi in zip(ps.tolist(), low.tolist(), high.tolist()):
        region = policy.regions[policy.region_index(p)]
        want = (region.low_target, region.high_target) if region.action == "split" else (p, p)
        assert (lo, hi) == want, p
        assert tuple(map(float, policy.targets(p))) == want, p


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
    return dataclasses.replace(solution, value=PiecewiseValue(below + (arc, line, top)))


def test_replace_rederives_policy(canon_solution, flat_problem):
    moved = shifted_cutoff(canon_solution, 0.01)
    q = moved.value.segments[-2].lo
    assert moved.cutoffs == (q,)
    assert moved.policy.regions[moved.policy.region_index(q)] == PolicyRegion(
        q, 0.8, "split", q, 0.8)
    bent = dataclasses.replace(solve(flat_problem),
                               value=polyline([(0.0, 0.6), (0.5, 0.7), (1.0, 0.7)]))
    assert [r.action for r in bent.policy.regions] == ["slide", "slide"]


@pytest.mark.parametrize("shift, jump", [(0.01, 1.5e-2), (0.03, 5.5e-2)])
def test_verify_flags_corner_at_moved_cutoff(canon_problem, canon_solution, shift, jump):
    # Tangent at the moved cutoff and continuous everywhere, yet above the
    # optimum at 0.9: only the slope jump at the next cut (0.8) gives it away.
    broken = shifted_cutoff(canon_solution, shift)
    assert broken.value.value(0.9) > canon_solution.value.value(0.9) + 1e-3
    rep = verify_solution(canon_problem, broken)
    assert [(v.condition, v.belief) for v in rep.violations] == [("corner", 0.8)]
    assert rep.max_pasting_gap == pytest.approx(jump, rel=0.02)


def chord(a, va, b, vb):
    slope = (vb - va) / (b - a)
    return ValueSegment.linear(a, b, va - slope * a, slope)


def polyline(points):
    """Value of linear segments through the (belief, value) points."""
    return PiecewiseValue(chord(*a, *b) for a, b in zip(points, points[1:]))


def steep_below(solution, cuts, slope=2.0, width=5e-10):
    """The value with its last `width` below each given cut replaced by a steep line.

    Each line below such a cut is bent to meet the steep piece, so the value
    stays continuous, with a convex kink where the steep piece starts.
    """
    segments = []
    for seg in solution.value.segments:
        if seg.hi not in cuts:
            segments.append(seg)
            continue
        x = seg.hi - width
        steep = ValueSegment.linear(x, seg.hi, float(seg.value_at(seg.hi)) - slope * seg.hi, slope)
        segments += [chord(seg.lo, float(seg.value_at(seg.lo)), x, float(steep.value_at(x))),
                     steep]
    return dataclasses.replace(solution, value=PiecewiseValue(segments))


def test_verify_flags_balance_left_only(canon_problem, canon_solution):
    # Below p* a left derivative steeper than the right one lowers only the
    # left residual v'(c-)(c - p*) + mu (v(c) - u(c-)): at 0.2 it is
    # -0.6 + 0.5 * 0.7625 and at 0.4 it is -0.2 + 0.5 * 0.35.  Where the
    # steep piece starts, 5e-10 below each cut, the right residual falls by
    # the same amount and the slope kinks up from the lines' 61/96 and 0.4375 to 2.
    broken = steep_below(canon_solution, (0.2, 0.4))
    rep = verify_solution(canon_problem, broken)
    starts = [c - 5e-10 for c in (0.2, 0.4)]
    assert [(v.condition, v.belief) for v in rep.violations] == [
        ("balance_right", starts[0]), ("balance_right", starts[1]),
        ("balance_left", 0.2), ("balance_left", 0.4),
        ("concavity", starts[0]), ("concavity", starts[1])]
    assert [v.magnitude for v in rep.violations] == pytest.approx(
        [0.21875, 0.025, 0.21875, 0.025, 2.0 - 61.0 / 96.0, 2.0 - 0.4375], abs=1e-8)
    assert rep.max_residual_deficit == pytest.approx(0.21875, abs=1e-8)


def line_tent(solution, lo=0.30005, hi=0.30011, bump=10.0):
    """The value with a tent of slopes s + bump, s - bump on [lo, hi] of its line on [0.2, 0.4]."""
    segs = solution.value.segments
    i = next(i for i, s in enumerate(segs) if s.lo == 0.2)
    line, mid = segs[i], 0.5 * (lo + hi)
    points = [(p, float(line.value_at(p))) for p in (0.2, lo, mid, hi, 0.4)]
    points[2] = (mid, points[2][1] + bump * (mid - lo))
    tent = [chord(*a, *b) for a, b in zip(points, points[1:])]
    return dataclasses.replace(solution, value=PiecewiseValue(segs[:i] + tuple(tent) + segs[i + 1:]))


def test_verify_flags_line_tent(canon_problem, canon_solution):
    # Continuous, and 3e-4 too high at its peak, with no junction on a cut
    # or a cutoff: the exact shape rules see both kinks and the falling side.
    broken = line_tent(canon_solution)
    with pytest.raises(SolverError, match="convex kink at 0.30005"):
        broken.value.check_shape()
    rep = verify_solution(canon_problem, broken)
    assert [(v.condition, v.belief) for v in rep.violations] == [
        ("balance_right", 0.30005), ("balance_left", 0.30008),
        ("concavity", 0.30005), ("concavity", 0.30011), ("monotonicity", 0.30008)]
    assert rep.max_residual_deficit == pytest.approx(1.93, abs=5e-3)


def test_verify_flags_convex_segment(canon_problem, canon_solution):
    rep = verify_solution(canon_problem, dataclasses.replace(canon_solution,
                                                             value=PiecewiseValue(CONVEX_ARC)))
    shape = [(v.condition, v.belief, v.magnitude) for v in rep.violations
             if v.condition in ("continuity", "concavity", "monotonicity")]
    assert shape == [("concavity", 0.8, pytest.approx(2.0 / 9.0 - 2.0 / 15.0))]


# Flat payoff 0.6 with p* = 0.5 and mu = 0.5; five grid points 0, 0.25, ..., 1.
@pytest.mark.parametrize("points, expected", [
    ([(0.0, 0.7), (0.25, 0.7), (0.75, 0.705), (1.0, 0.7125)],
     [("binding", 0.0), ("binding", 1.0), ("concavity", 0.25), ("concavity", 0.75)]),
    ([(0.0, 0.7), (0.5, 0.7), (1.0, 0.69)],
     [("binding", 0.0), ("binding", 1.0), ("monotonicity", 0.5)]),
], ids=["concavity", "monotonicity"])
def test_verify_flags_shape(flat_problem, points, expected):
    broken = dataclasses.replace(solve(flat_problem), value=polyline(points))
    rep = verify_solution(flat_problem, broken, n_points=5)
    assert [(v.condition, v.belief) for v in rep.violations] == expected
    assert rep.max_residual_deficit == 0.0


def test_verify_flags_interior_gap(canon_problem, canon_solution):
    # Above p* the value must stay below each interior cut's level; the flat
    # line at 1.0 tops 0.95 at 0.6 and touches 1.0 at 0.8.
    flat = PiecewiseValue([ValueSegment.linear(0.0, 1.0, 1.0, 0.0)])
    rep = verify_solution(canon_problem, dataclasses.replace(canon_solution, value=flat))
    gaps = [(v.belief, v.magnitude) for v in rep.violations if v.condition == "interior_gap"]
    assert gaps == [(0.6, pytest.approx(0.05)), (0.8, 0.0)]


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


# --- grouped evaluation and many steps ----------------------------------------

def masked_evaluate(value, p, side, method):
    """method on the segment holding each belief, one full-length mask per segment."""
    x, idx = _locate(p, value._los, side)
    out = np.empty_like(x)
    for k, seg in enumerate(value.segments):
        mask = idx == k
        if mask.any():
            out[mask] = method(seg, x[mask])
    return out


def test_grouped_evaluation_matches_masked_reference():
    rng = np.random.default_rng(53)
    problems = [parse_problem(raw) for raw in (CANON_RAW, PINNED_RAW, FLAT_RAW)]
    problems += [random_instance(rng) for _ in range(100)]
    for problem in problems:
        value = solve(problem).value
        junctions = [seg.lo for seg in value.segments] + [1.0]
        draws = rng.uniform(0.0, 1.0, 300)
        p = rng.permutation(np.concatenate([draws, draws[:50], junctions, junctions, [0.0, 1.0]]))
        for side, method, got in (
                ("right", ValueSegment.value_at, value.value(p)),
                ("right", ValueSegment.derivative_at, value.derivative(p, "right")),
                ("left", ValueSegment.derivative_at, value.derivative(p, "left"))):
            assert got.tobytes() == masked_evaluate(value, p, side, method).tobytes()


def many_step_problem(n_steps):
    """Uniform cuts with levels g(c) = 1 - (1 - c)^2 at the left cuts; p* = 0.37, mu = 0.5."""
    cuts = np.linspace(0.0, 1.0, n_steps + 1)
    return parse_problem({"lambda0": 0.37, "lambda1": 0.63, "r": 0.5, "cuts": cuts.tolist(),
                          "levels": (1.0 - (1.0 - cuts[:-1]) ** 2).tolist()})


def test_many_steps_verify_clean_with_work_flat_in_steps(monkeypatch):
    # verify_solution looks beliefs up a fixed number of times, however many
    # segments the value has; the 10^4-step instance also solves cleanly.
    lookups = []

    def counted(*args, **kwargs):
        lookups.append(args)
        return _locate(*args, **kwargs)

    monkeypatch.setattr("persuade.model._locate", counted)
    monkeypatch.setattr("persuade.solver._locate", counted)
    counts = []
    for n_steps in (1_000, 10_000):
        problem = many_step_problem(n_steps)
        solution = solve(problem)
        lookups.clear()
        report = verify_solution(problem, solution)
        assert report.ok, [dataclasses.astuple(v) for v in report.violations[:5]]
        counts.append(len(lookups))
    assert counts[0] == counts[1]
