"""Discrete DP oracle: grids, value iteration, policy evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from persuade import oracle
from persuade.dynamics import make_split_signal, period_law
from persuade.errors import OracleError, OutOfRange
from persuade.model import parse_problem
from persuade.oracle import (
    _HULL_BEND_TOL,
    DEFAULT_TOL,
    _upper_hull,
    contact_gap,
    evaluate_policy_discrete,
    full_disclosure_policy,
    make_grid,
    myopic_policy,
    slide_only_policy,
    value_iteration,
)
from persuade.solver import MarkovPolicy, PolicyRegion, solve

from conftest import (
    CANON_RAW,
    FLAT_RAW,
    ONE_ABOVE_RAW,
    PINNED_RAW,
    SINGLE_DISC_RAW,
    TOP_INTERVAL_RAW,
    dp_split_mask,
    myopic_value,
    random_instance,
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


def test_grid_counts_the_top_interval_closed_at_one():
    # At gap 0.25 the top interval [0.5, 1] holds 0.5, 0.75 and 1; [0.9, 1] holds two points.
    problem = parse_problem(dict(CANON_RAW, cuts=[0.0, 0.5, 1.0], levels=[0.0, 1.0]))
    assert len(make_grid(problem, 0.25)) == 6
    problem = parse_problem(dict(CANON_RAW, cuts=[0.0, 0.5, 0.9, 1.0], levels=[0.0, 0.6, 1.0]))
    with pytest.raises(OracleError, match=r"interval \[0.9, 1.0\] has only 2 grid points"):
        make_grid(problem, 0.25)


@pytest.mark.parametrize("gap", [1e-9, 1e-300, 5e-324])
def test_grid_point_ceiling(canon_problem, gap):
    # 1 / 5e-324 overflows to inf, which the ceiling rejects as well.
    with pytest.raises(OutOfRange, match="would need more than 10000000 points"):
        make_grid(canon_problem, gap)


# --- upper hull ---------------------------------------------------------------

def test_upper_hull_dominates_and_is_concave():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xs = np.unique(rng.uniform(0.0, 1.0, size=40))
        xs[0], xs[-1] = 0.0, 1.0
        ys = rng.uniform(0.0, 1.0, size=xs.size)
        keep = _upper_hull(xs, ys)
        hx, hy = xs[keep], ys[keep]
        on_nodes = np.interp(xs, hx, hy)
        assert np.all(on_nodes >= ys - 1e-12)
        slopes = np.diff(hy) / np.diff(hx)
        assert np.all(np.diff(slopes) <= 1e-9)
        assert hx[0] == 0.0 and hx[-1] == 1.0


def test_upper_hull_keeps_concave_input():
    xs = np.linspace(0.0, 1.0, 21)
    ys = 1.0 - (xs - 0.4) ** 2
    keep = _upper_hull(xs, ys)
    np.testing.assert_allclose(np.interp(xs, xs[keep], ys[keep]), ys, atol=1e-12)


def _monotone_chain_hull(xs, ys):
    """Reference hull: Andrew's monotone chain, popping the middle point while
    it lies within the bend tolerance of (or below) its neighbors' chord."""
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    stack = []
    for i in range(xs.size):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            chord = ys[j] + (ys[i] - ys[j]) * (xs[k] - xs[j]) / (xs[i] - xs[j])
            if ys[k] - chord > thr:
                break
            stack.pop()
        stack.append(i)
    return xs[stack], ys[stack]


def _prefilter_passes(xs, ys):
    """Chord passes, as _upper_hull makes them, until every interior bend is strictly concave."""
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    passes = 0
    while True:
        passes += 1
        chord = ys[:-2] + (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
        bent = (ys[1:-1] - chord) > thr
        if bent.all():
            return passes
        keep = np.concatenate(([True], bent, [True]))
        xs, ys = xs[keep], ys[keep]


def _hull_cases():
    rng = np.random.default_rng(11)
    for size in (3, 5, 40, 400):
        for _ in range(10):
            xs = np.unique(rng.uniform(0.0, 1.0, size=size))
            xs[0], xs[-1] = 0.0, 1.0
            yield "random", xs, rng.uniform(0.0, 1.0, size=xs.size)
    xs = np.linspace(0.0, 1.0, 401)
    # Collinear runs: a concave polyline sampled densely, dented in places.
    polyline = np.interp(xs, [0.0, 0.3, 0.55, 1.0], [0.0, 0.6, 0.8, 0.9])
    dents = np.where(rng.uniform(size=xs.size) < 0.2, rng.uniform(0.0, 0.05, xs.size), 0.0)
    yield "collinear", xs, polyline
    yield "collinear dented", xs, polyline - dents
    # Flat plateaus: a step payoff mixed with a concave continuation value.
    steps = np.array([0.0, 0.5, 0.8, 0.95, 1.0])[np.minimum((xs * 5).astype(int), 4)]
    yield "plateaus", xs, steps
    yield "plateaus mixed", xs, 0.1 * steps + 0.9 * (1.0 - (xs - 0.6) ** 2)
    # A concave arc far below the chord of the endpoints: each pass peels
    # only the arc's two outermost points.
    cascade = np.concatenate(([0.0], -1.0 - (xs[1:-1] - 0.5) ** 2, [0.0]))
    yield "cascade", xs[::5], cascade[::5]
    # A concave run under a tall step, nondecreasing as value iteration's
    # payoffs are: each pass peels the run's last point below the step.
    yield "concave run under a tall step", xs, np.where(xs < 0.8, 0.5 * np.sqrt(xs), 1.0)


def test_upper_hull_matches_monotone_chain():
    long_runs = 0
    for name, xs, ys in _hull_cases():
        keep = _upper_hull(xs, ys)
        hx, hy = xs[keep], ys[keep]
        rx, ry = _monotone_chain_hull(xs, ys)
        np.testing.assert_array_equal(hx, rx, err_msg=name)
        np.testing.assert_array_equal(hy, ry, err_msg=name)
        long_runs += _prefilter_passes(xs, ys) > 16
    assert long_runs >= 1      # some case needs more than 16 passes


def _misses(xs, ys, start):
    """Points above the hull of the points at start by more than the bend threshold."""
    keep = start[_upper_hull(xs[start], ys[start])]
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    return np.flatnonzero(ys > np.interp(xs, xs[keep], ys[keep]) + thr), keep


def test_stale_guess_missing_a_point_gives_the_full_hull():
    # The guess lacks one vertex of a concave arc; it lies far above the
    # guess's hull, joins it, and the second try is the full hull.
    xs = np.linspace(0.0, 1.0, 21)
    ys = 1.0 - (xs - 0.4) ** 2
    guess = np.delete(np.arange(xs.size), 7)
    assert _misses(xs, ys, guess)[0].tolist() == [7]
    np.testing.assert_array_equal(_upper_hull(xs, ys, guess), _upper_hull(xs, ys))
    # Stale vertices of nearby payoffs, as value iteration carries them.
    rng = np.random.default_rng(4)
    for name, xs, ys in _hull_cases():
        stale = _upper_hull(xs, ys + rng.normal(0.0, 0.01, xs.size))
        np.testing.assert_array_equal(_upper_hull(xs, ys, stale), _upper_hull(xs, ys),
                                      err_msg=name)


def test_stale_guess_missing_twice_gives_the_full_hull():
    # Bumps on a flat line, in units of the bend threshold.  The guess's
    # hull misses points 1 and 3.  The second try drops 3 and 4 in one pass
    # (3 lies within the threshold of the chord from 1 to 4), which leaves 3
    # above its hull again; only the pass over all points keeps vertex 3.
    xs = np.linspace(0.0, 1.0, 7)
    ys = _HULL_BEND_TOL * np.array([0.0, 2.2, 0.5, 2.6, 1.6, 0.9, 0.0])
    missed, keep = _misses(xs, ys, np.array([0, 4, 6]))
    assert missed.tolist() == [1, 3] and keep.tolist() == [0, 4, 6]
    missed, keep = _misses(xs, ys, np.union1d(keep, missed))
    assert missed.tolist() == [3] and keep.tolist() == [0, 1, 6]
    assert _upper_hull(xs, ys).tolist() == [0, 1, 3, 6]
    np.testing.assert_array_equal(_upper_hull(xs, ys, np.array([0, 4, 6])), [0, 1, 3, 6])


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


def test_value_iteration_matches_solver_off_canon(canon_problem):
    """sup|w_delta - v| <= delta times the spread, first order in delta, on 20 instances.

    Canon and 19 `random_instance` draws (seed 11), grid gap 1e-3 with the
    cutoffs, delta = 0.01 and 0.005.  A probe read the worst
    sup|w_delta - v| / (spread delta) as 0.683 at both delta, and the error
    ratio e(delta) / e(delta / 2) within [1.995, 2.003].
    """
    rng = np.random.default_rng(11)
    for problem in [canon_problem] + [random_instance(rng) for _ in range(19)]:
        solution = solve(problem)
        grid = make_grid(problem, 1e-3, extra=solution.cutoffs)
        exact = solution.value.value(grid.points)
        levels = problem.payoff.levels
        errors = []
        for delta in (0.01, 0.005):
            res = value_iteration(problem, delta, grid, tol=1e-8)
            errors.append(float(np.max(np.abs(res.values - exact))) / (levels[-1] - levels[0]))
            assert errors[-1] <= 1.0 * delta, (problem, delta, errors[-1])
        assert 1.9 <= errors[0] / errors[1] <= 2.1, (problem, errors)


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


@pytest.mark.parametrize("delta", [1e-300, 1e-17])
def test_discount_factor_rounding_to_one_is_out_of_range(canon_problem, canon_solution, delta):
    # exp(-r delta) == 1.0: the period weight 1 - x vanishes.
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(OutOfRange, match="discount factor exp\\(-r delta\\) rounds to 1"):
        value_iteration(canon_problem, delta, grid)
    with pytest.raises(OutOfRange, match="rounds to 1"):
        evaluate_policy_discrete(canon_problem, canon_solution.policy, delta, grid)


@pytest.mark.parametrize("kwargs,match", [
    ({"tol": -1.0}, "tolerance"), ({"tol": math.nan}, "tolerance"),
    ({"tol": math.inf}, "tolerance"),
])
def test_value_iteration_rejects_bad_arguments(canon_problem, kwargs, match):
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(OutOfRange, match=match):
        value_iteration(canon_problem, 0.05, grid, **kwargs)


def test_value_iteration_zero_tol_converges(flat_problem):
    grid = make_grid(flat_problem, 1e-2)
    res = value_iteration(flat_problem, 0.05, grid, tol=0.0)
    assert res.bound == 0.0


@pytest.mark.parametrize("name, gap, delta", [
    pytest.param("canon", 5e-3, 0.05, id="canon"),
    pytest.param("single_disc", 5e-3, 0.05, id="single_disc"),
    # Most hulls on this fine grid take more than 16 chord passes.
    pytest.param("canon", 1e-4, 0.02, id="canon-fine"),
])
def test_value_iteration_bound_is_certified(request, name, gap, delta):
    problem = request.getfixturevalue(f"{name}_problem")
    grid = make_grid(problem, gap)
    x = math.exp(-problem.discounting.r * delta)
    res = value_iteration(problem, delta, grid, tol=1e-6)
    ref = value_iteration(problem, delta, grid, tol=1e-11)
    assert 0.0 <= res.bound <= 1e-6 * x
    # Within the certified bound below the fixed point, and never above it.
    assert np.all(res.values >= ref.values - res.bound - 1e-12)
    assert np.all(res.values <= ref.values + 1e-12)


def _value_iteration_all_points(problem, delta, grid, tol):
    """value_iteration with every step's hull taken over all grid points."""
    a, b, x = period_law(problem, delta)
    pts = grid.points
    u = problem.payoff.value(pts)
    drifted = a + b * pts
    w = np.full(pts.size, float(min(problem.payoff.levels)))
    history = []
    while True:
        phi = (1.0 - x) * u + x * w
        keep = _upper_hull(pts, phi)
        w_new = np.interp(drifted, pts[keep], phi[keep])
        step = w_new - w
        low, high = float(np.min(step)), float(np.max(step))
        history.append(max(high, -low))
        w = w_new
        if high - low <= tol * (1.0 - x):
            scale = x / (1.0 - x)
            return w + scale * low, len(history), scale * (high - low), np.array(history)


def _vertex_cases(name):
    """(problem, grid gap, extra grid points, delta) runs of one case."""
    canon = parse_problem(CANON_RAW)
    if name == "canon":     # A2's setting
        yield canon, 2.5e-4, solve(canon).cutoffs, 1e-3
    elif name == "cli":     # `persuade oracle` and `persuade sweep` defaults
        for delta in (1e-3, 0.1, 0.03, 0.01, 0.003):
            yield canon, 1e-3, solve(canon).cutoffs, delta
    elif name == "scaled":  # the steepest slopes a carried hull reads
        cutoffs = solve(canon).cutoffs      # levels a h + b have the same cutoffs
        for levels in ([h * 1e8 for h in CANON_RAW["levels"]],
                       [h - 50.0 for h in CANON_RAW["levels"]]):
            yield parse_problem(dict(CANON_RAW, levels=levels)), 1e-3, cutoffs, 0.01
    elif name == "flat":
        yield parse_problem(FLAT_RAW), 1e-2, (), 0.05
    elif name == "top_interval":
        yield parse_problem(TOP_INTERVAL_RAW), 1e-3, (), 1e-3
    else:
        rng = np.random.default_rng(23)
        for problem in [random_instance(rng) for _ in range(20)]:
            cutoffs = solve(problem).cutoffs
            for gap, delta in ((1e-2, 0.05), (5e-3, 0.02), (2e-3, 0.1)):
                yield problem, gap, cutoffs, delta


def _assert_same_run(res, reference, where):
    values, iterations, bound, history = reference
    np.testing.assert_array_equal(res.values, values, err_msg=str(where))
    assert (res.iterations, res.bound) == (iterations, bound), where
    np.testing.assert_array_equal(res.change_history, history, err_msg=str(where))


@pytest.mark.parametrize("name", ["canon", "cli", "scaled", "flat", "top_interval", "random"])
def test_carried_vertices_match_hulling_all_points(name):
    # Reading the carried hull, and re-hulling from its vertices, changes no output.
    for problem, gap, extra, delta in _vertex_cases(name):
        grid = make_grid(problem, gap, extra=extra)
        res = value_iteration(problem, delta, grid)
        _assert_same_run(res, _value_iteration_all_points(problem, delta, grid, DEFAULT_TOL),
                         (problem, gap, delta))


def _read_as_carried(xs, ys, keep, queries):
    """The hull through (xs, ys)[keep] read at queries as value_iteration reads a carried hull."""
    cells = np.searchsorted(xs, queries, "right") - 1
    seg, off = oracle._segments(xs, keep, cells, queries)
    hx = xs[keep]
    return oracle._read_segments(ys[keep], hx[1:] - hx[:-1], seg, off)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_carried_read_is_interp_bit_for_bit(canon_problem, scale):
    # Vertices 1e-12 apart (the left samples of the cuts), queries on every
    # vertex, at 1 and at drifted beliefs, and levels from 1e-8 to 1e8.
    xs = make_grid(canon_problem, 1e-2).points
    left_samples = np.flatnonzero(np.diff(xs) < 1e-11)
    assert left_samples.size == 4
    ys = scale * (canon_problem.payoff.value(xs) + 0.1 * np.sin(7.0 * xs))
    a, b, _ = period_law(canon_problem, 0.05)
    rng = np.random.default_rng(5)
    queries = np.concatenate([xs, a + b * xs, rng.uniform(0.0, 1.0, 500), [1.0]])
    picks = [np.arange(xs.size), np.union1d(left_samples, left_samples + 1)]
    picks += [np.flatnonzero(rng.uniform(size=xs.size) < share) for share in (0.5, 0.1, 0.0)]
    for pick in picks:
        keep = np.union1d(pick, [0, xs.size - 1])
        got = _read_as_carried(xs, ys, keep, queries)
        expected = np.interp(queries, xs[keep], ys[keep])
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64),
                                      err_msg=f"{keep.size} vertices")


def test_each_fallback_matches_hulling_all_points(monkeypatch):
    """A carried vertex the chord test drops, and a grid point rising above the carried hull.

    From a constant start the iterates only bend further, so no vertex
    drops by itself.  On the one-above instance phi stays flat on the top
    payoff interval [0.3, 1] and no grid point ever rises above the first
    hull.  That hull is given an extra vertex at 0.6, which changes no value
    read, so only the next step's chord test can drop it.  On canon, grid
    points rise above the carried hull on several steps.
    """
    hull = oracle._upper_hull
    seen = {}
    for name, raw, extra in (("one_above", ONE_ABOVE_RAW, [0.6]), ("canon", CANON_RAW, [])):
        problem = parse_problem(raw)
        grid = make_grid(problem, 1e-2)
        added = np.searchsorted(grid.points, extra)
        kinds = seen.setdefault(name, [])

        def recording(xs, ys, guess=None, added=added, kinds=kinds):
            if guess is None:
                kinds.append("first")
                return np.union1d(hull(xs, ys), added)
            hx = xs[guess]
            bent = oracle._bent(ys[guess], hx[1:-1] - hx[:-2], hx[2:] - hx[:-2],
                                oracle._bend_threshold(ys))
            kinds.append("above" if bent.all() else "chord")
            return hull(xs, ys, guess)

        monkeypatch.setattr(oracle, "_upper_hull", recording)
        res = value_iteration(problem, 0.05, grid)
        _assert_same_run(res, _value_iteration_all_points(problem, 0.05, grid, DEFAULT_TOL), name)
    assert seen["one_above"] == ["first", "chord"], seen
    assert seen["canon"][0] == "first" and set(seen["canon"][1:]) == {"above"}, seen


def test_step_limit_raises_oracle_error(canon_problem, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ITER", 3)
    grid = make_grid(canon_problem, 1e-2)
    with pytest.raises(OracleError, match="did not reach a change spread .* in 3 steps"):
        value_iteration(canon_problem, 0.05, grid, tol=1e-10)


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


def test_policy_residual_guard_raises_oracle_error(canon_problem, monkeypatch):
    monkeypatch.setattr(oracle, "_POLICY_RESIDUAL_TOL", -1.0)
    grid = make_grid(canon_problem, 5e-3)
    with pytest.raises(OracleError, match="policy linear system residual"):
        evaluate_policy_discrete(canon_problem, myopic_policy(canon_problem), 0.02, grid)


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


def _per_node_policy_values(problem, policy, delta, grid):
    """Reference: the transition built node by node, then the same sparse solve."""
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import spsolve

    x = math.exp(-problem.discounting.r * delta)
    pts = grid.points
    n = pts.size
    a, b = period_law(problem, delta)[:2]

    def entries(q):
        j = min(max(int(np.searchsorted(pts, q, side="right")) - 1, 0), n - 2)
        t = (q - pts[j]) / (pts[j + 1] - pts[j])
        return ((j, 1.0 - t), (j + 1, t))

    rows, cols, vals = [], [], []
    c = np.empty(n)
    for i in range(n):
        d = a + b * pts[i]
        region = policy.regions[policy.region_index(d)]
        if region.action == "slide":
            c[i] = problem.payoff.value(d)
            moves = [(d, 1.0)]
        else:
            lo, hi = region.low_target, region.high_target
            beta0, beta1 = make_split_signal(d, lo, hi)
            rho = d * beta1 + (1.0 - d) * beta0
            c[i] = (1.0 - rho) * problem.payoff.value(lo) + rho * problem.payoff.value(hi)
            moves = [(lo, 1.0 - rho), (hi, rho)]
        for target, mass in moves:
            for j, wgt in entries(target):
                rows.append(i)
                cols.append(j)
                vals.append(mass * wgt)
    transition = csr_matrix((vals, (rows, cols)), shape=(n, n))
    return spsolve((identity(n, format="csr") - x * transition).tocsc(), (1.0 - x) * c)


def test_policy_values_match_per_node_reference(canon_problem, canon_solution):
    grid = make_grid(canon_problem, 5e-3, extra=canon_solution.cutoffs)
    off_grid = MarkovPolicy.from_dict({"regions": [
        {"lo": 0.0, "hi": 0.0123456, "action": "slide"},
        {"lo": 0.0123456, "hi": 0.45, "action": "split", "targets": [0.0123456, 0.4567891]},
        {"lo": 0.45, "hi": 0.7, "action": "slide"},
        {"lo": 0.7, "hi": 1.0, "action": "split", "targets": [0.6543211, 1.0]},
    ]})
    policies = {
        "myopic": myopic_policy(canon_problem),
        "sigma_star": canon_solution.policy,
        "slide_only": slide_only_policy(canon_problem),
        "full_disclosure": full_disclosure_policy(canon_problem),
        "off_grid": off_grid,
    }
    for name, policy in policies.items():
        got = evaluate_policy_discrete(canon_problem, policy, 0.02, grid).values
        want = _per_node_policy_values(canon_problem, policy, 0.02, grid)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14, err_msg=name)


def _many_step_problem(steps: int):
    """Uniform cuts, levels 1 - (1 - c)^2 at the left cuts, p* = 0.37, mu = 0.5."""
    cuts = np.linspace(0.0, 1.0, steps + 1)
    return parse_problem({
        "lambda0": 0.74, "lambda1": 1.26, "r": 1.0,
        "cuts": cuts.tolist(), "levels": (1.0 - (1.0 - cuts[:-1]) ** 2).tolist(),
    })


@pytest.fixture
def cyclic_blocks(monkeypatch):
    """Per policy solve, the size of each cyclic block, in call order."""
    sizes = []
    blocks = oracle._blocks

    def recording(reads):
        found = blocks(reads)
        sizes.append([len(block) for block in found if len(block) > 1])
        return found

    monkeypatch.setattr(oracle, "_blocks", recording)
    return sizes


# (instance, policy, grid gap).  The canon grid is the benchmark's, 4006
# points.  Full disclosure closes a cycle through beliefs 0 and 1, sliding
# one across p*.
FINE_GRID_CASES = [
    ("canon", "sigma_star", 2.5e-4),
    ("canon", "myopic", 2.5e-4),
    ("canon", "full_disclosure", 2.5e-4),
    ("canon", "slide_only", 2.5e-4),
    ("200 steps", "sigma_star", 1e-4),
]


@pytest.mark.parametrize("instance, name, gap", FINE_GRID_CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in FINE_GRID_CASES])
def test_elimination_matches_per_node_reference_on_fine_grids(
        canon_problem, cyclic_blocks, instance, name, gap):
    problem = canon_problem if instance == "canon" else _many_step_problem(200)
    solution = solve(problem)
    policy = {"sigma_star": solution.policy, "myopic": myopic_policy(problem),
              "full_disclosure": full_disclosure_policy(problem),
              "slide_only": slide_only_policy(problem)}[name]
    grid = make_grid(problem, gap, extra=solution.cutoffs)
    got = evaluate_policy_discrete(problem, policy, 1e-3, grid).values
    want = _per_node_policy_values(problem, policy, 1e-3, grid)
    assert cyclic_blocks == [[2]]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_elimination_solves_random_systems(seed):
    # Reads of nearby nodes plus a few long jumps make self-reads and many
    # cyclic blocks, up to a few dozen nodes each; the elimination must agree
    # with a dense solve of (I - W) w = rhs.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    near = np.clip(np.arange(n)[:, None] + rng.integers(-2, 3, size=(n, 4)), 0, n - 1)
    cols = np.where(rng.random((n, 4)) < 0.05, rng.integers(0, n, size=(n, 4)), near)
    weights = rng.random((n, 4)) * (rng.random((n, 4)) < 0.6)
    weights *= rng.uniform(0.0, 0.999, size=(n, 1)) / np.maximum(weights.sum(axis=1, keepdims=True), 1e-300)
    rhs = rng.normal(size=n)
    dense = np.eye(n)
    np.add.at(dense, (np.repeat(np.arange(n), 4), cols.ravel()), -weights.ravel())
    got = oracle._solve_in_drift_order(cols, weights, rhs)
    np.testing.assert_allclose(got, np.linalg.solve(dense, rhs), rtol=0.0, atol=1e-11)


def test_end_split_policies_have_one_cycle_at_most(cyclic_blocks, canon_solution,
                                                   pinned_problem, single_disc_problem):
    # Slides and splits to a region's own ends, at grid points, move toward
    # p*, so only the region around p* can hold a cycle.
    problems = [canon_solution.problem, pinned_problem, single_disc_problem,
                _many_step_problem(1000)]
    for problem in problems:
        solution = solve(problem)
        grid = make_grid(problem, 2e-4, extra=solution.cutoffs)
        for policy in (solution.policy, myopic_policy(problem)):
            evaluate_policy_discrete(problem, policy, 1e-3, grid)
    assert len(cyclic_blocks) == 2 * len(problems)
    assert all(found in ([], [2]) for found in cyclic_blocks), cyclic_blocks


def test_cycles_off_the_grid_are_solved_block_by_block(cyclic_blocks):
    # Without the cutoffs on the grid, each of the solver's split regions
    # above p* reads its low end by interpolation and closes its own cycle
    # of two nodes.
    problem = _many_step_problem(1000)
    solution = solve(problem)
    grid = make_grid(problem, 2e-4)
    got = evaluate_policy_discrete(problem, solution.policy, 1e-3, grid).values
    (found,) = cyclic_blocks
    assert len(found) > 10 and max(found) == 2
    want = _per_node_policy_values(problem, solution.policy, 1e-3, grid)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_far_split_targets_make_one_large_block(cyclic_blocks):
    # Each of 1,000 split regions sends its low and high posteriors up to
    # 0.005 past its ends, off the grid: the reads tie over a thousand
    # nodes into one cyclic block, which one dense solve handles.
    rng = np.random.default_rng(0)
    problem = _many_step_problem(100)
    ends = np.linspace(0.0, 1.0, 1001).tolist()
    policy = MarkovPolicy([
        PolicyRegion(lo, hi, "split", max(0.0, lo - 0.005 * rng.random()),
                     min(1.0, hi + 0.005 * rng.random()))
        for lo, hi in zip(ends[:-1], ends[1:])])
    grid = make_grid(problem, 1e-4)
    got = evaluate_policy_discrete(problem, policy, 1e-3, grid).values
    (found,) = cyclic_blocks
    assert max(found) > 1000
    want = _per_node_policy_values(problem, policy, 1e-3, grid)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# --- reference policies -------------------------------------------------------

def test_myopic_policy_structure(canon_problem):
    pol = myopic_policy(canon_problem)
    actions = [r.action for r in pol.regions]
    assert actions == ["split", "split", "split", "split", "slide"]
    assert pol.regions[0].low_target == 0.0
    assert pol.regions[3].high_target == 0.8


@pytest.mark.parametrize("raw", [CANON_RAW, SINGLE_DISC_RAW, PINNED_RAW, ONE_ABOVE_RAW],
                         ids=["canon", "single_disc", "pinned", "one_above"])
def test_myopic_policy_value_converges_to_closed_form(raw):
    """evaluate_policy_discrete(myopic) -> V_myopic at first order in delta.

    Grid gap 1e-3, delta = 0.01 and 0.005; no solver value enters.  Measured:
    sup|w_delta - V_myopic| / spread between 0.23 and 0.71 delta, and the
    error ratio e(0.01) / e(0.005) within [1.998, 2.001].
    """
    problem = parse_problem(raw)
    grid = make_grid(problem, 1e-3)
    exact = myopic_value(problem, grid.points)
    levels = problem.payoff.levels
    errors = []
    for delta in (0.01, 0.005):
        w = evaluate_policy_discrete(problem, myopic_policy(problem), delta, grid).values
        errors.append(float(np.max(np.abs(w - exact))) / (levels[-1] - levels[0]))
        assert errors[-1] <= 1.0 * delta, (delta, errors[-1])
    assert 1.9 <= errors[0] / errors[1] <= 2.1, errors


def test_myopic_policy_flat_slides(flat_problem):
    pol = myopic_policy(flat_problem)
    assert [r.action for r in pol.regions] == ["slide"]


def test_reference_policies_cover_unit_interval(canon_problem):
    for pol in (slide_only_policy(canon_problem), full_disclosure_policy(canon_problem)):
        assert pol.regions[0].lo == 0.0
        assert pol.regions[-1].hi == 1.0
