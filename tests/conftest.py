"""Shared fixtures: reference instances and a random-instance generator.

The "canon" instance (symmetric rates, five steps) exercises every regime at
once: a linear stretch around p* = 0.5, one interior pasting cutoff, and a
slide-only top interval.  The smaller instances isolate corner regimes
(stationary belief pinned to a cut, a single interval above p*, a flat payoff).
"""

from __future__ import annotations

import numpy as np
import pytest

from persuade.dynamics import discounted_time_split
from persuade.model import Problem, parse_problem
from persuade.oracle import OracleResult, contact_gap
from persuade.solver import PiecewiseValue, Solution, ValueSegment, solve

CANON_RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "levels": [0.0, 0.5, 0.8, 0.95, 1.0],
}

# p* = 0.5 sits exactly on a cut here, so the pinned branch of the solver runs.
PINNED_RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.5, 0.8, 1.0],
    "levels": [0.0, 0.7, 1.0],
}

# Asymmetric rates put p* = 0.75 inside the single interval above the only
# interior cut: no pasting cutoffs at all, value constant at the top level.
ONE_ABOVE_RAW = {
    "lambda0": 3.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.3, 1.0],
    "levels": [0.0, 1.0],
}

# One interior cut above p* = 0.5: the smallest instance with an "above" side.
SINGLE_DISC_RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.7, 1.0],
    "levels": [0.0, 1.0],
}

# p* = 0.9 inside the top payoff interval [0.8, 1].
TOP_INTERVAL_RAW = dict(CANON_RAW, lambda0=9.0, lambda1=1.0, r=5.0)

FLAT_RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 1.0],
    "levels": [0.6],
}

# Each rate and r is valid alone, but mu = r / (lambda0 + lambda1) is 0 or inf.
MU_OUT_OF_RANGE = {
    "switch-rate-overflows": dict(CANON_RAW, lambda0=1e308, lambda1=1e308),
    "mu-underflows": dict(CANON_RAW, lambda0=1e300, lambda1=1e300, r=1e-300),
    "mu-overflows": dict(CANON_RAW, lambda0=1e-300, lambda1=1e-300, r=1e300),
}


# A hull-vs-payoff gap above this marks a grid point where the DP strictly
# prefers splitting; below it the point is treated as a hull contact (slide).
CONTACT_TOL = 5e-7


def dp_split_mask(problem: Problem, result: OracleResult) -> np.ndarray:
    """Boolean mask of grid points where the DP strictly prefers splitting."""
    return contact_gap(problem, result) > CONTACT_TOL


def slide_reach_time(problem: Problem, p_from: float, p_to: float) -> float:
    """Discounted wait Y = 1 - ((p* - p_to)/(p* - p_from))^mu of the silent drift.

    The drift takes tau = ln((p* - p_from)/(p* - p_to)) / Lambda to move from
    p_from to p_to, so p_to has to lie between p_from and p*; the power is
    the one a slide arc of the solver's value applies.
    """
    p_star = problem.stationary_belief
    return 1.0 - ((p_star - p_to) / (p_star - p_from)) ** problem.discount_ratio


def myopic_value(problem: Problem, p):
    """Continuous-time value of `oracle.myopic_policy` at beliefs p, in closed form.

    The policy splits every interval but the top one to its ends, so its
    value is linear between those cuts.  A belief at a cut c other than p*
    is held there by splits until it jumps to the next cut c' toward p*:
    V(c) = Y h + (1 - Y) V(c'), with Y = discounted_time_split(c, c') and h
    the level at c.  The two cuts around p* jump to each other; a cut at p*,
    or the top interval's left cut when p* lies in that interval, keeps its
    level.  Above its left cut c_T the top interval slides toward p*:
    V(p) = h_T + (V(c_T) - h_T) ((c_T - p*)/(p - p*))^mu.  No solver enters.
    """
    cuts, levels = problem.payoff.cuts, problem.payoff.levels
    p_star, mu = problem.stationary_belief, problem.discount_ratio
    top = len(levels) - 1                   # the top interval is [cuts[top], 1]
    k = min(int(np.searchsorted(cuts, p_star, side="right")) - 1, top)

    def wait(i, j):
        return discounted_time_split(problem, cuts[i], cuts[j])

    at = [0.0] * (top + 1)                  # V at cuts[0], ..., cuts[top]
    if cuts[k] == p_star or k == top:
        at[k] = levels[k]
        first_above = k + 1
    else:
        y0, y1 = wait(k, k + 1), wait(k + 1, k)
        at[k] = (y0 * levels[k] + (1.0 - y0) * y1 * levels[k + 1]) / (1.0 - (1.0 - y0) * (1.0 - y1))
        at[k + 1] = y1 * levels[k + 1] + (1.0 - y1) * at[k]
        first_above = k + 2
    for i in range(k - 1, -1, -1):
        y = wait(i, i + 1)
        at[i] = y * levels[i] + (1.0 - y) * at[i + 1]
    for i in range(first_above, top + 1):
        y = wait(i, i - 1)
        at[i] = y * levels[i] + (1.0 - y) * at[i - 1]

    p = np.asarray(p, dtype=float)
    out = np.interp(p, cuts[:top + 1], at)
    if p_star < cuts[top]:
        slide = p > cuts[top]
        ratio = (cuts[top] - p_star) / (p[slide] - p_star)
        out[slide] = levels[top] + (at[top] - levels[top]) * ratio ** mu
    return out


def solution_from_dict(d: dict) -> Solution:
    """Solution from its JSON form (Solution.to_dict); reads only `problem` and `segments`."""
    def segment(s):
        if s["kind"] == "linear":
            return ValueSegment.linear(s["lo"], s["hi"], s["intercept"], s["slope"])
        return ValueSegment.slide_arc(s["lo"], s["hi"], s["level"], s["start"],
                                      s["center"], s["exponent"])

    return Solution(parse_problem(d["problem"]), PiecewiseValue(map(segment, d["segments"])))


def canon_variant(p_star: float, mu: float = 0.5) -> dict:
    """Canon cuts and levels with the stationary belief and mu = r / (lambda0 + lambda1) moved."""
    lambda0 = p_star / (1.0 - p_star)
    return dict(CANON_RAW, lambda0=lambda0, lambda1=1.0, r=mu * (lambda0 + 1.0))


@pytest.fixture(scope="session")
def canon_problem() -> Problem:
    return parse_problem(CANON_RAW)


@pytest.fixture(scope="session")
def canon_solution(canon_problem) -> Solution:
    return solve(canon_problem)


@pytest.fixture(scope="session")
def pinned_problem() -> Problem:
    return parse_problem(PINNED_RAW)


@pytest.fixture(scope="session")
def one_above_problem() -> Problem:
    return parse_problem(ONE_ABOVE_RAW)


@pytest.fixture(scope="session")
def single_disc_problem() -> Problem:
    return parse_problem(SINGLE_DISC_RAW)


@pytest.fixture(scope="session")
def flat_problem() -> Problem:
    return parse_problem(FLAT_RAW)


def random_instance(rng: np.random.Generator) -> Problem:
    """Draw a valid instance with healthy margins.

    Cuts are at least 0.06 apart and the stationary belief keeps 0.03 away
    from every cut, so solver and verifier never operate within float noise
    of a boundary.  Level gaps follow geometrically decaying chord slopes,
    which keeps the piecewise envelope strictly concave by a wide margin.
    """
    while True:
        lambda0 = rng.uniform(0.4, 2.5)
        lambda1 = rng.uniform(0.4, 2.5)
        r = rng.uniform(0.15, 1.5)
        p_star = lambda0 / (lambda0 + lambda1)
        n_steps = int(rng.integers(2, 6))
        interior = np.sort(rng.uniform(0.05, 0.95, size=n_steps - 1))
        cuts = np.concatenate(([0.0], interior, [1.0]))
        if np.min(np.diff(cuts)) < 0.06:
            continue
        if np.min(np.abs(cuts - p_star)) < 0.03:
            continue
        break
    # Slopes between consecutive left endpoints decay geometrically, so each
    # interior (cut, level) point sits strictly above its neighbours' chord.
    ratio = rng.uniform(0.35, 0.8)
    slopes = ratio ** np.arange(n_steps - 1)
    levels = np.concatenate(([0.0], np.cumsum(slopes * np.diff(cuts[:-1]))))
    top = rng.uniform(0.7, 1.0)
    levels = levels * (top / levels[-1]) + rng.uniform(0.0, 1.0 - top)
    return parse_problem({
        "lambda0": lambda0,
        "lambda1": lambda1,
        "r": r,
        "cuts": cuts.tolist(),
        "levels": levels.tolist(),
    })
