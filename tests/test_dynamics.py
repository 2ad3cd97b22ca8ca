"""Drift, splits, and discounted reach times."""

from __future__ import annotations

import math

import numpy as np
import pytest

from persuade.dynamics import (
    discounted_time_split,
    make_split_signal,
    period_law,
)
from persuade.errors import OutOfRange
from persuade.model import Discounting, MarkovRates, Problem, StepPayoff

from conftest import slide_reach_time


# --- drift --------------------------------------------------------------------

def continuous_drift(rates, p, t):
    """Reference: the silent drift p* + (p - p*) e^{-Lambda t}."""
    p_star = rates.stationary_belief
    return p_star + (p - p_star) * math.exp(-rates.switch_rate * t)


def on_rates(rates):
    """A flat-payoff problem on the given rates: the drift depends on nothing else."""
    return Problem(rates, Discounting(1.0), StepPayoff((0.0, 1.0), (0.6,)))


def drift(rates, p, delta):
    a, b = period_law(on_rates(rates), delta)[:2]
    return a + b * p


def test_drift_closed_form_value():
    rates = MarkovRates(1.0, 1.0)
    expected = 0.5 - 0.3 * math.exp(-0.2)
    assert drift(rates, 0.2, 0.1) == pytest.approx(expected, abs=1e-15)


def test_drift_map_matches_continuous():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        rates = MarkovRates(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        p = rng.uniform(0.0, 1.0)
        d = rng.uniform(1e-4, 2.0)
        worst = max(worst, abs(drift(rates, p, d) - continuous_drift(rates, p, d)))
    assert worst <= 1e-12


def test_drift_moves_toward_stationary_without_crossing():
    rates = MarkovRates(2.0, 3.0)
    p_star = rates.stationary_belief
    for p in (0.0, 0.1, 0.39, 0.41, 0.9, 1.0):
        q = drift(rates, p, 0.3)
        if p < p_star:
            assert p < q < p_star or p == q
        elif p > p_star:
            assert p_star < q < p
    assert drift(rates, p_star, 5.0) == pytest.approx(p_star, abs=1e-15)


@pytest.mark.parametrize("total", [2e-14, 1e-9, 1e-5, 0.1])
def test_drift_map_keeps_precision_at_short_periods(total):
    # a = p* (1 - e^{-Lambda delta}); the reference sums the series of
    # 1 - e^{-t}, which 1 - exp(-t) would miss in its low digits.
    rates = MarkovRates(total / 0.02, total / 0.02)
    t = rates.switch_rate * 0.01
    mix = math.fsum((-1.0) ** (k + 1) * t ** k / math.factorial(k) for k in range(1, 20))
    a, b = period_law(on_rates(rates), 0.01)[:2]
    assert a == pytest.approx(0.5 * mix, rel=1e-15, abs=0.0)
    assert a + b == pytest.approx(1.0 - 0.5 * mix, rel=1e-15, abs=0.0)


def test_drift_argument_checks():
    rates = MarkovRates(1.0, 1.0)
    for delta in (0.0, -0.1, math.nan):
        with pytest.raises(OutOfRange, match="period length must be positive"):
            period_law(on_rates(rates), delta)


# --- binary splits ------------------------------------------------------------

def test_split_signal_bayes_identities():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = rng.uniform(0.0, 0.98)
        b = rng.uniform(a + 0.01, 1.0)
        q = rng.uniform(max(a, 1e-3), min(b, 1.0 - 1e-3))
        beta0, beta1 = make_split_signal(q, a, b)
        prob_high = q * beta1 + (1.0 - q) * beta0
        assert abs(prob_high - (q - a) / (b - a)) <= 1e-12
        assert abs(prob_high * b + (1.0 - prob_high) * a - q) <= 1e-12
        # Bayes posteriors after the high and the low message land on b and a.
        if prob_high > 0:
            assert abs(q * beta1 / prob_high - b) <= 1e-9
        if prob_high < 1:
            assert abs(q * (1.0 - beta1) / (1.0 - prob_high) - a) <= 1e-9


def test_split_signal_endpoints():
    # A prior on the low target never sends high; one on the high target always does.
    assert make_split_signal(0.5, 0.5, 0.9) == (0.0, 0.0)
    assert make_split_signal(0.9, 0.5, 0.9) == (1.0, 1.0)


def test_split_full_disclosure_messages_are_truthful():
    beta0, beta1 = make_split_signal(0.3, 0.0, 1.0)
    assert beta1 == 1.0     # state 1 always reports high
    assert beta0 == 0.0     # state 0 never does


def test_split_signal_errors():
    with pytest.raises(OutOfRange, match="split bracket has zero width"):
        make_split_signal(0.5, 0.5, 0.5)
    with pytest.raises(OutOfRange, match="prior 0.9 outside bracket"):
        make_split_signal(0.9, 0.2, 0.6)
    with pytest.raises(OutOfRange):
        make_split_signal(0.0, 0.0, 0.5)    # conditional probs undefined at 0
    with pytest.raises(OutOfRange):
        make_split_signal(0.5, -0.1, 0.9)


# --- discounted reach times ---------------------------------------------------

def test_split_reach_time_canon_values(canon_problem):
    y = discounted_time_split(canon_problem, 0.2, 0.4)
    assert y == pytest.approx(0.25, abs=1e-15)          # mu d/(pull + mu d)


def test_split_from_stationary_never_departs(canon_problem):
    assert discounted_time_split(canon_problem, 0.5, 0.8) == 1.0


def test_split_zero_distance(canon_problem):
    assert discounted_time_split(canon_problem, 0.3, 0.3) == 0.0


def test_split_against_the_pull_raises(canon_problem):
    with pytest.raises(OutOfRange, match="moves against the drift pull"):
        discounted_time_split(canon_problem, 0.2, 0.1)
    with pytest.raises(OutOfRange, match="moves against the drift pull"):
        discounted_time_split(canon_problem, 0.8, 0.9)


def test_slide_never_faster_than_split(canon_problem):
    rng = np.random.default_rng(17)
    p_star = canon_problem.stationary_belief
    for _ in range(1000):
        p_from = rng.uniform(0.0, 1.0)
        if abs(p_from - p_star) < 1e-6:
            continue
        p_to = p_from + rng.uniform(1e-6, 1.0) * (p_star - p_from) * 0.999
        slide = slide_reach_time(canon_problem, p_from, p_to)
        split = discounted_time_split(canon_problem, p_from, p_to)
        assert slide >= split - 1e-12
        assert 0.0 <= split <= 1.0 and 0.0 <= slide <= 1.0
