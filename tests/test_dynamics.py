"""Drift, splits, and discounted reach times."""

from __future__ import annotations

import math

import numpy as np
import pytest

from persuade.dynamics import (
    discounted_time_slide,
    discounted_time_split,
    drift_continuous,
    drift_discrete,
    make_split_signal,
    split_value_linear,
)
from persuade.errors import OutOfRange
from persuade.model import MarkovRates


# --- drift --------------------------------------------------------------------

def test_drift_closed_form_value():
    rates = MarkovRates(1.0, 1.0)
    expected = 0.5 - 0.3 * math.exp(-0.2)
    assert drift_continuous(rates, 0.2, 0.1) == pytest.approx(expected, abs=1e-15)


def test_drift_discrete_matches_continuous():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        rates = MarkovRates(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        p = rng.uniform(0.0, 1.0)
        d = rng.uniform(1e-4, 2.0)
        worst = max(worst, abs(drift_discrete(rates, p, d) - drift_continuous(rates, p, d)))
    assert worst <= 1e-12


def test_drift_moves_toward_stationary_without_crossing():
    rates = MarkovRates(2.0, 3.0)
    p_star = rates.stationary_belief
    for p in (0.0, 0.1, 0.39, 0.41, 0.9, 1.0):
        q = drift_continuous(rates, p, 0.3)
        if p < p_star:
            assert p < q < p_star or p == q
        elif p > p_star:
            assert p_star < q < p
    assert drift_continuous(rates, p_star, 5.0) == pytest.approx(p_star, abs=1e-15)


def test_drift_zero_time_is_identity():
    rates = MarkovRates(1.5, 0.7)
    assert drift_continuous(rates, 0.3, 0.0) == 0.3


def test_drift_argument_checks():
    rates = MarkovRates(1.0, 1.0)
    with pytest.raises(OutOfRange):
        drift_continuous(rates, 1.2, 0.1)
    with pytest.raises(OutOfRange):
        drift_continuous(rates, 0.5, -0.1)
    with pytest.raises(OutOfRange):
        drift_discrete(rates, 0.5, 0.0)


# --- binary splits ------------------------------------------------------------

def test_split_signal_bayes_identities():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = rng.uniform(0.0, 0.98)
        b = rng.uniform(a + 0.01, 1.0)
        q = rng.uniform(max(a, 1e-3), min(b, 1.0 - 1e-3))
        sig = make_split_signal(q, a, b)
        assert abs(sig.prob_high * b + (1.0 - sig.prob_high) * a - q) <= 1e-12
        assert abs(q * sig.beta1 + (1.0 - q) * sig.beta0 - sig.prob_high) <= 1e-12
        # Bayes posterior after the high message lands exactly on b.
        num = q * sig.beta1
        den = q * sig.beta1 + (1.0 - q) * sig.beta0
        if den > 0:
            assert abs(num / den - b) <= 1e-9


def test_split_signal_endpoints():
    sig = make_split_signal(0.5, 0.5, 0.9)
    assert sig.prob_high == 0.0
    sig = make_split_signal(0.9, 0.5, 0.9)
    assert sig.prob_high == 1.0


def test_split_full_disclosure_messages_are_truthful():
    sig = make_split_signal(0.3, 0.0, 1.0)
    assert sig.beta1 == 1.0     # state 1 always reports high
    assert sig.beta0 == 0.0     # state 0 never does
    assert sig.prob_high == pytest.approx(0.3, abs=1e-15)


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
    rt = discounted_time_split(canon_problem, 0.2, 0.4)
    assert rt.y == pytest.approx(0.25, abs=1e-15)          # mu d/(pull + mu d)
    assert rt.intensity == pytest.approx(3.0, abs=1e-12)   # Lambda pull/d
    assert rt.duration is None


def test_split_from_stationary_never_departs(canon_problem):
    rt = discounted_time_split(canon_problem, 0.5, 0.8)
    assert rt.y == 1.0


def test_split_zero_distance(canon_problem):
    assert discounted_time_split(canon_problem, 0.3, 0.3).y == 0.0


def test_split_against_the_pull_raises(canon_problem):
    with pytest.raises(OutOfRange, match="moves against the drift pull"):
        discounted_time_split(canon_problem, 0.2, 0.1)
    with pytest.raises(OutOfRange, match="moves against the drift pull"):
        discounted_time_split(canon_problem, 0.8, 0.9)


def test_slide_reach_time_canon_values(canon_problem):
    rt = discounted_time_slide(canon_problem, 0.2, 0.4)
    assert rt.y == pytest.approx(1.0 - (1.0 / 3.0) ** 0.5, abs=1e-15)
    assert rt.duration == pytest.approx(math.log(3.0) / 2.0, abs=1e-15)
    assert rt.intensity is None


def test_slide_unreachable_targets(canon_problem):
    with pytest.raises(OutOfRange, match="cannot reach"):
        discounted_time_slide(canon_problem, 0.2, 0.5)     # p* itself unattained
    with pytest.raises(OutOfRange, match="cannot reach"):
        discounted_time_slide(canon_problem, 0.2, 0.6)     # beyond p*
    with pytest.raises(OutOfRange, match="cannot reach"):
        discounted_time_slide(canon_problem, 0.2, 0.1)     # against the drift


def test_slide_zero_distance(canon_problem):
    rt = discounted_time_slide(canon_problem, 0.3, 0.3)
    assert rt.y == 0.0 and rt.duration == 0.0


def test_slide_never_faster_than_split(canon_problem):
    rng = np.random.default_rng(17)
    p_star = canon_problem.stationary_belief
    for _ in range(1000):
        p_from = rng.uniform(0.0, 1.0)
        if abs(p_from - p_star) < 1e-6:
            continue
        p_to = p_from + rng.uniform(1e-6, 1.0) * (p_star - p_from) * 0.999
        slide = discounted_time_slide(canon_problem, p_from, p_to)
        split = discounted_time_split(canon_problem, p_from, p_to)
        assert slide.y >= split.y - 1e-12
        assert 0.0 <= split.y <= 1.0 and 0.0 <= slide.y <= 1.0


# --- stationary split value line ----------------------------------------------

def test_split_value_line_endpoint_recursions(canon_problem):
    p_lo, p_hi, u_lo, u_hi = 0.4, 0.6, 0.8, 0.95
    lo_val = split_value_linear(canon_problem, p_lo, p_lo, p_hi, u_lo, u_hi)
    hi_val = split_value_linear(canon_problem, p_hi, p_lo, p_hi, u_lo, u_hi)
    y_up = discounted_time_split(canon_problem, p_lo, p_hi).y
    y_dn = discounted_time_split(canon_problem, p_hi, p_lo).y
    assert lo_val == pytest.approx(y_up * u_lo + (1.0 - y_up) * hi_val, abs=1e-10)
    assert hi_val == pytest.approx(y_dn * u_hi + (1.0 - y_dn) * lo_val, abs=1e-10)


def test_split_value_line_pinned_endpoint(pinned_problem):
    # p* = p_lo: the belief never leaves the low endpoint, so L(p_lo) = u_lo.
    val = split_value_linear(pinned_problem, 0.5, 0.5, 0.8, 0.7, 1.0)
    assert val == pytest.approx(0.7, abs=1e-15)


def test_split_value_line_is_linear(canon_problem):
    ps = np.linspace(0.4, 0.6, 11)
    vals = [split_value_linear(canon_problem, float(p), 0.4, 0.6, 0.8, 0.95) for p in ps]
    assert np.max(np.abs(np.diff(vals, 2))) <= 1e-14


def test_split_value_line_errors(canon_problem):
    with pytest.raises(OutOfRange, match="does not contain p"):
        split_value_linear(canon_problem, 0.7, 0.6, 0.8, 0.9, 1.0)
    with pytest.raises(OutOfRange, match="bracket has zero width"):
        split_value_linear(canon_problem, 0.5, 0.5, 0.5, 0.9, 1.0)
    with pytest.raises(OutOfRange):
        split_value_linear(canon_problem, 0.9, 0.4, 0.6, 0.8, 0.95)
