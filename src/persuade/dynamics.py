"""Belief kinetics: no-information drift, binary splits, the split reach time.

Without information the belief relaxes exponentially toward the stationary
belief p* at the total switch rate Lambda = lambda0 + lambda1:

    p_t = p* + (p_0 - p*) e^{-Lambda t}.

A binary split of a prior q into posteriors {a, b} with a <= q <= b keeps the
belief a martingale; the implementing signal sends the "high" message with
probability beta1 in state 1 and beta0 in state 0, chosen so Bayes updating
lands exactly on b (high) or a (low).

Repeated splitting that holds the belief at p_from and jumps to p_to at the
compensating intensity has the normalized discounted wait
Y = E[1 - e^{-r T}] = mu d / (p* - p_from + mu d), with d = p_to - p_from and
mu = r / Lambda.  Silent sliding reaches p_to at the deterministic time
ln((p* - p_from)/(p* - p_to)) / Lambda; its wait is the power of the
solver's slide arc, and it is never shorter in discounted terms.
"""

from __future__ import annotations

import math

from .errors import OutOfRange
from .model import Problem

__all__ = [
    "period_law",
    "make_split_signal",
    "discounted_time_split",
]

_BAYES_TOL = 1e-12


def _check_belief(name: str, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"{name} outside [0, 1]: {p!r}")


def _check_period(delta: float) -> None:
    if not delta > 0.0:
        raise OutOfRange(f"period length must be positive, got {delta!r}")


def period_law(problem: Problem, delta: float) -> tuple[float, float, float]:
    """Silent drift p -> a + b p and discount factor x = e^{-r delta} of one period.

    With mix = 1 - e^{-Lambda delta} (from expm1, so exact to rounding at any
    Lambda delta) the chain switches 0->1 within a period with probability
    a = p* mix and 1->0 with probability (1 - p*) mix, so a prior p drifts to
    p (1 - (1 - p*) mix) + (1 - p) a = a + b p, the silent drift
    p* + (p - p*) e^{-Lambda delta} after one period.  The period length must
    be positive, which NaN is not, and OutOfRange is raised when x rounds to
    1: the payoff weight 1 - x is then zero, value iteration and the policy's
    linear system have no unique solution, and no horizon bounds a
    simulation's truncation.
    """
    _check_period(delta)
    p_star = problem.stationary_belief
    mix = -math.expm1(-problem.rates.switch_rate * delta)
    a = p_star * mix
    x = math.exp(-problem.discounting.r * delta)
    if x == 1.0:
        raise OutOfRange(f"period length {delta!r} is too short: the discount factor "
                         "exp(-r delta) rounds to 1")
    return a, (1.0 - (1.0 - p_star) * mix) - a, x


def make_split_signal(q: float, a: float, b: float) -> tuple[float, float]:
    """Signal splitting prior q into posteriors a (low) and b (high): (beta0, beta1).

    beta_s is the probability of the high message in state s:
    beta1 = b(q-a) / (q(b-a)) and beta0 = (1-b)(q-a) / ((1-q)(b-a)).  By
    construction the high-message posterior is exactly b, the low-message
    posterior exactly a, and the total high probability is (q-a)/(b-a).
    """
    for name, value in (("prior", q), ("low target", a), ("high target", b)):
        _check_belief(name, value)
    if a == b:
        raise OutOfRange(f"split bracket has zero width at {a}")
    if not (a <= q <= b):
        raise OutOfRange(f"prior {q} outside bracket [{a}, {b}]")
    if q <= 0.0 or q >= 1.0:
        raise OutOfRange(f"conditional message probabilities undefined at degenerate prior {q}")
    width = b - a
    prob_high = (q - a) / width
    beta1 = b * (q - a) / (q * width)
    beta0 = (1.0 - b) * (q - a) / ((1.0 - q) * width)
    # Bayes consistency; violations here would mean a coding error, not bad input.
    assert -_BAYES_TOL <= prob_high <= 1.0 + _BAYES_TOL
    assert abs(q * beta1 + (1.0 - q) * beta0 - prob_high) <= _BAYES_TOL
    assert abs(prob_high * b + (1.0 - prob_high) * a - q) <= _BAYES_TOL
    return beta0, beta1


def discounted_time_split(problem: Problem, p_from: float, p_to: float) -> float:
    """Discounted wait when holding at p_from by repeated splits toward p_to.

    Y = mu (p_to - p_from) / (p* - p_from + mu (p_to - p_from)).  Defined
    whenever the jump direction agrees with the drift pull (the compensating
    intensity Lambda (p* - p_from)/(p_to - p_from) is then positive); the
    target may lie on either side of p*.  p_from = p* never departs (Y = 1);
    p_to = p_from departs immediately (Y = 0).
    """
    _check_belief("p_from", p_from)
    _check_belief("p_to", p_to)
    p_star = problem.stationary_belief
    mu = problem.discount_ratio
    d = p_to - p_from
    pull = p_star - p_from
    if d == 0.0:
        return 0.0
    if pull * d < 0.0:
        raise OutOfRange(
            f"split from {p_from} to {p_to} moves against the drift pull (p* = {p_star})"
        )
    return mu * d / (pull + mu * d)
