"""Belief kinetics: no-information drift, binary splits, discounted reach times.

Without information the belief relaxes exponentially toward the stationary
belief p* at the total switch rate Lambda = lambda0 + lambda1:

    p_t = p* + (p_0 - p*) e^{-Lambda t}.

A binary split of a prior q into posteriors {a, b} with a <= q <= b keeps the
belief a martingale; the implementing signal sends the "high" message with
probability beta1 in state 1 and beta0 in state 0, chosen so Bayes updating
lands exactly on b (high) or a (low).

Reach times enter all closed forms through the normalized discounted wait
Y = E[1 - e^{-r T}] until the belief moves from p_from to p_to:

  * repeated splitting that holds the belief at p_from and jumps to p_to at
    the compensating intensity gives  Y = mu d / (p* - p_from + mu d)  with
    d = p_to - p_from and mu = r / Lambda;
  * silent sliding reaches p_to at the deterministic time
    tau = ln((p* - p_from)/(p* - p_to)) / Lambda, giving
    Y = 1 - ((p* - p_to)/(p* - p_from))^mu.

Sliding is the slower route in discounted terms: Y_slide >= Y_split whenever
both are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange
from .model import MarkovRates, Problem

__all__ = [
    "drift_continuous",
    "drift_discrete",
    "drift_map",
    "SplitSignal",
    "make_split_signal",
    "ReachTime",
    "discounted_time_split",
    "discounted_time_slide",
    "split_value_linear",
]

_BAYES_TOL = 1e-12


def _check_belief(name: str, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"{name} outside [0, 1]: {p!r}")


def drift_continuous(rates: MarkovRates, p: float, t: float) -> float:
    """Belief after sliding silently for time t >= 0."""
    _check_belief("p", p)
    if t < 0.0:
        raise OutOfRange(f"time must be nonnegative, got {t!r}")
    p_star = rates.stationary_belief
    return p_star + (p - p_star) * math.exp(-rates.switch_rate * t)


def drift_discrete(rates: MarkovRates, p: float, delta: float) -> float:
    """One-period no-information posterior.

    Computed through the period transition probabilities of the chain,
    P(0->1) = p*(1 - e^{-Lambda delta}) and P(1->0) = (1-p*)(1 - e^{-Lambda delta}),
    which makes this algebraically identical to drift_continuous(p, delta).
    Both forms are kept as a cross-check.
    """
    _check_belief("p", p)
    if delta <= 0.0:
        raise OutOfRange(f"period length must be positive, got {delta!r}")
    p_star = rates.stationary_belief
    mix = 1.0 - math.exp(-rates.switch_rate * delta)
    up = p_star * mix          # P(state 0 -> 1 within the period)
    down = (1.0 - p_star) * mix  # P(state 1 -> 0)
    return p * (1.0 - down) + (1.0 - p) * up


def drift_map(rates: MarkovRates, delta: float) -> tuple[float, float]:
    """Affine per-period drift coefficients (a, b): p -> a + b p.

    The no-information posterior is affine in the prior, so the two endpoint
    evaluations of drift_discrete determine it everywhere.
    """
    a = drift_discrete(rates, 0.0, delta)
    return a, drift_discrete(rates, 1.0, delta) - a


@dataclass(frozen=True, slots=True)
class SplitSignal:
    """Binary Bayes-plausible split of prior into {low_target, high_target}."""

    prior: float
    low_target: float
    high_target: float
    prob_high: float
    beta1: float  # P(high message | state 1)
    beta0: float  # P(high message | state 0)


def make_split_signal(q: float, a: float, b: float) -> SplitSignal:
    """Signal splitting prior q into posteriors a (low) and b (high).

    beta1 = b(q-a) / (q(b-a)) and beta0 = (1-b)(q-a) / ((1-q)(b-a)); by
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
    sig = SplitSignal(prior=q, low_target=a, high_target=b,
                      prob_high=prob_high, beta1=beta1, beta0=beta0)
    # Bayes consistency; violations here would mean a coding error, not bad input.
    assert -_BAYES_TOL <= prob_high <= 1.0 + _BAYES_TOL
    assert abs(q * beta1 + (1.0 - q) * beta0 - prob_high) <= _BAYES_TOL
    assert abs(prob_high * b + (1.0 - prob_high) * a - q) <= _BAYES_TOL
    return sig


@dataclass(frozen=True, slots=True)
class ReachTime:
    """Discounted wait for a belief move from p_from to p_to.

    y is the normalized discounted time E[1 - e^{-rT}] in [0, 1]; intensity
    is the compensating jump rate of the split route (None for slides);
    duration is the deterministic slide time (None for splits).
    """

    p_from: float
    p_to: float
    y: float
    intensity: float | None = None
    duration: float | None = None


def discounted_time_split(problem: Problem, p_from: float, p_to: float) -> ReachTime:
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
        return ReachTime(p_from, p_to, y=0.0, intensity=math.inf)
    if pull * d < 0.0:
        raise OutOfRange(
            f"split from {p_from} to {p_to} moves against the drift pull (p* = {p_star})"
        )
    y = mu * d / (pull + mu * d)
    intensity = problem.switch_rate * pull / d
    return ReachTime(p_from, p_to, y=y, intensity=intensity)


def discounted_time_slide(problem: Problem, p_from: float, p_to: float) -> ReachTime:
    """Discounted wait for the silent drift from p_from to p_to.

    Requires p_to strictly between p_from and p* (drift approaches p* but
    never attains it).  tau = ln((p*-p_from)/(p*-p_to)) / Lambda and
    Y = 1 - ((p*-p_to)/(p*-p_from))^mu.
    """
    _check_belief("p_from", p_from)
    _check_belief("p_to", p_to)
    if p_to == p_from:
        return ReachTime(p_from, p_to, y=0.0, duration=0.0)
    p_star = problem.stationary_belief
    gap_from = p_star - p_from
    gap_to = p_star - p_to
    between = (p_from < p_to < p_star) or (p_star < p_to < p_from)
    if not between:
        raise OutOfRange(
            f"slide from {p_from} cannot reach {p_to} (p* = {p_star}); "
            "drift converges to p* without attaining it"
        )
    ratio = gap_to / gap_from
    tau = math.log(gap_from / gap_to) / problem.switch_rate
    y = 1.0 - ratio ** problem.discount_ratio
    return ReachTime(p_from, p_to, y=y, duration=tau)


def split_value_linear(problem: Problem, p: float, p_lo: float, p_hi: float,
                       u_lo: float, u_hi: float) -> float:
    """Value line of the stationary two-point split on a bracket straddling p*.

    The policy that splits every belief in [p_lo, p_hi] to the endpoints,
    earning u_lo at p_lo and u_hi at p_hi, has the linear value

        L(p) = [u_lo (p_hi (mu+1) - p*) + u_hi (p* - p_lo (mu+1))
                + p mu (u_hi - u_lo)] / ((p_hi - p_lo)(mu+1)).

    L satisfies the endpoint recursions L(end) = Y u(end) + (1-Y) L(other)
    with the split reach times in both directions.
    """
    if p_lo == p_hi:
        raise OutOfRange(f"bracket has zero width at {p_lo}")
    _check_belief("p_lo", p_lo)
    _check_belief("p_hi", p_hi)
    p_star = problem.stationary_belief
    if not (p_lo <= p_star <= p_hi):
        raise OutOfRange(f"bracket [{p_lo}, {p_hi}] does not contain p* = {p_star}")
    if not (p_lo <= p <= p_hi):
        raise OutOfRange(f"belief {p} outside bracket [{p_lo}, {p_hi}]")
    mu = problem.discount_ratio
    denom = (p_hi - p_lo) * (mu + 1.0)
    intercept = (u_lo * (p_hi * (mu + 1.0) - p_star) + u_hi * (p_star - p_lo * (mu + 1.0))) / denom
    slope = mu * (u_hi - u_lo) / denom
    return intercept + slope * p
