"""Problem data: two-state switching rates, discounting, and the step payoff.

The receiver's belief p is the probability of state 1.  The sender's flow
payoff is a right-open step function of that belief,

    u(p) = h_i   for p in [c_i, c_{i+1}),   u(1) = h_{n-1},

with cuts 0 = c_0 < c_1 < ... < c_n = 1 and strictly increasing levels
h_0 < ... < h_{n-1}.  Validity additionally requires the points (c_i, h_i)
to be in strictly concave position: each interior point must lie strictly
above the chord of its neighbours.  Under that condition the upper concave
envelope of u is the polyline through the (c_i, h_i), extended flat at
h_{n-1} up to belief 1.

The stationary belief of the chain is p* = lambda0/(lambda0+lambda1) and
the single dimensionless parameter of every closed form is the ratio
mu = r/(lambda0+lambda1) of discounting to switching speed.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, ProblemValidationError

__all__ = [
    "PIN_TOLERANCE",
    "MarkovRates",
    "Discounting",
    "StepPayoff",
    "Problem",
    "parse_problem",
    "load_problem",
    "problem_to_dict",
]

#: p* counts as sitting exactly on a cut when the distance is at most this.
PIN_TOLERANCE = 1e-12

#: Strict-concavity slack: an interior (cut, level) point must clear the
#: chord of its neighbours by more than this.
_ENVELOPE_SLACK = 1e-12

#: Cuts closer together than this are rejected as duplicates.
_DUPLICATE_TOL = 1e-12


def _is_number(x) -> bool:
    """An int or float (not a bool) with a finite float value."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:       # an int beyond float range
        return False


def _integer(name: str, value) -> int:
    """value as an int if it is a Python or numpy integer (not a bool), else OutOfRange naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise OutOfRange(f"{name} must be an integer, got {value!r}")


def _locate(p, breaks=None, side: str = "right"):
    """Range-check beliefs and find the piece of a partition of [0, 1] holding each.

    breaks holds the left ends of consecutive pieces, the first at 0.  With
    side "right" piece i is [breaks[i], breaks[i+1]); with "left" it is
    (breaks[i], breaks[i+1]], the piece a left limit reads.  The first piece
    is closed at 0 and the last at 1.

    Returns (x, i): a float and an int for scalar p, otherwise a float array
    and an index array; i is None without breaks.  Raises OutOfRange unless
    every belief lies in [0, 1], which NaN does not.
    """
    x = np.asarray(p, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        raise OutOfRange(f"belief outside [0, 1]: {float(x[~inside][0])!r}")
    i = None if breaks is None else np.maximum(np.searchsorted(breaks, x, side=side) - 1, 0)
    if x.ndim == 0:
        return float(x), None if i is None else int(i)
    return x, i


@dataclass(frozen=True, slots=True)
class MarkovRates:
    """Switching intensities of the hidden chain: lambda0 is 0->1, lambda1 is 1->0."""

    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        for name, value in (("lambda0", self.lambda0), ("lambda1", self.lambda1)):
            if not _is_number(value) or value <= 0.0:
                raise ProblemValidationError([f"rate {name} must be a finite positive number, got {value!r}"])

    @property
    def switch_rate(self) -> float:
        """Total relaxation rate lambda0 + lambda1 of the belief drift."""
        return self.lambda0 + self.lambda1

    @property
    def stationary_belief(self) -> float:
        """Invariant probability of state 1: lambda0 / (lambda0 + lambda1)."""
        return self.lambda0 / self.switch_rate


@dataclass(frozen=True, slots=True)
class Discounting:
    """Sender's exponential discount rate r > 0."""

    r: float

    def __post_init__(self) -> None:
        if not _is_number(self.r) or self.r <= 0.0:
            raise ProblemValidationError([f"discount rate r must be a finite positive number, got {self.r!r}"])


@dataclass(frozen=True, slots=True)
class StepPayoff:
    """Right-open step payoff with its upper concave envelope.

    cuts has one more entry than levels; interval i is [cuts[i], cuts[i+1])
    with value levels[i], and the last interval is closed at 1.
    """

    cuts: tuple[float, ...]
    levels: tuple[float, ...]
    _cuts: np.ndarray = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _levels: np.ndarray = field(init=False, repr=False, compare=False)
    _env_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Check the types before converting: float() would take "0.5" or raise bare errors.
        cuts, levels = tuple(self.cuts), tuple(self.levels)
        for name, values in (("cuts", cuts), ("levels", levels)):
            if not all(map(_is_number, values)):
                raise ProblemValidationError([f"{name} must all be finite numbers"])
        cuts, levels = tuple(map(float, cuts)), tuple(map(float, levels))
        _check_support(cuts, levels)
        _check_levels(levels)
        _check_envelope(cuts, levels)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_cuts", np.array(cuts))
        object.__setattr__(self, "_starts", self._cuts[:-1])
        object.__setattr__(self, "_levels", np.array(levels))
        # Envelope vertices: the (cut, level) points, the last cut 1 carrying
        # the top level as the flat extension.
        object.__setattr__(self, "_env_y", np.array(levels + (levels[-1],)))

    @property
    def n_steps(self) -> int:
        return len(self.levels)

    def value(self, p):
        """u(p) with the closed-left convention; u(1) = top level."""
        x, i = _locate(p, self._starts)
        return self.levels[i] if isinstance(x, float) else self._levels[i]

    def left_value(self, p):
        """Left limit u(p-); at p = 0 this is just h_0."""
        x, i = _locate(p, self._starts, side="left")
        return self.levels[i] if isinstance(x, float) else self._levels[i]

    def envelope(self, p):
        """Upper concave envelope of u: the polyline through the (cut, level) points."""
        x, _ = _locate(p)
        out = np.interp(x, self._cuts, self._env_y)
        return float(out) if isinstance(x, float) else out


def _check_support(cuts: tuple[float, ...], levels: tuple[float, ...]) -> None:
    problems = []
    if len(cuts) < 2:
        problems.append(f"need at least 2 cuts, got {len(cuts)}")
    else:
        if cuts[0] != 0.0:
            problems.append(f"first cut must be 0, got {cuts[0]}")
        if cuts[-1] != 1.0:
            problems.append(f"last cut must be 1, got {cuts[-1]}")
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= _DUPLICATE_TOL:
                problems.append(f"cuts {a} and {b} are not increasing (or closer than {_DUPLICATE_TOL})")
    if len(levels) != len(cuts) - 1:
        problems.append(f"expected {len(cuts) - 1} levels for {len(cuts)} cuts, got {len(levels)}")
    if problems:
        raise ProblemValidationError(["; ".join(problems)])


def _check_levels(levels: tuple[float, ...]) -> None:
    for i, (a, b) in enumerate(zip(levels, levels[1:])):
        if b <= a:
            raise ProblemValidationError([f"levels must strictly increase: levels[{i}]={a} >= levels[{i + 1}]={b}"])


def _check_envelope(cuts: tuple[float, ...], levels: tuple[float, ...]) -> None:
    # Each interior (cut, level) point must sit strictly above the chord of
    # its neighbours; collinear triples (within the slack) are rejected.
    bad = []
    for i in range(len(levels) - 2):
        x0, x1, x2 = cuts[i], cuts[i + 1], cuts[i + 2]
        y0, y1, y2 = levels[i], levels[i + 1], levels[i + 2]
        chord = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
        if y1 - chord <= _ENVELOPE_SLACK:
            bad.append(
                f"point ({x1}, {y1}) is not strictly above the chord from "
                f"({x0}, {y0}) to ({x2}, {y2})"
            )
    if bad:
        raise ProblemValidationError(["; ".join(bad)])


@dataclass(frozen=True, slots=True)
class Problem:
    """A validated instance: rates, discounting, and the step payoff.

    pivot is the index k of the payoff interval containing p*:
    cuts[k] <= p* < cuts[k+1].  When p* sits within PIN_TOLERANCE of a cut,
    that cut's interval wins (the pinned regime).
    """

    rates: MarkovRates
    discounting: Discounting
    payoff: StepPayoff
    pivot: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, switch_rate = self.discounting.r, self.rates.switch_rate
        if not 0.0 < r / switch_rate < math.inf:
            raise ProblemValidationError([
                f"mu = r / (lambda0 + lambda1) = {r!r} / {switch_rate!r} must be a finite positive number"])
        # Cuts are more than PIN_TOLERANCE apart, so only the cut just above
        # p*'s interval can be near p* besides the interval's own left cut.
        p_star = self.stationary_belief
        cuts = self.payoff.cuts
        k = _locate(p_star, self.payoff._starts)[1]
        if abs(p_star - cuts[k]) > PIN_TOLERANCE and k + 1 < self.payoff.n_steps \
                and abs(p_star - cuts[k + 1]) <= PIN_TOLERANCE:
            k += 1
        object.__setattr__(self, "pivot", k)

    @property
    def stationary_belief(self) -> float:
        return self.rates.stationary_belief

    @property
    def discount_ratio(self) -> float:
        """mu = r / (lambda0 + lambda1)."""
        return self.discounting.r / self.rates.switch_rate

    @property
    def pinned(self) -> bool:
        """True when p* coincides with a cut (within PIN_TOLERANCE)."""
        return abs(self.stationary_belief - self.payoff.cuts[self.pivot]) <= PIN_TOLERANCE

    @property
    def intervals_above(self) -> int:
        """Number of payoff intervals from the pivot interval up to 1."""
        return self.payoff.n_steps - self.pivot


_SCHEMA_FIELDS = ("lambda0", "lambda1", "r", "cuts", "levels")


def parse_problem(raw) -> Problem:
    """Parse the JSON document form: exactly the five schema fields, no extras."""
    problems = []
    if not isinstance(raw, dict):
        raise ProblemValidationError([f"problem document must be a JSON object, got {type(raw).__name__}"])
    for key in _SCHEMA_FIELDS:
        if key not in raw:
            problems.append(f"missing field {key!r}")
    for key in raw:
        if key not in _SCHEMA_FIELDS:
            problems.append(f"unknown field {key!r}")
    if problems:
        raise ProblemValidationError(problems)
    for key in ("lambda0", "lambda1", "r"):
        if not _is_number(raw[key]):
            problems.append(f"field {key!r} must be a finite number, got {raw[key]!r}")
    for key in ("cuts", "levels"):
        if not isinstance(raw[key], list) or not all(_is_number(x) for x in raw[key]):
            problems.append(f"field {key!r} must be a list of finite numbers")
    if problems:
        raise ProblemValidationError(problems)
    return Problem(
        rates=MarkovRates(float(raw["lambda0"]), float(raw["lambda1"])),
        discounting=Discounting(float(raw["r"])),
        payoff=StepPayoff(raw["cuts"], raw["levels"]),
    )


def load_problem(path) -> Problem:
    """Read and parse a problem JSON file.  OS errors propagate to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # bad JSON, or an int with more digits than int() reads
            raise ProblemValidationError([f"not valid JSON: {exc}"]) from exc
    return parse_problem(raw)


def problem_to_dict(problem: Problem) -> dict:
    """Inverse of parse_problem; round-trips exactly."""
    return {
        "lambda0": problem.rates.lambda0,
        "lambda1": problem.rates.lambda1,
        "r": problem.discounting.r,
        "cuts": list(problem.payoff.cuts),
        "levels": list(problem.payoff.levels),
    }
