"""Closed-form value function and optimal disclosure policy.

The construction runs outward from the payoff interval containing the
stationary belief p* (cuts p_0 = c_k <= p* < p_1 = c_{k+1}):

  * center: the stationary two-point split on [p_0, p_1] gives a linear
    value (see _solve_center);
  * below p_0: walking left over cuts, the hold-and-jump recursion
    v(c_i) = Y h_i + (1-Y) v(c_{i+1}) with the split reach time Y, and the
    value is linear between consecutive cuts (immediate split);
  * above p_1: on each interval [p_j, p_{j+1}] the value starts as a slide
    arc anchored at its left cut,

        w(p) = h_j + (v(p_j) - h_j) ((p_j - p*)/(p - p*))^mu,

    which solves w'(p)(p - p*) + mu (w(p) - h_j) = 0 exactly (the ratio is
    at most 1, so no power overflows), and switches at a cutoff q_j to a
    straight segment reaching the next cut.  The cutoff is the root of the
    smooth-pasting residual

        F(q) = w(q) + w'(q)(p_{j+1} - q) - h_{j+1} + w'(q)(p_{j+1} - p*)/mu
             = h_j - h_{j+1} + (mu + 1)(w'(q)/mu)(p_{j+1} - q),

    which simultaneously enforces tangency of the straight piece at q and
    the corner condition  slope = mu (h_{j+1} - v(p_{j+1})) / (p_{j+1} - p*)
    at the next cut.  dF/dq = w''(q)((p_{j+1} - q) + (p_{j+1} - p*)/mu) < 0
    because v(p_j) < h_j makes the arc strictly concave, so F has exactly one
    root on [p_j, p_{j+1}] when F(p_j) > 0 > F(p_{j+1}) = h_j - h_{j+1}, and
    none otherwise.  The top interval slides all the way to 1.

Splitting at a region's own left endpoint is a no-op (the low posterior
equals the point itself), so the half-open region encoding below assigns
slide-equivalent behavior at every cutoff boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, ProblemValidationError, SolverError
from .model import PIN_TOLERANCE, Problem, _integer, _is_number, _locate, problem_to_dict
from .dynamics import discounted_time_split

__all__ = [
    "ValueSegment",
    "PiecewiseValue",
    "PolicyRegion",
    "MarkovPolicy",
    "Solution",
    "solve",
    "verify_solution",
    "VerificationReport",
    "Violation",
]

_CONTINUITY_TOL = 1e-10
_CONCAVITY_TOL = 1e-8
_MONOTONE_TOL = 1e-10
# verify_solution's threshold on the floor, balance, binding and pasting gaps.
_VERIFY_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class ValueSegment:
    """One piece of the value function on [lo, hi].

    kind "linear": value = intercept + slope * p.
    kind "slide_arc": value = level + (start - level) * ratio^exponent with
    ratio = (lo - center) / (p - center), so start is the value at lo; the
    segment lies strictly above the center (lo - center > 0).
    at(p) gives the value and the slope together, from one power on an arc.
    """

    lo: float
    hi: float
    kind: str
    intercept: float = 0.0
    slope: float = 0.0
    level: float = 0.0
    start: float = 0.0
    center: float = 0.0
    exponent: float = 0.0

    @staticmethod
    def linear(lo: float, hi: float, intercept: float, slope: float) -> "ValueSegment":
        return ValueSegment(lo=lo, hi=hi, kind="linear", intercept=intercept, slope=slope)

    @staticmethod
    def slide_arc(lo: float, hi: float, level: float, start: float,
                  center: float, exponent: float) -> "ValueSegment":
        if lo <= center:
            raise SolverError(f"slide arc must lie strictly above its center: lo={lo}, center={center}")
        return ValueSegment(lo=lo, hi=hi, kind="slide_arc", level=level,
                            start=start, center=center, exponent=exponent)

    def at(self, p):
        """(value, slope) at p; a line's slope is its constant, which callers broadcast."""
        x = np.asarray(p, dtype=float)
        if self.kind == "linear":
            return self.intercept + self.slope * x, self.slope
        gap = x - self.center
        decay = ((self.lo - self.center) / gap) ** self.exponent
        return (self.level + (self.start - self.level) * decay,
                self.exponent * (self.level - self.start) * decay / gap)

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"lo": self.lo, "hi": self.hi, "kind": "linear",
                    "intercept": self.intercept, "slope": self.slope}
        return {"lo": self.lo, "hi": self.hi, "kind": "slide_arc", "level": self.level,
                "start": self.start, "center": self.center, "exponent": self.exponent}


class PiecewiseValue:
    """Ordered segments covering [0, 1].

    Construction checks the structure (order, coverage, no empty segment)
    and that each segment's value and slope at its ends are finite numbers,
    raising SolverError naming the first segment that fails.  It checks no
    shape rule, so that deliberately misshapen values can still be fed to
    verify_solution; the solver additionally runs check_shape on its output.
    """

    __slots__ = ("segments", "_los", "_ends")

    def __init__(self, segments):
        segments = tuple(segments)
        if not segments:
            raise SolverError("no segments")
        if segments[0].lo != 0.0 or segments[-1].hi != 1.0:
            raise SolverError("segments must cover [0, 1]")
        for a, b in zip(segments, segments[1:]):
            if a.hi != b.lo:
                raise SolverError(f"segment gap between {a.hi} and {b.lo}")
        for seg in segments:
            if not seg.lo < seg.hi:
                raise SolverError(f"segment [{seg.lo}, {seg.hi}] is empty")
        self.segments = segments
        self._los = np.array([s.lo for s in segments])
        # lo, hi, v(lo), v'(lo), v(hi), v'(hi) per segment: the shape rules read only these.
        with np.errstate(all="ignore"):
            self._ends = np.array([(s.lo, s.hi, *s.at(s.lo), *s.at(s.hi)) for s in segments])
        # A NaN passes every comparison the shape rules and verify_solution make.
        finite = np.isfinite(self._ends).all(axis=1)
        if not finite.all():
            seg = segments[int(np.argmin(finite))]
            raise SolverError(f"segment [{seg.lo}, {seg.hi}] has a value or slope at its ends "
                              "that is not a finite number")

    def value(self, p):
        return self._evaluate(p, "right")[0]

    def derivative(self, p, side: str = "right"):
        """One-sided derivative; 'left' picks the earlier segment at junctions."""
        return self._evaluate(p, side)[1]

    def _evaluate(self, p, side: str):
        """(value, slope) from the segment holding each belief."""
        x, idx = _locate(p, self._los, side)
        if isinstance(x, float):
            v, d = self.segments[idx].at(x)
            return float(v), float(d)
        # A stable sort keeps each segment's beliefs in their input order, so
        # every segment sees the same array as a per-segment mask would give.
        flat, idx = x.ravel(), idx.ravel()
        order = np.argsort(idx, kind="stable")
        bounds = np.searchsorted(idx[order], np.arange(len(self.segments) + 1)).tolist()
        v, d = np.empty_like(flat), np.empty_like(flat)
        for seg, a, b in zip(self.segments, bounds, bounds[1:]):
            if a < b:
                at = order[a:b]
                v[at], d[at] = seg.at(flat[at])
        return v.reshape(x.shape), d.reshape(x.shape)

    def _shape_violations(self):
        """(condition, belief, magnitude, message) per breach of a shape rule, exact.

        Jumps and convex kinks at junctions, then decreasing and convex segments:
        a segment kind has one curvature sign, so its end slopes decide both.
        """
        lo, hi, v_lo, d_lo, v_hi, d_hi = self._ends.T.tolist()
        out = [("continuity", p, gap, f"value discontinuity {gap:.3e} at {p}")
               for p, a, b in zip(hi, v_hi, v_lo[1:]) if (gap := abs(a - b)) > _CONTINUITY_TOL]
        out += [("concavity", p, right - left, f"convex kink at {p}: left slope {left}, right slope {right}")
                for p, left, right in zip(hi, d_hi, d_lo[1:]) if right - left > _CONCAVITY_TOL]
        out += [("monotonicity", b if sb < sa else a, -min(sa, sb), f"decreasing value on segment ending at {b}")
                for a, b, sa, sb in zip(lo, hi, d_lo, d_hi) if min(sa, sb) < -_MONOTONE_TOL]
        out += [("concavity", a, sb - sa, f"convex segment [{a}, {b}]: slope {sa} at lo, {sb} at hi")
                for a, b, sa, sb in zip(lo, hi, d_lo, d_hi) if sb - sa > _CONCAVITY_TOL]
        return out

    def check_shape(self) -> None:
        """Raise the first breach of continuity, concavity or monotonicity."""
        violations = self._shape_violations()
        if violations:
            raise SolverError(violations[0][3])


@dataclass(frozen=True, slots=True)
class PolicyRegion:
    """Action on [lo, hi): either slide (reveal nothing) or split to two targets."""

    lo: float
    hi: float
    action: str
    low_target: float | None = None
    high_target: float | None = None

    def __post_init__(self) -> None:
        if self.action not in ("slide", "split"):
            raise ProblemValidationError([f"unknown action {self.action!r}"])
        split = self.action == "split"
        if split and (self.low_target is None or self.high_target is None):
            raise ProblemValidationError([f"split region [{self.lo}, {self.hi}) without targets"])
        numbers = (self.lo, self.hi, self.low_target, self.high_target) if split else (self.lo, self.hi)
        if not all(map(_is_number, numbers)):
            raise ProblemValidationError([
                f"region [{self.lo!r}, {self.hi!r}) has a bound or target that is not a finite number"])
        if not self.lo < self.hi:
            raise ProblemValidationError([f"region [{self.lo}, {self.hi}) is empty"])
        if split and not (self.low_target <= self.lo and self.hi <= self.high_target):
            raise ProblemValidationError([
                f"split targets [{self.low_target}, {self.high_target}] do not "
                f"contain the region [{self.lo}, {self.hi}]"
            ])

    def to_dict(self) -> dict:
        if self.action == "slide":
            return {"lo": self.lo, "hi": self.hi, "action": "slide"}
        return {"lo": self.lo, "hi": self.hi, "action": "split",
                "targets": [self.low_target, self.high_target]}

    @staticmethod
    def from_dict(d: dict) -> "PolicyRegion":
        if d.get("action") == "split":
            targets = d.get("targets", [None, None])
            return PolicyRegion(d["lo"], d["hi"], "split", targets[0], targets[1])
        return PolicyRegion(d["lo"], d["hi"], d.get("action", "slide"))


class MarkovPolicy:
    """Belief-stationary policy: ordered regions partitioning [0, 1]."""

    __slots__ = ("regions", "_starts", "_targets")

    def __init__(self, regions):
        regions = tuple(regions)
        if not regions:
            raise ProblemValidationError(["policy has no regions"])
        if regions[0].lo != 0.0:
            raise ProblemValidationError([f"first region starts at {regions[0].lo}, not 0"])
        if regions[-1].hi != 1.0:
            raise ProblemValidationError([f"last region ends at {regions[-1].hi}, not 1"])
        for a, b in zip(regions, regions[1:]):
            if a.hi != b.lo:
                raise ProblemValidationError([f"regions leave a gap between {a.hi} and {b.lo}"])
        self.regions = regions
        self._starts = np.array([r.lo for r in regions])
        self._targets = np.array([(r.low_target, r.high_target) if r.action == "split"
                                  else (np.nan, np.nan) for r in regions])

    def region_index(self, p):
        """Region index per belief; the final region is closed at 1."""
        return _locate(p, self._starts)[1]

    def targets(self, p):
        """Split targets (low, high) per belief, and (p, p) where the policy slides.

        Region validation makes low < high wherever the policy splits.
        """
        low, high = self._targets[self.region_index(p)].T
        x = np.asarray(p, dtype=float)
        return np.where(np.isnan(low), x, low), np.where(np.isnan(high), x, high)

    @staticmethod
    def from_dict(d: dict) -> "MarkovPolicy":
        return MarkovPolicy(PolicyRegion.from_dict(r) for r in d["regions"])


@dataclass(frozen=True, slots=True)
class Solution:
    """Solved instance: the closed-form value, and the policy and cutoffs read off it."""

    problem: Problem
    value: PiecewiseValue
    policy: MarkovPolicy = field(init=False)
    cutoffs: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        # A line splits to its own ends (a one-level payoff's line slides), an
        # arc slides, and a cutoff is the start of a line that follows an arc.
        segs = self.value.segments
        splits = self.problem.payoff.n_steps > 1
        object.__setattr__(self, "policy", MarkovPolicy(
            PolicyRegion(s.lo, s.hi, "split", s.lo, s.hi) if splits and s.kind == "linear"
            else PolicyRegion(s.lo, s.hi, "slide") for s in segs))
        object.__setattr__(self, "cutoffs", tuple(b.lo for a, b in zip(segs, segs[1:])
                                                  if a.kind == "slide_arc" and b.kind == "linear"))

    def to_dict(self) -> dict:
        return {
            "problem": problem_to_dict(self.problem),
            "stationary_belief": self.problem.stationary_belief,
            "discount_ratio": self.problem.discount_ratio,
            "pivot": self.problem.pivot,
            "cutoffs": list(self.cutoffs),
            "segments": [s.to_dict() for s in self.value.segments],
            "regions": [r.to_dict() for r in self.policy.regions],
        }


# --- construction ------------------------------------------------------------

def _solve_center(problem: Problem):
    """Linear value on the interval [p0, p1] containing p*, from the stationary split.

    Splitting to the ends, which earn u_lo and u_hi, has the value line
    L(p) = [u_lo (p1 (mu+1) - p*) + u_hi (p* - p0 (mu+1)) + p mu (u_hi - u_lo)]
    / ((p1 - p0)(mu+1)), which meets L(end) = Y u(end) + (1-Y) L(other) with
    the split reach times Y in both directions.
    """
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    k = problem.pivot
    p0, p1 = cuts[k], cuts[k + 1]
    u_lo = levels[k]
    u_hi = levels[k + 1] if k + 1 < len(levels) else levels[-1]
    p_star = problem.stationary_belief
    mu = problem.discount_ratio
    denom = (p1 - p0) * (mu + 1.0)
    slope = mu * (u_hi - u_lo) / denom
    # Pinned regime: no information is ever revealed at p*, so the value
    # there is locked to the flow payoff exactly.
    v0 = u_lo if problem.pinned else \
        (u_lo * (p1 * (mu + 1.0) - p_star) + u_hi * (p_star - p0 * (mu + 1.0))) / denom + slope * p0
    intercept = v0 - slope * p0
    return ValueSegment.linear(p0, p1, intercept, slope), v0, intercept + slope * p1


def _solve_below(problem: Problem, v_at_p0: float):
    """Hold-and-jump recursion leftward from the center; linear between cuts."""
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    segments: list[ValueSegment] = []
    upper_value = v_at_p0
    for i in range(problem.pivot - 1, -1, -1):
        lo, hi = cuts[i], cuts[i + 1]
        y = discounted_time_split(problem, lo, hi)
        v_lo = y * levels[i] + (1.0 - y) * upper_value
        slope = (upper_value - v_lo) / (hi - lo)
        segments.append(ValueSegment.linear(lo, hi, v_lo - slope * lo, slope))
        upper_value = v_lo
    return segments[::-1]


def _find_cutoff(p_j, p_next, h_j, h_next, v_j, p_star, mu) -> float:
    """Bisect the pasting residual, decreasing on [p_j, p_next], to adjacent floats."""
    def residual(q):
        gap = q - p_star
        decay = ((p_j - p_star) / gap) ** mu
        return h_j - h_next + (h_j - v_j) * (mu + 1.0) * decay * (p_next - q) / gap

    f_lo, f_hi = residual(p_j), residual(p_next)
    if not f_lo > 0.0 > f_hi:
        raise SolverError(
            f"pasting residual has no sign change in [{p_j}, {p_next}]: "
            f"F({p_j})={f_lo:.3e}, F({p_next})={f_hi:.3e}"
        )
    a, b = p_j, p_next
    while (mid := 0.5 * (a + b)) not in (a, b):
        if residual(mid) > 0.0:
            a = mid
        else:
            b = mid
    return mid


def _solve_above_interval(problem: Problem, j: int, v_at_pj: float):
    """Slide arc plus (except at the top) a pasted split line on interval j, and v at its right end."""
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    k = problem.pivot
    p_j, p_next = cuts[k + j], cuts[k + j + 1]
    h_j = levels[k + j]
    p_star = problem.stationary_belief
    mu = problem.discount_ratio
    if v_at_pj >= h_j:
        raise SolverError(
            f"value {v_at_pj} at cut {p_j} must be strictly below the flow level {h_j}"
        )

    if (k + j) == len(levels) - 1:
        segment = ValueSegment.slide_arc(p_j, 1.0, h_j, v_at_pj, p_star, mu)
        return [segment], float(segment.at(1.0)[0])

    h_next = levels[k + j + 1]
    q = _find_cutoff(p_j, p_next, h_j, h_next, v_at_pj, p_star, mu)
    arc = ValueSegment.slide_arc(p_j, q, h_j, v_at_pj, p_star, mu)
    v_q, slope = map(float, arc.at(q))
    v_next = h_next - slope * (p_next - p_star) / mu
    return [arc, ValueSegment.linear(q, p_next, v_q - slope * q, slope)], v_next


def solve(problem: Problem) -> Solution:
    """Closed-form value function for a validated problem; Solution reads the policy off it."""
    levels = problem.payoff.levels
    if len(levels) == 1:
        # Flat payoff: every policy earns the same.
        return Solution(problem, PiecewiseValue([ValueSegment.linear(0.0, 1.0, levels[0], 0.0)]))

    center, v0, v_boundary = _solve_center(problem)
    segments = _solve_below(problem, v0) + [center]
    for j in range(1, problem.intervals_above):
        above, v_boundary = _solve_above_interval(problem, j, v_boundary)
        segments += above

    value = PiecewiseValue(segments)
    value.check_shape()
    return Solution(problem, value)


# --- verification ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Violation:
    condition: str
    belief: float
    magnitude: float


@dataclass(frozen=True, slots=True)
class VerificationReport:
    violations: tuple[Violation, ...]
    checked_points: int
    max_residual_deficit: float
    max_binding_gap: float
    max_pasting_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_solution(problem: Problem, solution: Solution,
                    n_points: int = 10_000) -> VerificationReport:
    """Check the optimality conditions; violations are reported, never raised.

    Nothing is sampled: every condition is exact.  n_points no longer
    changes the result; it is still validated (a negative or non-integer one
    raises OutOfRange before any check) until ROADMAP item 16 removes it.

    Read at the segment ends from the value's end table (v and v' at each
    end of each segment):

    * shape rules (continuity, concavity, monotonicity), as in
      PiecewiseValue.check_shape;
    * value floor: v(p*) >= u(p*), at p* itself;
    * left balance: v'(p)(p - p*) + mu (v(p) - u(p-)) >= 0 at each segment's
      right end, with the left limits of v, v' and u;
    * binding: the balance residual is zero at the cuts up to the center's
      right cut (right side), and at every cutoff and at belief 1 (left side);
    * interior gap: v is strictly below the flow level at every cut above
      the center;
    * smooth pasting at every cutoff, and the corner condition at every cut
      a pasted line ends on: no jump in v' where one segment meets the next.

    The right balance R(p) = v'(p)(p - p*) + mu (v(p) - u(p)) >= 0, with the
    right derivative, holds on all of [0, 1].  Between consecutive cuts and
    segment starts, u is one level and v one segment, so R is affine on a
    line, and on an arc with center c and exponent e != mu it has one
    stationary point, p = c + (e + 1)(c - p*)/(mu - e).  R is read at every
    cut, every segment start and each such point inside its arc;
    checked_points counts them.  p* is exempt from the balance and binding
    checks (a kink is allowed there in the pinned regime).
    """
    if _integer("n_points", n_points) < 0:
        raise OutOfRange(f"n_points must be non-negative, got {n_points!r}")
    value = solution.value
    payoff = problem.payoff
    p_star = problem.stationary_belief
    mu = problem.discount_ratio
    k = problem.pivot
    cuts = payoff.cuts
    violations: list[Violation] = []

    floor_gap = value.value(p_star) - payoff.value(p_star)
    if floor_gap < -_VERIFY_TOL:
        violations.append(Violation("value_floor", p_star, -floor_gap))

    turns = []      # R's stationary point on each arc that has one
    for seg in value.segments:
        if seg.kind == "slide_arc" and seg.exponent != mu:
            e, c = seg.exponent, seg.center
            p = c + (e + 1.0) * (c - p_star) / (mu - e)
            if seg.lo < p < seg.hi:
                turns.append(p)
    points = np.unique(np.concatenate([np.array(cuts), value._los, turns]))
    v, slope = value._evaluate(points, "right")
    right = slope * (points - p_star) + mu * (v - payoff.value(points))
    _, ends, _, d_lo, v_end, d_end = value._ends.T
    # The piece ends' left limits: off the segment ends the slope is the same
    # from both sides and u(p-) <= u(p), so the left residual is never below
    # the right one there.
    left = d_end * (ends - p_star) + mu * (v_end - payoff.left_value(ends))

    worst_deficit = 0.0
    for side, pts, res in (("right", points, right), ("left", ends, left)):
        keep = np.abs(pts - p_star) > PIN_TOLERANCE
        pts, res = pts[keep], res[keep]
        worst_deficit = max(worst_deficit, -float(res.min(initial=0.0)))
        for i in np.flatnonzero(res < -_VERIFY_TOL):
            violations.append(Violation(f"balance_{side}", float(pts[i]), float(-res[i])))

    def read(values, p):
        return float(values[np.searchsorted(points, p)])

    left_at = dict(zip(ends.tolist(), left.tolist()))
    jump_at = dict(zip(ends.tolist(), np.abs(d_end[:-1] - d_lo[1:]).tolist()))

    # (condition, belief, magnitude) per named point.
    binding = [("binding", c, abs(read(right, c))) for c in cuts[:-1][:k + 2]]
    binding += [("binding", q, abs(left_at[q])) for q in (*solution.cutoffs, 1.0)]
    binding = [entry for entry in binding if abs(entry[1] - p_star) > PIN_TOLERANCE]
    interior = [("interior_gap", c, -(h - read(v, c)))
                for c, h in zip(cuts[k + 1:-1], payoff.levels[k + 1:])]
    pasting = [("smooth_pasting", q, jump_at.get(q, 0.0)) for q in solution.cutoffs]
    pasting += [("corner", c, jump_at.get(c, 0.0)) for c in cuts[k + 2:-1]]

    violations += (Violation(*entry) for entry in binding if entry[2] > _VERIFY_TOL)
    violations += (Violation(*entry[:3]) for entry in value._shape_violations())
    violations += (Violation(*entry) for entry in interior if entry[2] >= 0.0)
    violations += (Violation(*entry) for entry in pasting if entry[2] > _VERIFY_TOL)

    return VerificationReport(
        violations=tuple(violations),
        checked_points=int(points.size),
        max_residual_deficit=worst_deficit,
        max_binding_gap=max([0.0] + [entry[2] for entry in binding]),
        max_pasting_gap=max([0.0] + [entry[2] for entry in pasting]),
    )
