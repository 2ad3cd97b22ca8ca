"""Closed-form value function and optimal disclosure policy.

The construction runs outward from the payoff interval containing the
stationary belief p* (cuts p_0 = c_k <= p* < p_1 = c_{k+1}):

  * center: the stationary two-point split on [p_0, p_1] gives a linear
    value (see dynamics.split_value_linear);
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

from dataclasses import dataclass

import numpy as np

from .errors import ProblemValidationError, SolverError
from .model import PIN_TOLERANCE, Problem, _locate, parse_problem, problem_to_dict
from .dynamics import discounted_time_split, split_value_linear

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
    "solution_from_dict",
]

_CONTINUITY_TOL = 1e-10
_CONCAVITY_TOL = 1e-8
_MONOTONE_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class ValueSegment:
    """One piece of the value function on [lo, hi].

    kind "linear": value = intercept + slope * p.
    kind "slide_arc": value = level + (start - level) * ratio^exponent with
    ratio = (lo - center) / (p - center), so start is the value at lo; the
    segment lies strictly above the center (lo - center > 0).
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

    def _decay(self, p):
        """((lo - center) / (p - center))^exponent and p - center."""
        gap = np.asarray(p, dtype=float) - self.center
        return ((self.lo - self.center) / gap) ** self.exponent, gap

    def value_at(self, p):
        if self.kind == "linear":
            return self.intercept + self.slope * np.asarray(p, dtype=float)
        return self.level + (self.start - self.level) * self._decay(p)[0]

    def derivative_at(self, p):
        if self.kind == "linear":
            return np.full_like(np.asarray(p, dtype=float), self.slope)
        decay, gap = self._decay(p)
        return self.exponent * (self.level - self.start) * decay / gap

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"lo": self.lo, "hi": self.hi, "kind": "linear",
                    "intercept": self.intercept, "slope": self.slope}
        return {"lo": self.lo, "hi": self.hi, "kind": "slide_arc", "level": self.level,
                "start": self.start, "center": self.center, "exponent": self.exponent}

    @staticmethod
    def from_dict(d: dict) -> "ValueSegment":
        if d["kind"] == "linear":
            return ValueSegment.linear(d["lo"], d["hi"], d["intercept"], d["slope"])
        return ValueSegment.slide_arc(d["lo"], d["hi"], d["level"], d["start"],
                                      d["center"], d["exponent"])


class PiecewiseValue:
    """Ordered segments covering [0, 1].

    Construction checks only the structure (ordering, coverage), so that
    deliberately broken values can still be fed to verify_solution; the
    solver additionally runs check_shape on everything it emits.
    """

    __slots__ = ("segments", "_los")

    def __init__(self, segments):
        segments = tuple(segments)
        if not segments:
            raise SolverError("no segments")
        if segments[0].lo != 0.0 or segments[-1].hi != 1.0:
            raise SolverError("segments must cover [0, 1]")
        for a, b in zip(segments, segments[1:]):
            if a.hi != b.lo:
                raise SolverError(f"segment gap between {a.hi} and {b.lo}")
        self.segments = segments
        self._los = np.array([s.lo for s in segments])

    def value(self, p):
        return self._evaluate(p, "right", ValueSegment.value_at)

    def derivative(self, p, side: str = "right"):
        """One-sided derivative; 'left' picks the earlier segment at junctions."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self._evaluate(p, side, ValueSegment.derivative_at)

    def _evaluate(self, p, side: str, method):
        """method(segment, beliefs) on the segment holding each belief."""
        x, idx = _locate(p, self._los, side)
        if isinstance(x, float):
            return float(method(self.segments[idx], x))
        out = np.empty_like(x)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if mask.any():
                out[mask] = method(seg, x[mask])
        return out

    def junction_gaps(self):
        """(belief, value jump) at each interior junction."""
        return [(a.hi, abs(float(a.value_at(a.hi)) - float(b.value_at(b.lo))))
                for a, b in zip(self.segments, self.segments[1:])]

    def check_shape(self) -> None:
        """Assert continuity, concave kinks, and monotonicity at junctions."""
        for p, gap in self.junction_gaps():
            if gap > _CONTINUITY_TOL:
                raise SolverError(f"value discontinuity {gap:.3e} at {p}")
        for a, b in zip(self.segments, self.segments[1:]):
            left = float(a.derivative_at(a.hi))
            right = float(b.derivative_at(b.lo))
            if right - left > _CONCAVITY_TOL:
                raise SolverError(f"convex kink at {a.hi}: left slope {left}, right slope {right}")
        for seg in self.segments:
            # Each segment kind is concave on its own; endpoint slopes bound it.
            if float(seg.derivative_at(seg.hi)) < -_MONOTONE_TOL:
                raise SolverError(f"decreasing value on segment ending at {seg.hi}")


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
        if not self.lo < self.hi:
            raise ProblemValidationError([f"region [{self.lo}, {self.hi}) is empty"])
        if self.action == "split":
            if self.low_target is None or self.high_target is None:
                raise ProblemValidationError([f"split region [{self.lo}, {self.hi}) without targets"])
            if not (self.low_target <= self.lo and self.hi <= self.high_target):
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

    __slots__ = ("regions", "cutoffs", "_starts")

    def __init__(self, regions, cutoffs=()):
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
        self.cutoffs = tuple(float(c) for c in cutoffs)
        self._starts = np.array([r.lo for r in regions])

    def region_index(self, p):
        """Region index per belief; the final region is closed at 1."""
        return _locate(p, self._starts)[1]

    def region_at(self, p: float) -> PolicyRegion:
        return self.regions[self.region_index(p)]

    def to_dict(self) -> dict:
        return {"regions": [r.to_dict() for r in self.regions],
                "cutoffs": list(self.cutoffs)}

    @staticmethod
    def from_dict(d: dict) -> "MarkovPolicy":
        return MarkovPolicy([PolicyRegion.from_dict(r) for r in d["regions"]],
                            d.get("cutoffs", ()))


@dataclass(frozen=True, slots=True)
class Solution:
    """Solved instance: closed-form value, optimal policy, cutoffs."""

    problem: Problem
    value: PiecewiseValue
    policy: MarkovPolicy
    cutoffs: tuple[float, ...]

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


def solution_from_dict(d: dict) -> Solution:
    problem = parse_problem(d["problem"])
    value = PiecewiseValue(ValueSegment.from_dict(s) for s in d["segments"])
    policy = MarkovPolicy([PolicyRegion.from_dict(r) for r in d["regions"]], d["cutoffs"])
    return Solution(problem=problem, value=value, policy=policy, cutoffs=tuple(d["cutoffs"]))


# --- construction ------------------------------------------------------------

def _solve_center(problem: Problem):
    """Linear value on the interval containing p*, from the stationary split."""
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    k = problem.pivot
    p0, p1 = cuts[k], cuts[k + 1]
    u_lo = levels[k]
    u_hi = levels[k + 1] if k + 1 < len(levels) else levels[-1]
    mu = problem.discount_ratio
    slope = mu * (u_hi - u_lo) / ((p1 - p0) * (mu + 1.0))
    if problem.pinned and abs(problem.stationary_belief - p0) <= PIN_TOLERANCE:
        # Pinned regime: no information is ever revealed at p*, so the value
        # there is locked to the flow payoff exactly.
        v0 = u_lo
    else:
        v0 = split_value_linear(problem, p0, p0, p1, u_lo, u_hi)
    intercept = v0 - slope * p0
    segment = ValueSegment.linear(p0, p1, intercept, slope)
    region = PolicyRegion(p0, p1, "split", p0, p1)
    v1 = intercept + slope * p1
    return segment, region, v0, v1


def _solve_below(problem: Problem, v_at_p0: float):
    """Hold-and-jump recursion leftward from the center; linear between cuts."""
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    segments: list[ValueSegment] = []
    regions: list[PolicyRegion] = []
    upper_value = v_at_p0
    for i in range(problem.pivot - 1, -1, -1):
        lo, hi = cuts[i], cuts[i + 1]
        y = discounted_time_split(problem, lo, hi)
        v_lo = y * levels[i] + (1.0 - y) * upper_value
        slope = (upper_value - v_lo) / (hi - lo)
        segments.append(ValueSegment.linear(lo, hi, v_lo - slope * lo, slope))
        regions.append(PolicyRegion(lo, hi, "split", lo, hi))
        upper_value = v_lo
    segments.reverse()
    regions.reverse()
    return segments, regions


def _pasting_residual(q, h_j, h_next, v_j, p_j, p_star, mu, p_next):
    gap = q - p_star
    decay = ((p_j - p_star) / gap) ** mu
    return h_j - h_next + (h_j - v_j) * (mu + 1.0) * decay * (p_next - q) / gap


def _find_cutoff(p_j, p_next, h_j, h_next, v_j, p_star, mu) -> float:
    """Bisect the pasting residual, decreasing on [p_j, p_next], to adjacent floats."""
    def residual(q):
        return _pasting_residual(q, h_j, h_next, v_j, p_j, p_star, mu, p_next)

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
    """Slide arc plus (except at the top) a pasted split segment on interval j."""
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

    top = (k + j) == len(levels) - 1
    if top:
        segment = ValueSegment.slide_arc(p_j, 1.0, h_j, v_at_pj, p_star, mu)
        region = PolicyRegion(p_j, 1.0, "slide")
        return [segment], [region], None, float(segment.value_at(1.0))

    h_next = levels[k + j + 1]
    q = _find_cutoff(p_j, p_next, h_j, h_next, v_at_pj, p_star, mu)
    arc = ValueSegment.slide_arc(p_j, q, h_j, v_at_pj, p_star, mu)
    slope = float(arc.derivative_at(q))
    v_q = float(arc.value_at(q))
    v_next = h_next - slope * (p_next - p_star) / mu
    line = ValueSegment.linear(q, p_next, v_q - slope * q, slope)
    regions = [PolicyRegion(p_j, q, "slide"), PolicyRegion(q, p_next, "split", q, p_next)]
    return [arc, line], regions, q, v_next


def solve(problem: Problem) -> Solution:
    """Closed-form value function and optimal policy for a validated problem."""
    levels = problem.payoff.levels
    if len(levels) == 1:
        # Flat payoff: every policy earns the same; reveal nothing.
        value = PiecewiseValue([ValueSegment.linear(0.0, 1.0, levels[0], 0.0)])
        policy = MarkovPolicy([PolicyRegion(0.0, 1.0, "slide")])
        return Solution(problem=problem, value=value, policy=policy, cutoffs=())

    center_seg, center_region, v0, v1 = _solve_center(problem)
    below_segs, below_regions = _solve_below(problem, v0)

    above_segs: list[ValueSegment] = []
    above_regions: list[PolicyRegion] = []
    cutoffs: list[float] = []
    v_boundary = v1
    for j in range(1, problem.intervals_above):
        segs, regs, cutoff, v_boundary = _solve_above_interval(problem, j, v_boundary)
        above_segs.extend(segs)
        above_regions.extend(regs)
        if cutoff is not None:
            cutoffs.append(cutoff)

    value = PiecewiseValue(below_segs + [center_seg] + above_segs)
    value.check_shape()
    policy = MarkovPolicy(below_regions + [center_region] + above_regions, cutoffs)
    return Solution(problem=problem, value=value, policy=policy, cutoffs=tuple(cutoffs))


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


def _residual(problem, value, arr, side):
    """Balance residual v'(p)(p - p*) + mu (v(p) - u(p)), side-consistent.

    The left derivative pairs with the left limit of u (the step's value just
    below p), the right derivative with u(p) itself.
    """
    p_star = problem.stationary_belief
    mu = problem.discount_ratio
    deriv = value.derivative(arr, side=side)
    payoff = problem.payoff.value(arr) if side == "right" else problem.payoff.left_value(arr)
    return deriv * (arr - p_star) + mu * (value.value(arr) - payoff)


def verify_solution(problem: Problem, solution: Solution, n_points: int = 10_000,
                    tol: float = 1e-8) -> VerificationReport:
    """Check the optimality conditions on a dense grid; never raises.

    Conditions: value at p* at least the flow there; balance residual
    nonnegative everywhere (both derivative sides); residual zero at the
    binding set (cuts up to the center, the center's right cut, every cutoff,
    and belief 1); concavity; monotonicity; strict value gap below the flow
    level at every cut above the center; smooth pasting at cutoffs; the
    corner condition (no slope jump) at every cut a pasted line ends on.  p* is
    exempt from smoothness and binding checks (a kink is allowed there in
    the pinned regime).
    """
    value = solution.value
    payoff = problem.payoff
    p_star = problem.stationary_belief
    k = problem.pivot
    cuts = payoff.cuts
    violations: list[Violation] = []

    floor_gap = value.value(p_star) - payoff.value(p_star)
    if floor_gap < -tol:
        violations.append(Violation("value_floor", p_star, -floor_gap))

    for p, gap in value.junction_gaps():
        if gap > _CONTINUITY_TOL:
            violations.append(Violation("continuity", p, gap))

    grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, n_points),
        np.array(cuts),
        np.array(solution.cutoffs, dtype=float),
        np.array([c - 1e-9 for c in cuts[1:-1]]),
    ]))
    interior = np.abs(grid - p_star) > PIN_TOLERANCE

    res_right = _residual(problem, value, grid, "right")
    res_left = _residual(problem, value, grid[grid > 0.0], "left")
    worst_deficit = float(max(0.0, -min(res_right[interior].min(initial=0.0),
                                        res_left.min(initial=0.0))))
    for p, r in zip(grid[interior], res_right[interior]):
        if r < -tol:
            violations.append(Violation("balance_right", float(p), float(-r)))
    left_grid = grid[grid > 0.0]
    left_interior = np.abs(left_grid - p_star) > PIN_TOLERANCE
    for p, r in zip(left_grid[left_interior], res_left[left_interior]):
        if r < -tol:
            violations.append(Violation("balance_left", float(p), float(-r)))

    binding: list[tuple[float, str]] = []
    for c in cuts[: k + 1]:
        binding.append((c, "right"))
    if k + 1 < len(cuts) - 1:
        binding.append((cuts[k + 1], "right"))
    for q in solution.cutoffs:
        binding.append((q, "left"))
    binding.append((1.0, "left"))
    max_binding = 0.0
    for p, side in binding:
        if abs(p - p_star) <= PIN_TOLERANCE:
            continue
        gap = abs(float(_residual(problem, value, np.asarray(p), side)))
        max_binding = max(max_binding, gap)
        if gap > tol:
            violations.append(Violation("binding", p, gap))

    # Concavity and monotonicity along the grid (right derivatives), plus
    # junction kink direction.
    deriv_right = value.derivative(grid, "right")
    for p, a, b in zip(grid[1:], deriv_right[:-1], deriv_right[1:]):
        if b - a > _CONCAVITY_TOL:
            violations.append(Violation("concavity", float(p), float(b - a)))
    if deriv_right.min() < -_MONOTONE_TOL:
        worst = grid[int(np.argmin(deriv_right))]
        violations.append(Violation("monotonicity", float(worst), float(-deriv_right.min())))

    for j in range(1, problem.intervals_above):
        c = cuts[k + j]
        gap = payoff.levels[k + j] - value.value(c)
        if gap <= 0.0:
            violations.append(Violation("interior_gap", c, -gap))

    # C^1 at every cutoff, and at every cut a pasted line ends on (the
    # corner condition, which fixes the cutoff).
    max_pasting = 0.0
    smooth = [(q, "smooth_pasting") for q in solution.cutoffs]
    smooth += [(c, "corner") for c in cuts[k + 2:-1]]
    for p, condition in smooth:
        jump = abs(value.derivative(p, "left") - value.derivative(p, "right"))
        max_pasting = max(max_pasting, jump)
        if jump > tol:
            violations.append(Violation(condition, p, jump))

    return VerificationReport(
        violations=tuple(violations),
        checked_points=int(grid.size),
        max_residual_deficit=worst_deficit,
        max_binding_gap=max_binding,
        max_pasting_gap=max_pasting,
    )
