"""Discrete-time dynamic-programming oracle.

Independent numerical check of the closed-form solver.  The period game
(length delta, discount factor x = e^{-r delta}) is solved by value
iteration over a fixed belief grid: each Bellman step forms the one-period
payoffs phi = (1-x) u + x w on the grid, takes their upper concave hull
(the sender may split the current belief into any Bayes-plausible pair),
and reads the hull off at the drifted beliefs.  Values are anchored at the
start of a period, before the drift step, to match the simulator's event
order (drift, then split, then payoff).

Fixed policies are valued exactly by solving the sparse linear system of
their one-period transition instead of iterating, so policy values carry
no iteration error on top of the discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketViolation,
    GridTooCoarse,
    NoConvergence,
    OutOfRange,
)
from .model import Problem, _locate
from .dynamics import drift_map, make_split_signal
from .solver import MarkovPolicy, PolicyRegion

__all__ = [
    "BeliefGrid",
    "OracleResult",
    "make_grid",
    "value_iteration",
    "evaluate_policy_discrete",
    "contact_gap",
    "dp_split_mask",
    "myopic_policy",
    "slide_only_policy",
    "full_disclosure_policy",
    "CONTACT_TOL",
]

_DEDUPE_TOL = 1e-14
_LEFT_SAMPLE_OFFSET = 1e-12
_HULL_BEND_TOL = 1e-13
_POLICY_RESIDUAL_TOL = 1e-8
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
# A hull-vs-payoff gap above this marks a grid point where the DP strictly
# prefers splitting; below it the point is treated as a hull contact (slide).
CONTACT_TOL = 5e-7


class BeliefGrid:
    """Sorted, deduplicated belief grid including every payoff cut."""

    __slots__ = ("points", "gap")

    def __init__(self, points, gap: float):
        arr = np.asarray(points, dtype=float)
        arr.setflags(write=False)
        self.points = arr
        self.gap = float(gap)

    def __len__(self) -> int:
        return int(self.points.size)

    def __repr__(self) -> str:
        return f"BeliefGrid({len(self)} points, gap={self.gap})"


def make_grid(problem: Problem, gap: float, extra=()) -> BeliefGrid:
    """Uniform grid refined with the cuts, their left limits, and extras.

    Left-limit samples sit _LEFT_SAMPLE_OFFSET below each interior cut so the
    low side of every payoff jump is represented.  Points closer together
    than _DEDUPE_TOL are merged.  Raises GridTooCoarse when a payoff interval
    ends up with fewer than 3 points.
    """
    if gap <= 0.0:
        raise OutOfRange(f"grid gap must be positive, got {gap!r}")
    cuts = problem.payoff.cuts
    base = np.linspace(0.0, 1.0, math.ceil(1.0 / gap) + 1)
    pts, _ = _locate(np.concatenate([
        base,
        np.array(cuts),
        np.asarray(extra, dtype=float),
        np.array([c - _LEFT_SAMPLE_OFFSET for c in cuts[1:-1]]),
    ]))
    pts = np.sort(pts)
    keep = np.concatenate([[True], np.diff(pts) > _DEDUPE_TOL])
    pts = pts[keep]
    pts[0], pts[-1] = 0.0, 1.0

    for i in range(len(cuts) - 1):
        lo = np.searchsorted(pts, cuts[i], side="left")
        hi = np.searchsorted(pts, cuts[i + 1], side="left")
        count = int(hi - lo) + (1 if i == len(cuts) - 2 else 0)
        if count < 3:
            raise GridTooCoarse(
                f"payoff interval [{cuts[i]}, {cuts[i + 1]}) has only {count} "
                f"grid points at gap {gap}"
            )
    return BeliefGrid(pts, gap)


@dataclass(frozen=True, slots=True, eq=False)
class OracleResult:
    """Grid values of a discrete-time game, with convergence diagnostics."""

    grid: BeliefGrid
    values: np.ndarray
    delta: float
    iterations: int
    residual: float
    change_history: np.ndarray | None = None

    def value(self, p):
        """Linear interpolation of the grid values."""
        x, _ = _locate(p)
        out = np.interp(x, self.grid.points, self.values)
        return float(out) if isinstance(x, float) else out


def _upper_hull(xs: np.ndarray, ys: np.ndarray):
    """Upper concave envelope vertices of points sorted by x.

    A vectorized prefilter drops points strictly below (or within
    _HULL_BEND_TOL of) the chord of their neighbors; those can never be hull
    vertices, and affine-run interiors contribute nothing.  The survivors go
    through an exact monotone-chain pass.
    """
    n = xs.size
    if n <= 2:
        return xs, ys
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    chord = ys[:-2] + (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
    keep = np.empty(n, dtype=bool)
    keep[0] = keep[-1] = True
    keep[1:-1] = (ys[1:-1] - chord) > thr
    sx = xs[keep].tolist()
    sy = ys[keep].tolist()

    stack: list[int] = []
    for i in range(len(sx)):
        xi, yi = sx[i], sy[i]
        while len(stack) >= 2:
            x1, y1 = sx[stack[-1]], sy[stack[-1]]
            x0, y0 = sx[stack[-2]], sy[stack[-2]]
            # middle point on or below the chord of its neighbors: not a vertex
            if (x1 - x0) * (yi - y0) - (xi - x0) * (y1 - y0) >= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    idx = np.array(stack)
    return np.asarray(sx)[idx], np.asarray(sy)[idx]


def value_iteration(problem: Problem, delta: float, grid: BeliefGrid,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> OracleResult:
    """Fixed point of the discrete Bellman operator on the grid.

    Stops when the sup-norm change drops to tol * (1 - x), which bounds the
    remaining distance to the fixed point by tol * x.  Starting from the
    constant lowest payoff level, iterates increase monotonically, so the
    returned values never overshoot the true discrete value.
    """
    if delta <= 0.0:
        raise OutOfRange(f"period length must be positive, got {delta!r}")
    x = math.exp(-problem.discounting.r * delta)
    pts = grid.points
    u = problem.payoff.value(pts)
    a, b = drift_map(problem.rates, delta)
    drifted = a + b * pts
    w = np.full(pts.size, float(min(problem.payoff.levels)))
    history: list[float] = []
    threshold = tol * (1.0 - x)
    for iteration in range(1, max_iter + 1):
        phi = (1.0 - x) * u + x * w
        hx, hy = _upper_hull(pts, phi)
        w_new = np.interp(drifted, hx, hy)
        change = float(np.max(np.abs(w_new - w)))
        history.append(change)
        w = w_new
        if change <= threshold:
            return OracleResult(grid, w, delta, iteration, change, np.array(history))
    partial = OracleResult(grid, w, delta, max_iter, history[-1], np.array(history))
    raise NoConvergence(
        f"value iteration did not reach {threshold:.3e} in {max_iter} steps "
        f"(last change {history[-1]:.3e})",
        result=partial,
    )


def contact_gap(problem: Problem, result: OracleResult) -> np.ndarray:
    """Hull-minus-payoff gap of the converged one-period objective.

    Zero (up to iteration noise) where the discrete game is content to hold
    the drifted belief, strictly positive where it prefers a split.
    """
    x = math.exp(-problem.discounting.r * result.delta)
    pts = result.grid.points
    phi = (1.0 - x) * problem.payoff.value(pts) + x * result.values
    hx, hy = _upper_hull(pts, phi)
    return np.interp(pts, hx, hy) - phi


def dp_split_mask(problem: Problem, result: OracleResult,
                  tol: float = CONTACT_TOL) -> np.ndarray:
    """Boolean mask of grid points where the DP strictly prefers splitting."""
    return contact_gap(problem, result) > tol


def _interp_entry(pts: np.ndarray, q: float):
    """(index, weight) pairs expressing q as a convex combination of nodes."""
    j = int(np.searchsorted(pts, q, side="right")) - 1
    j = min(max(j, 0), pts.size - 2)
    t = (q - pts[j]) / (pts[j + 1] - pts[j])
    return ((j, 1.0 - t), (j + 1, t))


def evaluate_policy_discrete(problem: Problem, policy: MarkovPolicy, delta: float,
                             grid: BeliefGrid) -> OracleResult:
    """Exact grid value of a fixed policy in the discrete game.

    Builds the one-period transition (drift, then the policy's action at the
    drifted belief) as a sparse matrix over grid nodes and solves
    (I - x M) w = (1 - x) c directly.  Posterior beliefs that fall between
    nodes are linearly interpolated, which is exact whenever the policy's
    split targets are grid points.
    """
    # scipy.sparse is imported here, not at module level, so that importing
    # the package does not pay for it.
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import spsolve

    if delta <= 0.0:
        raise OutOfRange(f"period length must be positive, got {delta!r}")
    x = math.exp(-problem.discounting.r * delta)
    pts = grid.points
    n = pts.size
    a, b = drift_map(problem.rates, delta)
    payoff = problem.payoff

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    c = np.empty(n)
    for i in range(n):
        d = a + b * pts[i]
        region = policy.region_at(d)
        if region.action == "slide":
            c[i] = payoff.value(d)
            for j, wgt in _interp_entry(pts, d):
                rows.append(i)
                cols.append(j)
                vals.append(wgt)
            continue
        lo, hi = region.low_target, region.high_target
        if not (lo - 1e-12 <= d <= hi + 1e-12):
            raise BracketViolation(
                f"drifted belief {d} escapes split bracket [{lo}, {hi}]"
            )
        signal = make_split_signal(min(max(d, lo), hi), lo, hi)
        rho = signal.prob_high
        c[i] = (1.0 - rho) * payoff.value(lo) + rho * payoff.value(hi)
        for target, mass in ((lo, 1.0 - rho), (hi, rho)):
            for j, wgt in _interp_entry(pts, target):
                rows.append(i)
                cols.append(j)
                vals.append(mass * wgt)

    transition = csr_matrix((vals, (rows, cols)), shape=(n, n))
    system = (identity(n, format="csr") - x * transition).tocsc()
    w = spsolve(system, (1.0 - x) * c)
    residual = float(np.max(np.abs(w - ((1.0 - x) * c + x * (transition @ w)))))
    result = OracleResult(grid, w, delta, 1, residual)
    if residual > _POLICY_RESIDUAL_TOL:
        raise NoConvergence(
            f"policy linear system residual {residual:.3e} exceeds "
            f"{_POLICY_RESIDUAL_TOL}", result=result,
        )
    return result


def myopic_policy(problem: Problem) -> MarkovPolicy:
    """Split to the supporting segment of cav u; slide where u already meets it.

    With strictly increasing levels this splits every interval to its
    endpoints except the top one, where the payoff is flat and no disclosure
    helps within the period.
    """
    cuts = problem.payoff.cuts
    levels = problem.payoff.levels
    regions = []
    for i in range(problem.payoff.n_steps):
        lo, hi = cuts[i], cuts[i + 1]
        next_level = levels[i + 1] if i + 1 < len(levels) else levels[-1]
        if next_level > levels[i]:
            regions.append(PolicyRegion(lo, hi, "split", lo, hi))
        else:
            regions.append(PolicyRegion(lo, hi, "slide"))
    return MarkovPolicy(regions)


def slide_only_policy(problem: Problem) -> MarkovPolicy:
    """Never disclose anything; the belief just drifts toward p*."""
    del problem
    return MarkovPolicy([PolicyRegion(0.0, 1.0, "slide")])


def full_disclosure_policy(problem: Problem) -> MarkovPolicy:
    """Reveal the state every period (split straight to {0, 1})."""
    del problem
    return MarkovPolicy([PolicyRegion(0.0, 1.0, "split", 0.0, 1.0)])
