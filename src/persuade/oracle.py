"""Discrete-time dynamic-programming oracle.

Independent numerical check of the closed-form solver.  The period game
(length delta, discount factor x = e^{-r delta}) is solved by value
iteration over a fixed belief grid: each Bellman step forms the one-period
payoffs phi = (1-x) u + x w on the grid, takes their upper concave hull
(the sender may split the current belief into any Bayes-plausible pair),
and reads the hull off at the drifted beliefs.  Values are anchored at the
start of a period, before the drift step, to match the simulator's event
order (drift, then split, then payoff).  Since the Bellman operator is
monotone and shifts a constant c to x c, the last step's smallest and
largest change bracket the fixed point (MacQueen 1966; Porteus 1971):
iteration stops once the bracket is narrow and returns its lower end.

Fixed policies are valued exactly by solving the sparse linear system of
their one-period transition instead of iterating, so policy values carry
no iteration error on top of the discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OracleError, OutOfRange
from .model import Problem, _locate
from .dynamics import drift_map
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
_HULL_PASSES = 16
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
    than _DEDUPE_TOL are merged.  Raises OracleError when a payoff interval
    ends up with fewer than 3 points.
    """
    if not gap > 0.0:
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
            raise OracleError(
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
    bound: float | None = None

    def value(self, p):
        """Linear interpolation of the grid values."""
        x, _ = _locate(p)
        out = np.interp(x, self.grid.points, self.values)
        return float(out) if isinstance(x, float) else out


def _upper_hull(xs: np.ndarray, ys: np.ndarray):
    """Upper concave envelope vertices of points sorted by x.

    A vectorized chord test drops each point on, below or within
    _HULL_BEND_TOL of its neighbors' chord, repeating until every interior
    bend is strictly concave; a run dropped in one pass is convex, so its
    outer neighbors' chord covers it.  After _HULL_PASSES passes an exact
    monotone chain (Andrew 1979) finishes the job.
    """
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    for _ in range(_HULL_PASSES):
        chord = ys[:-2] + (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
        bent = (ys[1:-1] - chord) > thr
        if bent.all():
            return xs, ys
        keep = np.concatenate(([True], bent, [True]))
        xs, ys = xs[keep], ys[keep]
    sx, sy = xs.tolist(), ys.tolist()
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
    return xs[stack], ys[stack]


def value_iteration(problem: Problem, delta: float, grid: BeliefGrid,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> OracleResult:
    """Fixed point of the discrete Bellman operator on the grid.

    With d = w_n - w_{n-1}, the fixed point lies between
    w_n + x/(1-x) min d and w_n + x/(1-x) max d (MacQueen 1966; Porteus
    1971, Oper. Res. 19).  Iteration stops when max d - min d drops to
    tol * (1 - x), so the bracket is at most tol * x wide, and returns its
    lower end: within tol * x of the true discrete value and never above it.
    `bound` is the final bracket width; `residual` and `change_history` hold
    the sup-norm change of the plain iterates.
    """
    a, b = drift_map(problem.rates, delta)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise OutOfRange(f"tolerance must be finite and non-negative, got {tol!r}")
    if max_iter < 1:
        raise OutOfRange(f"max_iter must be at least 1, got {max_iter!r}")
    x = math.exp(-problem.discounting.r * delta)
    pts = grid.points
    u = problem.payoff.value(pts)
    drifted = a + b * pts
    w = np.full(pts.size, float(min(problem.payoff.levels)))
    history: list[float] = []
    threshold = tol * (1.0 - x)
    for iteration in range(1, max_iter + 1):
        phi = (1.0 - x) * u + x * w
        hx, hy = _upper_hull(pts, phi)
        w_new = np.interp(drifted, hx, hy)
        step = w_new - w
        low, high = float(np.min(step)), float(np.max(step))
        history.append(max(high, -low))
        w = w_new
        if high - low <= threshold:
            scale = x / (1.0 - x)
            return OracleResult(grid, w + scale * low, delta, iteration, history[-1],
                                np.array(history), scale * (high - low))
    partial = OracleResult(grid, w, delta, max_iter, history[-1], np.array(history))
    raise NoConvergence(
        f"value iteration did not reach a change spread of {threshold:.3e} in "
        f"{max_iter} steps (last spread {high - low:.3e}, last change {history[-1]:.3e})",
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

    a, b = drift_map(problem.rates, delta)
    x = math.exp(-problem.discounting.r * delta)
    pts = grid.points
    n = pts.size
    drifted = a + b * pts
    targets = np.array([(r.low_target, r.high_target) if r.action == "split"
                        else (math.nan, math.nan) for r in policy.regions])
    targets = targets[policy.region_index(drifted)]
    # No make_split_signal check can fail: drift stays in (0, 1), targets bracket it.
    split = ~np.isnan(targets[:, 0])
    lo = np.where(split, targets[:, 0], drifted)
    hi = np.where(split, targets[:, 1], drifted)
    rho = (drifted - lo) / np.where(split, hi - lo, 1.0)
    c = (1.0 - rho) * problem.payoff.value(lo) + rho * problem.payoff.value(hi)

    cols, vals = [], []
    for target, mass in ((lo, 1.0 - rho), (hi, rho)):
        j = np.clip(np.searchsorted(pts, target, side="right") - 1, 0, n - 2)
        t = (target - pts[j]) / (pts[j + 1] - pts[j])
        cols += [j, j + 1]
        vals += [mass * (1.0 - t), mass * t]
    # Row-major entries per node: low target's two nodes, then (splits only) high's.
    keep = np.ones((n, 4), dtype=bool)
    keep[:, 2:] = split[:, None]
    rows = np.nonzero(keep)[0]
    cols = np.column_stack(cols)[keep]
    vals = np.column_stack(vals)[keep]
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
