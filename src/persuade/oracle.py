"""Discrete-time dynamic-programming oracle.

Independent numerical check of the closed-form solver.  The period game
(length delta, discount factor x = e^{-r delta}) is solved by value
iteration over a fixed belief grid: each Bellman step forms the one-period
payoffs phi = (1-x) u + x w on the grid, takes their upper concave hull
(the sender may split the current belief into any Bayes-plausible pair),
and reads the hull off at the drifted beliefs.  The hull's vertices move
little from one step to the next, so each step first hulls the last
step's vertices, about a quarter of the grid, and keeps that hull when no
grid point lies above it by more than the bend tolerance.  Values are
anchored at the start of a period, before the drift step, to match the
simulator's event order (drift, then split, then payoff).  Since the
Bellman operator is monotone and shifts a constant c to x c, the last
step's smallest and largest change bracket the fixed point (MacQueen 1966;
Porteus 1971): iteration stops once the bracket is narrow and returns its
lower end.

Fixed policies are valued exactly by solving the linear system of their
one-period transition instead of iterating, so policy values carry no
iteration error on top of the discretization.  Drift moves every silent
belief toward p*, so in dependency order that system is block triangular
with few and small cyclic blocks; it is solved block by block, each
cyclic block by one dense solve, with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import OracleError, OutOfRange
from .model import Problem, _locate
from .dynamics import period_law
from .solver import MarkovPolicy, PolicyRegion

__all__ = [
    "BeliefGrid",
    "OracleResult",
    "make_grid",
    "value_iteration",
    "evaluate_policy_discrete",
    "contact_gap",
    "myopic_policy",
    "slide_only_policy",
    "full_disclosure_policy",
]

_DEDUPE_TOL = 1e-14
#: Most uniform points make_grid will lay down.
_MAX_GRID_POINTS = 10**7
_LEFT_SAMPLE_OFFSET = 1e-12
_HULL_BEND_TOL = 1e-13
_POLICY_RESIDUAL_TOL = 1e-8
DEFAULT_TOL = 1e-6
#: Value-iteration steps before value_iteration gives up.
_MAX_ITER = 200_000


class BeliefGrid:
    """Sorted, deduplicated belief grid including every payoff cut."""

    __slots__ = ("points",)

    def __init__(self, points):
        arr = np.asarray(points, dtype=float)
        arr.setflags(write=False)
        self.points = arr

    def __len__(self) -> int:
        return int(self.points.size)


def make_grid(problem: Problem, gap: float, extra=()) -> BeliefGrid:
    """Uniform grid refined with the cuts, their left limits, and extras.

    Left-limit samples sit _LEFT_SAMPLE_OFFSET below each interior cut so the
    low side of every payoff jump is represented.  Points closer together
    than _DEDUPE_TOL are merged.  Raises OracleError when a payoff interval
    ends up with fewer than 3 points.
    """
    if not gap > 0.0:
        raise OutOfRange(f"grid gap must be positive, got {gap!r}")
    if not 1.0 / gap <= _MAX_GRID_POINTS:
        raise OutOfRange(f"grid gap {gap!r} would need more than {_MAX_GRID_POINTS} points")
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

    # Points per payoff interval [cut, next cut); the last one is closed at 1.
    counts = np.diff(np.searchsorted(pts, cuts))
    counts[-1] += 1
    short = np.flatnonzero(counts < 3)
    if short.size:
        i = short[0]
        close = "]" if i == counts.size - 1 else ")"
        raise OracleError(
            f"payoff interval [{cuts[i]}, {cuts[i + 1]}{close} has only {counts[i]} "
            f"grid points at gap {gap}"
        )
    return BeliefGrid(pts)


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


def _upper_hull(xs: np.ndarray, ys: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
    """Positions of the upper concave envelope's vertices among points sorted by x.

    Chord passes run to their fixed point: each drops every point on, below
    or within _HULL_BEND_TOL of its neighbors' chord (a run dropped at once
    is convex, so its outer neighbors' chord covers it), and each but the
    last drops at least one.  A cascade, a concave arc below both its ends,
    sheds two points a pass and takes O(n) passes; value iteration feeds
    none, as u and the hull read at the increasing drift are nondecreasing.

    The passes start from the sorted positions `guess` (both ends included)
    when given, else from all points.  A guess's hull stands if no point lies
    above it by more than the bend threshold.  Otherwise the points above
    join its vertices and the passes run again; after a second miss they
    run on all points.
    """
    thr = _HULL_BEND_TOL * max(1.0, float(np.max(np.abs(ys))))
    keep, misses = guess, 0
    while True:
        if keep is None:
            keep, hx, hy, misses = np.arange(xs.size), xs, ys, 2
        else:
            hx, hy = xs[keep], ys[keep]
        while True:
            chord = hy[:-2] + (hy[2:] - hy[:-2]) * (hx[1:-1] - hx[:-2]) / (hx[2:] - hx[:-2])
            bent = (hy[1:-1] - chord) > thr
            if bent.all():
                break
            kept = np.concatenate(([True], bent, [True]))
            keep, hx, hy = keep[kept], hx[kept], hy[kept]
        if misses == 2:
            return keep
        above = ys > np.interp(xs, hx, hy) + thr
        if not above.any():
            return keep
        misses += 1
        above[keep] = True
        keep = np.flatnonzero(above) if misses == 1 else None


def _bellman_step(pts, paid, w, x, beliefs, vertices=None):
    """Hull of the one-period payoffs phi = paid + x w on the grid, read at beliefs; phi; its vertices.

    paid is (1-x) u.  `vertices`, when given, is _upper_hull's guess at the
    hull's vertex positions: the last step's, in value iteration.
    """
    phi = paid + x * w
    keep = _upper_hull(pts, phi, vertices)
    return np.interp(beliefs, pts[keep], phi[keep]), phi, keep


def value_iteration(problem: Problem, delta: float, grid: BeliefGrid,
                    tol: float = DEFAULT_TOL) -> OracleResult:
    """Fixed point of the discrete Bellman operator on the grid.

    With d = w_n - w_{n-1}, the fixed point lies between
    w_n + x/(1-x) min d and w_n + x/(1-x) max d (MacQueen 1966; Porteus
    1971, Oper. Res. 19).  Iteration stops when max d - min d drops to
    tol * (1 - x), so the bracket is at most tol * x wide, and returns its
    lower end: within tol * x of the true discrete value and never above it.
    `bound` is the final bracket width; `residual` and `change_history` hold
    the sup-norm change of the plain iterates.  OracleError is raised after
    _MAX_ITER steps.

    Each step's hull starts from the last step's vertices, about a quarter
    of the grid, and takes in more points only where some grid point lies
    above that hull (_upper_hull's guess).  Values, iteration count and
    bound equal those of hulling all points every step, bit for bit, on
    every instance tested.
    """
    a, b, x = period_law(problem, delta)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise OutOfRange(f"tolerance must be finite and non-negative, got {tol!r}")
    pts = grid.points
    paid = (1.0 - x) * problem.payoff.value(pts)
    drifted = a + b * pts
    w = np.full(pts.size, float(min(problem.payoff.levels)))
    vertices = None
    history: list[float] = []
    threshold = tol * (1.0 - x)
    for iteration in range(1, _MAX_ITER + 1):
        w_new, _, vertices = _bellman_step(pts, paid, w, x, drifted, vertices)
        step = w_new - w
        low, high = float(np.min(step)), float(np.max(step))
        history.append(max(high, -low))
        w = w_new
        if high - low <= threshold:
            scale = x / (1.0 - x)
            return OracleResult(grid, w + scale * low, delta, iteration, history[-1],
                                np.array(history), scale * (high - low))
    raise OracleError(
        f"value iteration did not reach a change spread of {threshold:.3e} in "
        f"{_MAX_ITER} steps (last spread {high - low:.3e}, last change {history[-1]:.3e})"
    )


def contact_gap(problem: Problem, result: OracleResult) -> np.ndarray:
    """Hull-minus-payoff gap of the converged one-period objective.

    Zero (up to iteration noise) where the discrete game is content to hold
    the drifted belief, strictly positive where it prefers a split.
    """
    pts = result.grid.points
    x = period_law(problem, result.delta)[2]
    hull, phi, _ = _bellman_step(pts, (1.0 - x) * problem.payoff.value(pts), result.values, x, pts)
    return hull - phi


def _row_lists(values: np.ndarray, mask: np.ndarray) -> list[list]:
    """The masked entries of each row of a 2-D array, as Python lists."""
    flat = values[mask].tolist()
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _blocks(reads: list[list[int]]) -> list[list[int]]:
    """Strongly connected blocks of the graph "node i reads node k" (Tarjan 1972).

    Iterative depth-first search, in O(n) time and memory for n nodes of
    O(1) reads each.  Blocks come out in dependency order: each reads,
    outside itself, only nodes of earlier blocks.  A block of two or more
    nodes holds a cycle.
    """
    n = len(reads)
    index = [-1] * n         # discovery number; n once the node's block is out
    low = [0] * n
    finished, blocks = [], []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        path = [(root, iter(reads[root]))]
        while path:
            node, pending = path[-1]
            for k in pending:
                if index[k] < 0:
                    index[k] = low[k] = count
                    count += 1
                    path.append((k, iter(reads[k])))
                    break
                if index[k] < low[node]:
                    low[node] = index[k]
            else:
                path.pop()
                found = index[node]
                if path and low[node] < low[path[-1][0]]:
                    low[path[-1][0]] = low[node]
                if low[node] < found:
                    finished.append(node)
                    continue
                # The block is this node and every node finished since it was found.
                start = len(finished)
                while start and index[finished[start - 1]] > found:
                    start -= 1
                block = finished[start:] + [node]
                del finished[start:]
                for k in block:
                    index[k] = n
                blocks.append(block)
    return blocks


def _solve_block(block: list[int], col: list[float],
                 reads: list[list[int]], coefs: list[list[float]]) -> None:
    """Values of one cyclic block, written into col over its right-hand sides.

    One dense solve of (I - W) z = rhs + the reads of earlier blocks, where
    W holds the block's reads of its own nodes.
    """
    place = {node: p for p, node in enumerate(block)}
    system = np.eye(len(block))
    rhs = []
    for p, i in enumerate(block):
        total = col[i]
        for k, c in zip(reads[i], coefs[i]):
            if k in place:
                system[p, place[k]] -= c
            else:
                total += c * col[k]     # an earlier block's final value
        rhs.append(total)
    for i, value in zip(block, np.linalg.solve(system, rhs).tolist()):
        col[i] = value


def _solve_in_drift_order(cols: np.ndarray, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Exact solution of w = rhs + sum_j weights[:, j] * w[cols[:, j]].

    The weights are nonnegative with row sums below 1.  Row i reads node k
    through a nonzero weight at column k != i; its weight on itself goes to
    its diagonal.  The rows are solved block by block in the dependency
    order of _blocks, the block triangular form of Duff and Reid (1978): a
    block of one node by substitution, a cyclic block by one dense solve.
    Drift moves every belief toward p*, so the graph is nearly acyclic:
    every cycle passes through a node next to p* or a node that a split
    reads.  A cyclic block of b nodes costs O(b^3) time and O(b^2) memory,
    so the time is O(n + sum of b^3) over the cyclic blocks and the memory
    O(n + b^2) for the largest.  Splits to a region's own ends at grid
    points, as the solver's and the myopic policy make on a grid that holds
    the cutoffs, leave one cyclic block of two nodes at most; split targets
    far past their regions and off the grid can tie a thousand nodes into
    one block.
    """
    n = rhs.size
    own = cols == np.arange(n)[:, None]
    linked = (weights != 0.0) & ~own
    diag = 1.0 - np.sum(weights, axis=1, where=own)
    col = (rhs / diag).tolist()
    reads = _row_lists(cols, linked)
    coefs = _row_lists(weights / diag[:, None], linked)
    value = col.__getitem__
    for block in _blocks(reads):
        if len(block) > 1:
            _solve_block(block, col, reads, coefs)
        else:
            i = block[0]
            col[i] += sum(map(mul, coefs[i], map(value, reads[i])))
    return np.array(col)


def evaluate_policy_discrete(problem: Problem, policy: MarkovPolicy, delta: float,
                             grid: BeliefGrid) -> OracleResult:
    """Exact grid value of a fixed policy in the discrete game.

    Builds the one-period transition M (drift, then the policy's action at
    the drifted belief), four weights per grid node, and solves
    w = (1 - x) c + x M w exactly by elimination in drift order
    (_solve_in_drift_order).  Posterior beliefs that fall between nodes are
    linearly interpolated, which is exact whenever the policy's split
    targets are grid points.
    """
    a, b, x = period_law(problem, delta)
    pts = grid.points
    n = pts.size
    drifted = a + b * pts
    lo, hi = policy.targets(drifted)
    rho = (drifted - lo) / np.where(hi > lo, hi - lo, 1.0)
    c = (1.0 - rho) * problem.payoff.value(lo) + rho * problem.payoff.value(hi)

    cols, vals = [], []
    for target, mass in ((lo, 1.0 - rho), (hi, rho)):
        j = np.minimum(_locate(target, pts)[1], n - 2)
        t = (target - pts[j]) / (pts[j + 1] - pts[j])
        cols += [j, j + 1]
        vals += [mass * (1.0 - t), mass * t]
    # Four entries per node, two per target; a slide's high target is its
    # low one with zero mass.
    cols, vals = np.column_stack(cols), np.column_stack(vals)
    rhs = (1.0 - x) * c
    w = _solve_in_drift_order(cols, x * vals, rhs)
    residual = float(np.max(np.abs(w - (rhs + x * np.sum(vals * w[cols], axis=1)))))
    if residual > _POLICY_RESIDUAL_TOL:
        raise OracleError(
            f"policy linear system residual {residual:.3e} exceeds {_POLICY_RESIDUAL_TOL}")
    return OracleResult(grid, w, delta, 1, residual)


def myopic_policy(problem: Problem) -> MarkovPolicy:
    """Split to the supporting segment of cav u; slide where u already meets it.

    Levels strictly increase, so this splits every interval to its endpoints
    except the top one, where the payoff is flat and no disclosure helps
    within the period.
    """
    cuts = problem.payoff.cuts
    regions = [PolicyRegion(lo, hi, "split", lo, hi) for lo, hi in zip(cuts[:-2], cuts[1:-1])]
    return MarkovPolicy(regions + [PolicyRegion(cuts[-2], 1.0, "slide")])


def slide_only_policy(problem: Problem) -> MarkovPolicy:
    """Never disclose anything; the belief just drifts toward p*."""
    del problem
    return MarkovPolicy([PolicyRegion(0.0, 1.0, "slide")])


def full_disclosure_policy(problem: Problem) -> MarkovPolicy:
    """Reveal the state every period (split straight to {0, 1})."""
    del problem
    return MarkovPolicy([PolicyRegion(0.0, 1.0, "split", 0.0, 1.0)])
