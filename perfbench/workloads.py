"""The benchmark's four workloads and their output checks.

A workload object is built once per run (its set-up), then runs whole rounds
of the same operations; ``check`` inspects what the rounds produced and
returns a list of failed checks.  Every call into the program goes through a
module attribute (``oracle.value_iteration``, never a name imported from
it), so that a traced run can wrap the public functions in place.

Checks compare against computations made apart from the program or against
properties the method must have, never against a stored copy of an earlier
run's output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from persuade import cli, errors, model, oracle, sim, solver

now = time.perf_counter

# The reference instance of the test suite (tests/conftest.py::CANON_RAW).
CANON_RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "levels": [0.0, 0.5, 0.8, 0.95, 1.0],
}
DP_DELTA = 1e-3
DP_TOL = 1e-6
ROUNDING = 1e-9          # slack for float rounding in shape and bound checks
SIM_ALLOWANCE = 0.01     # the discretization allowance of A8


@dataclass
class Round:
    """One round of a workload: the seconds its operations took, the seconds
    of named parts of it, and how many operations it attempted and failed."""

    wall: float
    parts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def canon():
    problem = model.parse_problem(CANON_RAW)
    return problem, solver.solve(problem)


def timed(fn, *args, **kwargs):
    """Call fn; returns (seconds it took, result)."""
    t0 = now()
    result = fn(*args, **kwargs)
    return now() - t0, result


def dp_shape_errors(label, points, values):
    """Values of v or of the DP must be nondecreasing and concave along a grid.

    Concavity is tested point by point against the chord of the two
    neighbours, which stays well conditioned where grid points sit 1e-12
    apart (the left samples of each cut).
    """
    out = []
    drop = float(np.min(np.diff(values)))
    if drop < -ROUNDING:
        out.append(f"{label}: values decrease by {-drop:.3e} along the grid")
    x0, x1, x2 = points[:-2], points[1:-1], points[2:]
    chord = values[:-2] + (values[2:] - values[:-2]) * ((x1 - x0) / (x2 - x0))
    dip = float(np.min(values[1:-1] - chord))
    if dip < -ROUNDING:
        out.append(f"{label}: values fall {-dip:.3e} below a neighbour chord (not concave)")
    return out


def sim_band(mean, tail_bound, levels):
    """Interval for the infinite-horizon mean of a truncated simulation.

    The periods after the horizon carry weight x^horizon = tail_bound / spread
    and pay between the lowest and the highest level.
    """
    lo, hi = min(levels), max(levels)
    tail_weight = tail_bound / (hi - lo) if hi > lo else 0.0
    return mean + tail_weight * lo, mean + tail_weight * hi


def sim_value_errors(label, mean, std_error, tail_bound, levels, target, optimal):
    """A8's mean check; for a policy other than the optimum, only 'not above'."""
    low, high = sim_band(mean, tail_bound, levels)
    margin = 3.0 * std_error + SIM_ALLOWANCE
    if high + margin < target and optimal:
        return [f"{label}: simulated mean {mean:.5f} (tail-adjusted up to {high:.5f}) "
                f"below the solved value {target:.5f} by more than {margin:.5f}"]
    if low - margin > target:
        return [f"{label}: simulated mean {mean:.5f} (tail-adjusted {low:.5f}) "
                f"beats the solved value {target:.5f} by more than {margin:.5f}"]
    return []


def calibration_errors(label, bins):
    """A8's bin test: state frequency within 3 SE + half width of the bin center."""
    out = []
    for b in bins:
        if b["count"] >= 1000:
            p = min(max(b["predicted"], 0.0), 1.0)
            se = math.sqrt(p * (1.0 - p) / b["count"])
            gap = abs(b["frequency"] - 0.5 * (b["lo"] + b["hi"]))
            bound = 3.0 * se + 0.5 * (b["hi"] - b["lo"])
            if gap > bound:
                out.append(f"{label}: bin [{b['lo']:.3f},{b['hi']:.3f}) frequency gap "
                           f"{gap:.4f} > {bound:.4f}")
    return out


# --- oracle_canon --------------------------------------------------------------

class OracleCanon:
    """A2 plus A4: value iteration on the canon grid, then two policy values."""

    min_rounds = 1

    def __init__(self, seed, workdir):
        del seed, workdir  # the canon inputs are fixed
        self.problem, self.solution = canon()
        self.grid = oracle.make_grid(self.problem, 2.5e-4, extra=self.solution.cutoffs)
        self.myopic = oracle.myopic_policy(self.problem)
        self.outputs = []

    def run_round(self):
        vi_s, dp = timed(oracle.value_iteration, self.problem, DP_DELTA, self.grid, tol=DP_TOL)
        star_s, w_star = timed(oracle.evaluate_policy_discrete, self.problem,
                               self.solution.policy, DP_DELTA, self.grid)
        myopic_s, w_myopic = timed(oracle.evaluate_policy_discrete, self.problem,
                                   self.myopic, DP_DELTA, self.grid)
        self.outputs.append((dp.values, w_star.values, w_myopic.values))
        return Round(vi_s + star_s + myopic_s,
                     {"oracle.vi_s": vi_s, "oracle.policy_eval_s": star_s + myopic_s}, 3, 0)

    def check(self):
        pts = self.grid.points
        v_dp, w_star, w_myopic = self.outputs[0]
        exact = self.solution.value.value(pts)
        out = []
        sup = float(np.max(np.abs(v_dp - exact)))
        if sup > 0.01:
            out.append(f"oracle_canon: sup|v_dp - v_solver| = {sup:.3e} > 0.01")
        out += dp_shape_errors("oracle_canon", pts, v_dp)
        # Value iteration stops once the remaining distance to the fixed
        # point is at most tol * x; no policy can beat the fixed point.
        stop_bound = DP_TOL * math.exp(-self.problem.discounting.r * DP_DELTA)
        for name, w in (("sigma_star", w_star), ("myopic", w_myopic)):
            excess = float(np.max(w - v_dp))
            if excess > stop_bound + ROUNDING:
                out.append(f"oracle_canon: {name} value exceeds the DP value by "
                           f"{excess:.3e} > {stop_bound:.3e}")
        for p in (0.62, 0.65):
            shortfall = float(self.solution.value.value(p)) - float(np.interp(p, pts, w_myopic))
            if shortfall < 1e-3:
                out.append(f"oracle_canon: myopic shortfall {shortfall:.2e} at {p} < 1e-3")
        if any(not all(np.array_equal(a, b) for a, b in zip(o, self.outputs[0]))
               for o in self.outputs[1:]):
            out.append("oracle_canon: rounds on the same inputs gave different values")
        return out

    def close(self):
        pass


# --- simulate_canon ------------------------------------------------------------

SIM_BELIEFS = (0.1, 0.5, 0.62, 0.9)   # A8's starting beliefs
SIM_PATHS = 100_000                   # A8's path count: chunks of 32768 x 3 + 1696
SIM_DELTA = 0.01
SIM_HORIZON = 1000


def _bins(result):
    return [{"lo": b.lo, "hi": b.hi, "count": b.count, "frequency": b.frequency,
             "predicted": b.predicted} for b in result.calibration]


class SimulateCanon:
    """A8's simulation of sigma_star on canon, at a 1000-period horizon."""

    min_rounds = 1

    def __init__(self, seed, workdir):
        del workdir
        self.problem, self.solution = canon()
        self.configs = [sim.SimConfig(delta=SIM_DELTA, horizon=SIM_HORIZON,
                                      n_paths=SIM_PATHS, seed=seed, initial_belief=p0)
                        for p0 in SIM_BELIEFS]
        self.outputs = []

    def run_round(self):
        wall, results = 0.0, []
        for config in self.configs:
            seconds, result = timed(sim.simulate, self.problem, self.solution.policy, config)
            wall += seconds
            results.append(result)
        self.outputs.append([(r.mean_discounted_payoff, r.std_error, r.tail_bound, _bins(r))
                             for r in results])
        return Round(wall, {}, len(self.configs), 0)

    def check(self):
        out = []
        levels = self.problem.payoff.levels
        for p0, (mean, se, tail, bins) in zip(SIM_BELIEFS, self.outputs[0]):
            label = f"simulate_canon p0={p0}"
            target = float(self.solution.value.value(p0))
            out += sim_value_errors(label, mean, se, tail, levels, target, optimal=True)
            out += calibration_errors(label, bins)
        if any(o != self.outputs[0] for o in self.outputs[1:]):
            out.append("simulate_canon: the same seed gave different results across rounds")
        return out

    def close(self):
        pass


# --- solve_batch ---------------------------------------------------------------

BATCH_REGULAR = 388
VERIFY_POINTS = 2000                  # as in A6
READ_GRID = np.linspace(0.0, 1.0, 201)
MAX_STEPS = 8
MU_RANGE = (0.01, 10.0)
A10_EVERY = 25                        # A10's properties on every 25th instance


def regular_instance(rng):
    """A valid instance with random_instance's margins, more steps, wider mu.

    Cuts stay at least 0.06 apart and p* at least 0.03 from every cut, as in
    tests/conftest.py::random_instance; steps range over 2..8 (not 2..5) and
    mu = r / (lambda0 + lambda1) is log-uniform on [0.01, 10] (not about
    [0.03, 2]).  Levels follow the same geometrically decaying chord slopes.
    """
    n_steps = int(rng.integers(2, MAX_STEPS + 1))
    gaps = 0.06 + (1.0 - 0.06 * n_steps) * rng.dirichlet(np.ones(n_steps))
    cuts = np.concatenate(([0.0], np.cumsum(gaps)[:-1], [1.0]))
    while True:
        lambda0 = rng.uniform(0.4, 2.5)
        lambda1 = rng.uniform(0.4, 2.5)
        if np.min(np.abs(cuts - lambda0 / (lambda0 + lambda1))) >= 0.03:
            break
    mu = math.exp(rng.uniform(math.log(MU_RANGE[0]), math.log(MU_RANGE[1])))
    ratio = rng.uniform(0.35, 0.8)
    slopes = ratio ** np.arange(n_steps - 1)
    levels = np.concatenate(([0.0], np.cumsum(slopes * np.diff(cuts[:-1]))))
    top = rng.uniform(0.7, 1.0)
    levels = levels * (top / levels[-1]) + rng.uniform(0.0, 1.0 - top)
    return {"lambda0": lambda0, "lambda1": lambda1, "r": mu * (lambda0 + lambda1),
            "cuts": cuts.tolist(), "levels": levels.tolist()}


def canon_variant(p_star, mu=0.5):
    """Canon cuts and levels with the stationary belief and mu moved."""
    lambda0 = p_star / (1.0 - p_star)
    return dict(CANON_RAW, lambda0=lambda0, lambda1=1.0, r=mu * (lambda0 + 1.0))


def edge_instances():
    """Fixed instances that solve() fails on (ROADMAP item 3).

    They do not depend on the seed, so the failed share is the same in every
    run.  p* a hair below a cut (2e-12 to 1e-10 under 0.4 or 0.6, and 1e-4
    to 5e-4 under 0.2 or 0.4) gives NoRoot or 'value discontinuity';
    mu >= 400 on the canon cuts overflows (q - p*)**(-mu) and gives NoRoot.
    """
    below = [canon_variant(cut - gap) for cut in (0.4, 0.6) for gap in (2e-12, 1e-11, 1e-10)]
    near = [canon_variant(p) for p in (0.1999, 0.1995, 0.3999)]
    steep = [canon_variant(0.5, mu) for mu in (400.0, 1000.0, 5000.0)]
    return below + near + steep


@dataclass
class Solved:
    index: int
    problem: object
    solution: object
    report: object
    values: np.ndarray


def solve_instance(index, raw):
    """The per-instance operation: parse, solve, verify, read values."""
    problem = model.parse_problem(raw)
    solution = solver.solve(problem)
    report = solver.verify_solution(problem, solution, n_points=VERIFY_POINTS)
    return Solved(index, problem, solution, report, solution.value.value(READ_GRID))


def solve_all(batch):
    """Run the operation over a batch.

    Returns the seconds spent in it, the solved instances and the failures.
    Warnings (the edge instances' overflow) are recorded, not printed.
    """
    wall, solved, failures = 0.0, [], []
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        for index, raw in enumerate(batch):
            t0 = now()
            try:
                solved.append(solve_instance(index, raw))
            except errors.PersuadeError as exc:
                failures.append((index, f"{type(exc).__name__}: {exc}"))
            wall += now() - t0
    return wall, solved, failures


def solved_errors(label, item):
    out = []
    if not item.report.ok:
        kinds = sorted({v.condition for v in item.report.violations})
        out.append(f"{label} #{item.index}: verify_solution reports {kinds}")
    levels = item.problem.payoff.levels
    if np.min(item.values) < min(levels) - ROUNDING or np.max(item.values) > max(levels) + ROUNDING:
        out.append(f"{label} #{item.index}: value outside [{min(levels)}, {max(levels)}]")
    if np.min(np.diff(item.values)) < -ROUNDING:
        out.append(f"{label} #{item.index}: value decreases on the read grid")
    return out


def invariance_errors(item, rng):
    """A10: affine levels map the value and keep the cutoffs; rate scaling is neutral."""
    out = []
    raw = model.problem_to_dict(item.problem)
    a, b = rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)
    affine = solver.solve(model.parse_problem(dict(raw, levels=[a * h + b for h in raw["levels"]])))
    c = rng.uniform(0.3, 5.0)
    scaled = solver.solve(model.parse_problem(
        dict(raw, lambda0=c * raw["lambda0"], lambda1=c * raw["lambda1"], r=c * raw["r"])))
    # A10's tolerances: 1e-9 for the affine map (scaled by its size), 1e-12
    # for rate rescaling, which changes p* and mu by at most rounding.
    cases = (("affine levels", affine, a * item.values + b, 1e-9, 1e-9 * max(1.0, a + abs(b))),
             ("rate rescaling", scaled, item.values, 1e-12, 1e-12))
    for name, other, expected, cutoff_tol, tol in cases:
        err = float(np.max(np.abs(other.value.value(READ_GRID) - expected)))
        shift = max((abs(x - y) for x, y in zip(other.cutoffs, item.solution.cutoffs)),
                    default=0.0)
        if len(other.cutoffs) != len(item.solution.cutoffs) or err > tol or shift > cutoff_tol:
            out.append(f"solve_batch #{item.index}: {name} moves the value by {err:.2e} "
                       f"or the cutoffs by {shift:.2e}")
    return out


class SolveBatch:
    """A seeded batch of instances through parse, solve, verify and a value read."""

    min_rounds = 1

    def __init__(self, seed, workdir):
        del workdir
        rng = np.random.default_rng(seed)
        edges = edge_instances()
        batch = [regular_instance(rng) for _ in range(BATCH_REGULAR)] + edges
        order = rng.permutation(len(batch))
        self.batch = [batch[i] for i in order]
        self.edge_ids = {int(k) for k, i in enumerate(order) if i >= BATCH_REGULAR}
        self.check_rng = np.random.default_rng([seed, 10])
        self.first = None        # the first round's (solved, failures)
        self.changed = False     # a later round gave other values

    def run_round(self):
        wall, solved, failures = solve_all(self.batch)
        # Only the first round's outputs are kept, so the run's memory does
        # not grow with the number of rounds that fit in it.
        if self.first is None:
            self.first = (solved, failures)
        else:
            first = self.first[0]
            self.changed |= [x.index for x in solved] != [x.index for x in first] or \
                any(not np.array_equal(x.values, y.values) for x, y in zip(solved, first))
        return Round(wall, {}, len(self.batch), len(failures))

    def check(self):
        solved, failures = self.first
        out = []
        for item in solved:
            out += solved_errors("solve_batch", item)
        for item in solved[::A10_EVERY]:
            out += invariance_errors(item, self.check_rng)
        unexpected = [f for f in failures if f[0] not in self.edge_ids]
        for index, message in unexpected:
            print(f"solve_batch: regular instance #{index} failed: {message}; "
                  f"instance {json.dumps(self.batch[index])}", file=sys.stderr)
        if self.changed:
            out.append("solve_batch: rounds on the same inputs gave different values")
        return out

    def close(self):
        pass


# --- cli_session ---------------------------------------------------------------

CLI_BELIEFS = (0.3, 0.62)
CLI_POLICIES = ("sigma_star", "myopic", "slide_only")


def run_cli(argv):
    """persuade.cli.main in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {key: [row[key] for row in rows] for key in rows[0]}


class CliSession:
    """A scripted in-process session of persuade.cli.main calls."""

    min_rounds = 2   # the rerun check compares later rounds with the first

    def __init__(self, seed, workdir):
        self.seed = seed
        self.problem, self.solution = canon()
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.config = os.path.join(self.dir, "canon.json")
        with open(self.config, "w") as handle:
            json.dump(CANON_RAW, handle)
        self.first = None        # main outputs of the first round, by name
        self.first_dir = None
        self.codes = []
        self.mismatches = []
        self.bytes_written = []

    def session(self, out):
        cfg = ["--config", self.config]
        yield "validate", ["validate"] + cfg, []
        yield "solve", ["solve"] + cfg + ["--out", os.path.join(out, "solve.csv")], \
            ["solve.csv", "solve.json"]
        for policy in CLI_POLICIES:
            for belief in CLI_BELIEFS:
                name = f"sim-{policy}-{belief}.json"
                yield "simulate", ["simulate"] + cfg + [
                    "--out", os.path.join(out, name), "--policy", policy,
                    "--belief", repr(belief), "--seed", str(self.seed)], [name]
        yield "oracle", ["oracle"] + cfg + ["--out", os.path.join(out, "oracle.csv")], \
            ["oracle.csv"]
        yield "sweep", ["sweep"] + cfg + ["--out", os.path.join(out, "sweep.csv")], \
            ["sweep.csv"]

    def run_round(self):
        out = tempfile.mkdtemp(prefix="round-", dir=self.dir)
        commands = list(self.session(out))
        stdout, wall = {}, 0.0
        for label, argv, _ in commands:
            seconds, (code, text) = timed(run_cli, argv)
            wall += seconds
            self.codes.append((label, code))
            stdout[label] = text
        main = {"validate.stdout": stdout["validate"].encode()}
        for _, _, files in commands:
            for name in files:
                with open(os.path.join(out, name), "rb") as handle:
                    main[name] = handle.read()
        self.bytes_written.append(sum(e.stat().st_size for e in os.scandir(out)))
        if self.first is None:
            self.first, self.first_dir = main, out
        else:
            self.mismatches += [name for name in main if main[name] != self.first.get(name)]
            shutil.rmtree(out)
        return Round(wall, {}, len(commands), 0)

    def check(self):
        out = [f"cli_session: {label} exited {code}" for label, code in self.codes if code != 0]
        if out:
            return out
        out += [f"cli_session: rerun changed {name}" for name in sorted(set(self.mismatches))]
        out += self._check_validate() + self._check_solve() + self._check_simulate()
        out += self._check_oracle() + self._check_sweep()
        return out

    def _check_validate(self):
        fields = dict(line.split("=", 1) for line in
                      self.first["validate.stdout"].decode().splitlines())
        rates = CANON_RAW["lambda0"] + CANON_RAW["lambda1"]
        expected = {"p_star": CANON_RAW["lambda0"] / rates, "mu": CANON_RAW["r"] / rates}
        return [f"cli_session: validate printed {key}={fields.get(key)}, expected {value!r}"
                for key, value in expected.items()
                if key not in fields or abs(float(fields[key]) - value) > 1e-15]

    def _check_solve(self):
        cols = read_csv(os.path.join(self.first_dir, "solve.csv"))
        belief, u, cav, v = (np.array(cols[k], dtype=float) for k in ("belief", "u", "cav_u", "v"))
        levels = CANON_RAW["levels"]
        out = []
        if belief.size < 1001 or np.any(np.diff(belief) <= 0.0):
            out.append("cli_session: solve.csv beliefs are not 1001+ increasing samples")
        out += dp_shape_errors("cli_session solve.csv", belief, v)
        if np.min(v) < min(levels) - ROUNDING or np.max(v) > max(levels) + ROUNDING:
            out.append("cli_session: solve.csv value outside the payoff levels")
        if np.any(u > cav + ROUNDING):
            out.append("cli_session: solve.csv payoff above its concave envelope")
        return out

    def _check_simulate(self):
        out = []
        levels = CANON_RAW["levels"]
        for policy in CLI_POLICIES:
            for belief in CLI_BELIEFS:
                name = f"sim-{policy}-{belief}.json"
                data = json.loads(self.first[name])
                target = float(self.solution.value.value(belief))
                out += sim_value_errors(f"cli_session {name}", data["mean_discounted_payoff"],
                                        data["std_error"], data["tail_bound"], levels, target,
                                        optimal=policy == "sigma_star")
        return out

    def _check_oracle(self):
        cols = read_csv(os.path.join(self.first_dir, "oracle.csv"))
        belief, value, solver_value, abs_error = (
            np.array(cols[k], dtype=float) for k in ("belief", "value", "solver_value", "abs_error"))
        out = dp_shape_errors("cli_session oracle.csv", belief, value)
        if np.any(abs_error != np.abs(value - solver_value)):
            out.append("cli_session: oracle.csv abs_error is not |value - solver_value|")
        if float(np.max(abs_error)) > 0.01:
            out.append(f"cli_session: oracle.csv sup error {np.max(abs_error):.3e} > 0.01")
        return out

    def _check_sweep(self):
        cols = read_csv(os.path.join(self.first_dir, "sweep.csv"))
        delta = np.array(cols["delta"], dtype=float)
        out = []
        if np.any(np.diff(delta) >= 0.0):
            out.append("cli_session: sweep deltas are not decreasing")
        for key in ("value_iteration_sup_error", "policy_sup_error"):
            errs = [float(x) for x in cols[key]]
            if not all(b <= a * 1.1 for a, b in zip(errs, errs[1:])):
                out.append(f"cli_session: sweep {key} does not shrink with delta: {errs}")
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "oracle_canon": OracleCanon,
    "simulate_canon": SimulateCanon,
    "solve_batch": SolveBatch,
    "cli_session": CliSession,
}

