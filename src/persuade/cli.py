"""Command-line front end.

Subcommands: validate a problem config, solve it in closed form, cross-check
against the discrete-time oracle, simulate a policy, and sweep the period
length.  Outputs are plot-ready CSV/JSON; every output file gets a sidecar
`<file>.manifest.json` recording the command, the config hash, the tool
version, and all resolved parameters, so the main outputs stay byte-identical
across reruns of the same inputs.

Exit codes: 0 success, 2 validation, 3 file system, 4 solver, 5 oracle,
6 simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import OracleError, OutOfRange, PersuadeError, ProblemValidationError, SimulationError, SolverError
from .model import Problem, load_problem
from .oracle import (DEFAULT_TOL, evaluate_policy_discrete, make_grid, myopic_policy,
                     slide_only_policy, value_iteration)
from .sim import SimConfig, default_period, simulate, sized_horizon
from .solver import MarkovPolicy, solve

__all__ = ["main", "run"]

_CUTOFF_MATCH_TOL = 1e-12
_MAX_SAMPLES = 10**7
# (error class, stderr prefix, exit code): the first class an error is an instance of wins.
_EXITS = (
    (SolverError, "solver error", 4),
    (OracleError, "oracle error", 5),
    (SimulationError, "simulation error", 6),
    (PersuadeError, "error", 2),
)


# --- output plumbing ---------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file beside path; an OSError names path, not the temp file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".persuade-tmp-")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _config_digest(config_path: str) -> str:
    import hashlib      # here, not at the top: it loads OpenSSL, which only manifests need

    with open(config_path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_manifest(out_path: str, command: str, config_path: str, params: dict) -> None:
    manifest = {
        "command": command,
        "config_path": config_path,
        "config_sha256": _config_digest(config_path),
        "version": __version__,
        "parameters": params,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_atomic(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(value) for value in row) + "\n")
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _solution_json_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    if ext.lower() == ".csv":
        return root + ".json"
    return csv_path + ".json"


# --- subcommands -------------------------------------------------------------

# Each subcommand returns (outputs, params): the (path, text) pairs to write, in
# order, and the parameters recorded in every output's manifest.

def cmd_validate(args) -> tuple[list, dict]:
    problem = load_problem(args.config)
    print(f"p_star={problem.stationary_belief!r}")
    print(f"mu={problem.discount_ratio!r}")
    print(f"m={problem.pivot}")
    print(f"m_prime={problem.intervals_above}")
    print(f"pinned={problem.pinned}")
    return [], {}


def cmd_solve(args) -> tuple[list, dict]:
    if args.samples < 0:
        raise OutOfRange(f"sample count must be non-negative, got {args.samples}")
    if args.samples > _MAX_SAMPLES:
        raise OutOfRange(f"sample count must be at most {_MAX_SAMPLES}, got {args.samples}")
    problem = load_problem(args.config)
    solution = solve(problem)
    cuts = problem.payoff.cuts
    pts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, args.samples),
        np.array(cuts),
        np.array(solution.cutoffs, dtype=float),
    ]))
    value = solution.value
    lows, highs = solution.policy.targets(pts)
    # The cutoffs increase, so the one nearest a point is one of its two
    # neighbours; an inf stands in for a missing neighbour.
    cutoffs = np.array(solution.cutoffs + (np.inf,))
    above = np.searchsorted(cutoffs, pts)
    near = np.minimum(np.abs(pts - cutoffs[above]), np.abs(pts - cutoffs[above - 1]))
    rows = [
        (p, float(problem.payoff.value(p)), float(problem.payoff.envelope(p)), value.value(p),
         value.derivative(p), f"split:{low!r}:{high!r}" if low < high else "slide",
         gap <= _CUTOFF_MATCH_TOL)
        for p, low, high, gap in zip(pts.tolist(), lows.tolist(), highs.tolist(), near.tolist())
    ]
    header = ["belief", "u", "cav_u", "v", "v_prime", "region", "is_cutoff"]
    json_path = _solution_json_path(args.out)
    outputs = [(args.out, _csv_text(header, rows)),
               (json_path, json.dumps(solution.to_dict(), indent=2) + "\n")]
    return outputs, {"samples": args.samples, "solution_json": json_path}


def cmd_oracle(args) -> tuple[list, dict]:
    problem = load_problem(args.config)
    solution = solve(problem)
    grid = make_grid(problem, args.grid_gap, extra=solution.cutoffs)
    result = value_iteration(problem, args.delta, grid, tol=args.tol)
    pts = grid.points
    u = problem.payoff.value(pts)
    cav = problem.payoff.envelope(pts)
    v_solver = solution.value.value(pts)
    rows = zip(pts.tolist(), result.values.tolist(), u.tolist(), cav.tolist(),
               v_solver.tolist(), np.abs(result.values - v_solver).tolist())
    header = ["belief", "value", "u", "cav_u", "solver_value", "abs_error"]
    return [(args.out, _csv_text(header, rows))], {
        "delta": args.delta,
        "grid_gap": args.grid_gap,
        "tol": args.tol,
        "iterations": result.iterations,
        "residual": result.residual,
        "certified_bound": result.bound,
        "grid_points": len(grid),
    }


def _resolve_policy(args, problem: Problem):
    """Named policy, or a JSON file holding a policy or a full solution."""
    name = args.policy
    if name == "sigma_star":
        return solve(problem).policy, name
    if name == "myopic":
        return myopic_policy(problem), name
    if name == "slide_only":
        return slide_only_policy(problem), name
    with open(name, "r") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:   # bad JSON, or an int with more digits than int() reads
            raise ProblemValidationError([f"policy file {name}: invalid JSON: {exc}"]) from exc
    # A solution file carries the same top-level regions and cutoffs.
    try:
        return MarkovPolicy.from_dict(data), name
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        raise ProblemValidationError([f"policy file {name}: malformed policy: {exc!r}"]) from exc


def cmd_simulate(args) -> tuple[list, dict]:
    problem = load_problem(args.config)
    policy, policy_name = _resolve_policy(args, problem)
    delta = args.delta if args.delta is not None else default_period(problem)
    horizon = args.horizon
    if horizon is None:
        horizon = sized_horizon(problem, delta)
    belief = args.belief if args.belief is not None else problem.stationary_belief
    config = SimConfig(delta=delta, horizon=horizon, n_paths=args.paths,
                       seed=args.seed, initial_belief=belief)
    result = simulate(problem, policy, config)
    payload = {
        "policy": policy_name,
        "mean_discounted_payoff": result.mean_discounted_payoff,
        # NaN for a single path, which JSON has no literal for.
        "std_error": None if np.isnan(result.std_error) else result.std_error,
        "tail_bound": result.tail_bound,
        "config": dataclasses.asdict(config),
        "calibration": [
            {"lo": b.lo, "hi": b.hi, "center": b.center, "count": b.count,
             "state_one": b.state_one, "frequency": b.frequency,
             "predicted": b.predicted}
            for b in result.calibration if b.count
        ],
    }
    return ([(args.out, json.dumps(payload, indent=2) + "\n")],
            payload["config"] | {"policy": policy_name})


def _convergence_order(rows: list) -> float | None:
    """Empirical order of the value-iteration error between the last two sweep rows; None where undefined."""
    if len(rows) < 2:
        return None
    (d0, e0), (d1, e1) = rows[-2][:2], rows[-1][:2]
    if min(e0, e1) <= 0.0 or d0 == d1:
        return None
    return math.log(e1 / e0) / math.log(d1 / d0)


def cmd_sweep(args) -> tuple[list, dict]:
    problem = load_problem(args.config)
    solution = solve(problem)
    deltas = args.deltas
    grid = make_grid(problem, args.grid_gap, extra=solution.cutoffs)
    v_solver = solution.value.value(grid.points)
    rows, runs = [], []
    for delta in deltas:
        vi = value_iteration(problem, delta, grid, tol=args.tol)
        pol = evaluate_policy_discrete(problem, solution.policy, delta, grid)
        rows.append((
            float(delta),
            float(np.max(np.abs(vi.values - v_solver))),
            float(np.max(np.abs(pol.values - v_solver))),
        ))
        runs.append({"delta": float(delta), "iterations": vi.iterations,
                     "certified_bound": vi.bound, "policy_residual": pol.residual,
                     "convergence_order": _convergence_order(rows)})
    header = ["delta", "value_iteration_sup_error", "policy_sup_error"]
    return [(args.out, _csv_text(header, rows))], {
        "deltas": list(map(float, deltas)),
        "grid_gap": args.grid_gap,
        "tol": args.tol,
        "runs": runs,
    }


# --- argument parsing --------------------------------------------------------

def _delta_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty delta list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuade",
        description="Optimal dynamic information disclosure: closed-form solver, "
                    "discrete-time oracle, and simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by several subcommands, declared once.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="problem JSON file")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-gap", type=float, default=1e-3, help="belief grid spacing")
    grid.add_argument("--tol", type=float, default=DEFAULT_TOL, help="fixed-point tolerance")

    p = sub.add_parser("validate", parents=[config],
                       help="check a problem config and print derived constants")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=[config],
                       help="closed-form value and policy; CSV table plus solution JSON")
    p.add_argument("--out", required=True, help="CSV output path (solution JSON lands beside it)")
    p.add_argument("--samples", type=int, default=1001, help="uniform sample count for the CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", parents=[config, grid],
                       help="discrete-time value iteration compared against the solver")
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=1e-3, help="period length")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", parents=[config], help="Monte-Carlo run of a policy")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--policy", default="sigma_star",
                   help="sigma_star | myopic | slide_only | path to a policy/solution JSON")
    p.add_argument("--delta", type=float, default=None,
                   help="period length (default: short relative to all rates)")
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=None,
                   help="periods per path (default: sized from the truncation bound)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--belief", type=float, default=None,
                   help="starting belief (default: the stationary belief)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[config, grid],
                       help="oracle and policy errors across period lengths")
    p.add_argument("--out", required=True)
    p.add_argument("--deltas", type=_delta_list, default=[0.1, 0.03, 0.01, 0.003],
                   help="comma-separated period lengths")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outputs, params = args.func(args)
        for path, text in outputs:
            _write_atomic(path, text)
        for path, _ in outputs:
            _write_manifest(path, args.command, args.config, params)
    except PersuadeError as exc:
        prefix, code = next((prefix, code) for cls, prefix, code in _EXITS if isinstance(exc, cls))
        for line in getattr(exc, "problems", [str(exc)]):
            print(f"{prefix}: {line}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
