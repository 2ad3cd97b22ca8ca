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
import datetime
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import OracleError, PersuadeError, ProblemValidationError, SimulationError, SolverError
from .model import Problem, load_problem
from .oracle import evaluate_policy_discrete, make_grid, myopic_policy, slide_only_policy, value_iteration
from .sim import DEFAULT_MAX_TAIL, SimConfig, default_period, simulate, sized_horizon
from .solver import MarkovPolicy, solve

__all__ = ["main", "run"]

_CUTOFF_MATCH_TOL = 1e-12


# --- output plumbing ---------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".persuade-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _config_digest(config_path: str) -> str:
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

def cmd_validate(args) -> int:
    problem = load_problem(args.config)
    print(f"p_star={problem.stationary_belief!r}")
    print(f"mu={problem.discount_ratio!r}")
    print(f"m={problem.pivot}")
    print(f"m_prime={problem.intervals_above}")
    print(f"pinned={problem.pinned}")
    return 0


def _region_label(region) -> str:
    if region.action == "slide":
        return "slide"
    return f"split:{region.low_target!r}:{region.high_target!r}"


def cmd_solve(args) -> int:
    problem = load_problem(args.config)
    solution = solve(problem)
    cuts = problem.payoff.cuts
    pts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, args.samples),
        np.array(cuts),
        np.array(solution.cutoffs, dtype=float),
    ]))
    value = solution.value
    rows = []
    for p in pts:
        p = float(p)
        side = "left" if p == 1.0 else "right"
        is_cutoff = any(abs(p - q) <= _CUTOFF_MATCH_TOL for q in solution.cutoffs)
        rows.append((
            p,
            float(problem.payoff.value(p)),
            float(problem.payoff.envelope(p)),
            value.value(p),
            value.derivative(p, side=side),
            _region_label(solution.policy.region_at(p)),
            is_cutoff,
        ))
    header = ["belief", "u", "cav_u", "v", "v_prime", "region", "is_cutoff"]
    _write_atomic(args.out, _csv_text(header, rows))
    json_path = _solution_json_path(args.out)
    _write_atomic(json_path, json.dumps(solution.to_dict(), indent=2) + "\n")
    params = {"samples": args.samples, "solution_json": json_path}
    _write_manifest(args.out, "solve", args.config, params)
    _write_manifest(json_path, "solve", args.config, params)
    return 0


def cmd_oracle(args) -> int:
    problem = load_problem(args.config)
    solution = solve(problem)
    grid = make_grid(problem, args.grid_gap, extra=solution.cutoffs)
    result = value_iteration(problem, args.delta, grid, tol=args.tol)
    pts = grid.points
    u = problem.payoff.value(pts)
    cav = problem.payoff.envelope(pts)
    v_solver = solution.value.value(pts)
    rows = [
        (float(pts[i]), float(result.values[i]), float(u[i]), float(cav[i]),
         float(v_solver[i]), float(abs(result.values[i] - v_solver[i])))
        for i in range(pts.size)
    ]
    header = ["belief", "value", "u", "cav_u", "solver_value", "abs_error"]
    _write_atomic(args.out, _csv_text(header, rows))
    _write_manifest(args.out, "oracle", args.config, {
        "delta": args.delta,
        "grid_gap": args.grid_gap,
        "tol": args.tol,
        "iterations": result.iterations,
        "grid_points": len(grid),
    })
    return 0


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
        except json.JSONDecodeError as exc:
            raise ProblemValidationError([f"policy file {name}: invalid JSON: {exc}"]) from exc
    # A solution file carries the same top-level regions and cutoffs.
    try:
        return MarkovPolicy.from_dict(data), name
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        raise ProblemValidationError([f"policy file {name}: malformed policy: {exc!r}"]) from exc


def cmd_simulate(args) -> int:
    problem = load_problem(args.config)
    policy, policy_name = _resolve_policy(args, problem)
    delta = args.delta if args.delta is not None else default_period(problem)
    horizon = args.horizon
    if horizon is None:
        # land the truncation bound at half the simulator's default ceiling
        horizon = sized_horizon(problem, delta, DEFAULT_MAX_TAIL / 2)
    belief = args.belief if args.belief is not None else problem.stationary_belief
    config = SimConfig(delta=delta, horizon=horizon, n_paths=args.paths,
                       seed=args.seed, initial_belief=belief)
    result = simulate(problem, policy, config)
    payload = {
        "policy": policy_name,
        "mean_discounted_payoff": result.mean_discounted_payoff,
        "std_error": result.std_error,
        "tail_bound": result.tail_bound,
        "config": {
            "delta": config.delta,
            "horizon": config.horizon,
            "n_paths": config.n_paths,
            "seed": config.seed,
            "initial_belief": config.initial_belief,
        },
        "calibration": [
            {"lo": b.lo, "hi": b.hi, "center": b.center, "count": b.count,
             "state_one": b.state_one, "frequency": b.frequency,
             "predicted": b.predicted}
            for b in result.calibration if b.count
        ],
    }
    _write_atomic(args.out, json.dumps(payload, indent=2) + "\n")
    _write_manifest(args.out, "simulate", args.config, payload["config"] | {"policy": policy_name})
    return 0


def cmd_sweep(args) -> int:
    problem = load_problem(args.config)
    solution = solve(problem)
    deltas = args.deltas
    grid = make_grid(problem, args.grid_gap, extra=solution.cutoffs)
    v_solver = solution.value.value(grid.points)
    rows = []
    for delta in deltas:
        vi = value_iteration(problem, delta, grid, tol=args.tol)
        pol = evaluate_policy_discrete(problem, solution.policy, delta, grid)
        rows.append((
            float(delta),
            float(np.max(np.abs(vi.values - v_solver))),
            float(np.max(np.abs(pol.values - v_solver))),
        ))
    header = ["delta", "value_iteration_sup_error", "policy_sup_error"]
    _write_atomic(args.out, _csv_text(header, rows))
    _write_manifest(args.out, "sweep", args.config, {
        "deltas": list(map(float, deltas)),
        "grid_gap": args.grid_gap,
        "tol": args.tol,
    })
    return 0


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

    p = sub.add_parser("validate", help="check a problem config and print derived constants")
    p.add_argument("--config", required=True, help="problem JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="closed-form value and policy; CSV table plus solution JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV output path (solution JSON lands beside it)")
    p.add_argument("--samples", type=int, default=1001, help="uniform sample count for the CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="discrete-time value iteration compared against the solver")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=1e-3, help="period length")
    p.add_argument("--grid-gap", type=float, default=1e-3, help="belief grid spacing")
    p.add_argument("--tol", type=float, default=1e-6, help="fixed-point tolerance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="Monte-Carlo run of a policy")
    p.add_argument("--config", required=True)
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

    p = sub.add_parser("sweep", help="oracle and policy errors across period lengths")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--deltas", type=_delta_list, default=[0.1, 0.03, 0.01, 0.003],
                   help="comma-separated period lengths")
    p.add_argument("--grid-gap", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemValidationError,) as exc:
        for line in exc.problems:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 5
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 6
    except PersuadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
