"""Command-line interface: outputs, manifests, exit codes."""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from persuade import cli, oracle
from persuade.cli import main
from persuade.errors import (OracleError, OutOfRange, PersuadeError, ProblemValidationError,
                             SimulationError, SolverError)

from conftest import CANON_RAW, FLAT_RAW, MU_OUT_OF_RANGE, SINGLE_DISC_RAW, canon_variant


@pytest.fixture()
def canon_config(tmp_path):
    path = tmp_path / "canon.json"
    path.write_text(json.dumps(CANON_RAW))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# --- validate -----------------------------------------------------------------

def test_validate_prints_derived_constants(canon_config, capsys):
    assert main(["validate", "--config", canon_config]) == 0
    out = capsys.readouterr().out
    assert "p_star=0.5" in out
    assert "mu=0.5" in out
    assert "m=2" in out
    assert "m_prime=3" in out
    assert "pinned=False" in out


def test_validate_rejects_bad_envelope(tmp_path, capsys):
    raw = dict(CANON_RAW)
    raw["levels"] = [0.0, 0.2, 0.3, 0.4, 1.0]     # (0.4, 0.3) sags below its chord
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "chord" in err


def test_validate_rejects_garbage_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{oops")
    assert main(["validate", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("document, line", [
    ([1, 2], "problem document must be a JSON object, got list"),
    (dict(CANON_RAW, cuts="abc"), "field 'cuts' must be a list of finite numbers"),
    (dict(CANON_RAW, lambda0=10 ** 400), f"field 'lambda0' must be a finite number, got {10 ** 400}"),
    (dict(CANON_RAW, cuts=[0, 0.2, 10 ** 400, 0.6, 0.8, 1]), "field 'cuts' must be a list of finite numbers"),
    (dict(CANON_RAW, levels=[0, 0.5, 0.8, 0.95, 10 ** 400]), "field 'levels' must be a list of finite numbers"),
], ids=["array", "string-cuts", "huge-lambda0", "huge-cut", "huge-level"])
def test_validate_rejects_malformed_document(tmp_path, capsys, document, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


def run_console(*argv):
    """`python -m persuade.cli`, which runs cli.run, the `persuade` console script."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "persuade.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_console_entry_point_exit_codes(tmp_path, canon_config):
    done = run_console("validate", "--config", canon_config)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["p_star=0.5", "mu=0.5", "m=2", "m_prime=3", "pinned=False"]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(CANON_RAW, lambda0=10 ** 400)))
    done = run_console("validate", "--config", str(huge))
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:")


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3
    assert "file error" in capsys.readouterr().err


# --- solve --------------------------------------------------------------------

def test_solve_writes_table_solution_and_manifests(tmp_path, canon_config):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--config", canon_config, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["belief", "u", "cav_u", "v", "v_prime", "region", "is_cutoff"]

    by_belief = {row[0]: row for row in rows}
    assert abs(float(by_belief["0.5"][3]) - 0.875) <= 1e-12
    assert by_belief["0.5"][5] == "split:0.4:0.6"
    assert by_belief["0.9"][5] == "slide"
    cutoff_rows = [row for row in rows if row[6] == "1"]
    assert len(cutoff_rows) == 1
    assert abs(float(cutoff_rows[0][0]) - 0.6622368591229324) <= 1e-9

    sol_path = tmp_path / "sol.json"
    data = json.loads(sol_path.read_text())
    assert "segments" in data and "regions" in data

    manifest = json.loads((tmp_path / "sol.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert len(manifest["config_sha256"]) == 64
    assert "version" in manifest
    assert (tmp_path / "sol.json.manifest.json").exists()


def test_solve_outputs_byte_identical_across_reruns(tmp_path, canon_config):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--config", canon_config, "--out", str(out)]) == 0
    first_csv = out.read_bytes()
    first_json = (tmp_path / "sol.json").read_bytes()
    assert main(["solve", "--config", canon_config, "--out", str(out)]) == 0
    assert out.read_bytes() == first_csv
    assert (tmp_path / "sol.json").read_bytes() == first_json


def test_solve_json_beside_non_csv_table(tmp_path, canon_config):
    out = tmp_path / "table.txt"
    assert main(["solve", "--config", canon_config, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "table.txt.json").read_text())["cutoffs"]
    assert (tmp_path / "table.txt.json.manifest.json").exists()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_named_in_one_line(tmp_path, canon_config, capsys, target):
    # The failed write names the requested path, never the temp file beside it.
    if target == "directory":
        out, code = tmp_path / "out", errno.EISDIR
        out.mkdir()
    else:
        out, code = tmp_path / "missing" / "sol.csv", errno.ENOENT
    expected = [f"file error: [Errno {code}] {os.strerror(code)}: {str(out)!r}"]
    for _ in range(2):
        assert main(["solve", "--config", canon_config, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == expected
    assert not list(tmp_path.rglob(".persuade-tmp-*"))


@pytest.mark.parametrize("unlink_fails", [False, True], ids=["unlink-works", "unlink-fails"])
def test_write_atomic_propagates_non_os_error(tmp_path, monkeypatch, unlink_fails):
    # A failure that is not an OSError propagates as it is; a failed cleanup
    # of the temp file does not replace it.
    def fail_replace(src, dst):
        raise RuntimeError("replace interrupted")

    asked = []

    def fail_unlink(path):
        asked.append(path)
        raise PermissionError(errno.EACCES, "unlink refused", path)

    monkeypatch.setattr(cli.os, "replace", fail_replace)
    if unlink_fails:
        monkeypatch.setattr(cli.os, "unlink", fail_unlink)
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="replace interrupted"):
        cli._write_atomic(str(target), "a,b\n")
    assert not target.exists()
    left = sorted(str(path) for path in tmp_path.glob(".persuade-tmp-*"))
    # Only a refused unlink leaves the temp file, and it was the one asked for.
    assert left == asked


def test_solve_flat_all_constant(tmp_path):
    config = tmp_path / "flat.json"
    config.write_text(json.dumps(FLAT_RAW))
    out = tmp_path / "flat.csv"
    assert main(["solve", "--config", str(config), "--out", str(out), "--samples", "11"]) == 0
    _, rows = read_csv(out)
    assert all(float(row[3]) == 0.6 for row in rows)
    assert all(row[6] == "0" for row in rows)


def test_solve_single_discontinuity_no_cutoff_flags(tmp_path):
    config = tmp_path / "single.json"
    config.write_text(json.dumps(SINGLE_DISC_RAW))
    out = tmp_path / "single.csv"
    assert main(["solve", "--config", str(config), "--out", str(out), "--samples", "101"]) == 0
    _, rows = read_csv(out)
    assert all(row[6] == "0" for row in rows)


# --- oracle -------------------------------------------------------------------

def test_oracle_reports_small_errors(tmp_path, canon_config):
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--config", canon_config, "--out", str(out),
                 "--delta", "0.05", "--grid-gap", "0.005", "--tol", "1e-6"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["belief", "value", "u", "cav_u", "solver_value", "abs_error"]
    errors = [float(row[5]) for row in rows]
    assert max(errors) <= 0.06          # coarse delta, O(delta) gap expected
    manifest = json.loads((tmp_path / "oracle.csv.manifest.json").read_text())
    assert manifest["parameters"]["delta"] == 0.05
    assert manifest["parameters"]["iterations"] >= 1
    assert 0.0 <= manifest["parameters"]["residual"]
    assert 0.0 <= manifest["parameters"]["certified_bound"] <= 1e-6


# --- simulate -----------------------------------------------------------------

def test_simulate_payload_fields(tmp_path, canon_config):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", "slide_only", "--delta", "0.02", "--horizon", "200",
                 "--paths", "500", "--belief", "0.3", "--seed", "5"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["policy"] == "slide_only"
    assert payload["config"] == {"delta": 0.02, "horizon": 200, "n_paths": 500,
                                 "seed": 5, "initial_belief": 0.3}
    assert 0.0 < payload["mean_discounted_payoff"] < 1.0
    # Silence gives every path the same payoff, so the spread is rounding at most.
    assert payload["std_error"] <= 1e-12
    assert all(b["count"] > 0 for b in payload["calibration"])
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", "sigma_star", "--delta", "0.02", "--horizon", "200",
                 "--paths", "500", "--belief", "0.3", "--seed", "5"])
    assert code == 0
    assert json.loads(out.read_text())["std_error"] > 0.0


def test_simulate_defaults_to_stationary_belief(tmp_path, canon_config):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", "myopic", "--delta", "0.02", "--horizon", "200",
                 "--paths", "200"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["initial_belief"] == 0.5


def test_simulate_short_horizon_exit_code(tmp_path, canon_config, capsys):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", "slide_only", "--delta", "0.01", "--horizon", "5",
                 "--paths", "10"])
    assert code == 6
    assert "simulation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw,horizon", [(CANON_RAW, 1107), (FLAT_RAW, 100)])
def test_simulate_default_horizon(tmp_path, raw, horizon):
    # Canon: the truncation bound 1.0 x^horizon first drops to 0.025 at 1107
    # periods of the default length 0.01/3.  A flat payoff has no truncation
    # error and keeps 100 periods.
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", str(config), "--out", str(out),
                 "--policy", "slide_only", "--paths", "10"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["horizon"] == horizon


def test_simulate_missing_policy_file(tmp_path, canon_config):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(tmp_path / "missing.json"), "--paths", "10"])
    assert code == 3


def test_simulate_policy_from_solution_file(tmp_path, canon_config):
    sol_csv = tmp_path / "sol.csv"
    assert main(["solve", "--config", canon_config, "--out", str(sol_csv)]) == 0
    out = tmp_path / "sim.json"
    payloads = []
    for policy in (str(tmp_path / "sol.json"), "sigma_star"):
        assert main(["simulate", "--config", canon_config, "--out", str(out),
                     "--policy", policy, "--delta", "0.02",
                     "--horizon", "200", "--paths", "500"]) == 0
        payloads.append(json.loads(out.read_text()))
    from_file, named = payloads
    assert from_file.pop("policy").endswith("sol.json")
    assert named.pop("policy") == "sigma_star"
    # The solution file's regions are the optimal policy itself.
    assert from_file == named


def test_simulate_bad_policy_json(tmp_path, canon_config, capsys):
    bad = tmp_path / "policy.json"
    bad.write_text("[not json")
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(bad), "--paths", "10"])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_int_past_the_digit_limit_exits_2(tmp_path, canon_config, capsys):
    digits = "1" + "0" * 5000      # more digits than int() converts by default
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CANON_RAW).replace('"lambda0": 1.0', f'"lambda0": {digits}'))
    policy = tmp_path / "policy.json"
    policy.write_text(f'{{"regions": [{{"lo": 0, "hi": {digits}, "action": "slide"}}]}}')
    assert main(["validate", "--config", str(config)]) == 2
    assert main(["simulate", "--config", canon_config, "--out", str(tmp_path / "sim.json"),
                 "--policy", str(policy), "--paths", "10"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("raw", MU_OUT_OF_RANGE.values(), ids=MU_OUT_OF_RANGE.keys())
def test_mu_outside_zero_inf_exits_2(tmp_path, raw, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(config)]) == 2
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "sol.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") and "mu = r / (lambda0 + lambda1)" in line
                                 for line in err)
    assert not (tmp_path / "sol.csv").exists()


@pytest.mark.parametrize("policy", [
    {"foo": 1},
    [1, 2],
    {"regions": [{"lo": 0, "hi": 1, "action": "split", "targets": [0]}]},
    {"regions": [{"lo": 0, "hi": 0.5}]},
    {"regions": [{"lo": 0, "hi": 1, "action": "jump"}]},
    {"regions": [{"lo": "a", "hi": 1}]},
    {"regions": [{"lo": 0, "hi": 0.7}, {"lo": 0.7, "hi": 0.3}, {"lo": 0.3, "hi": 1}]},
    {"regions": [{"lo": 0, "hi": 1, "action": "split", "targets": [0, 10 ** 400]}]},
], ids=["no_regions", "list", "one_target", "gap", "unknown_action", "string_lo", "backwards",
        "huge_target"])
def test_simulate_malformed_policy_file(tmp_path, canon_config, capsys, policy):
    bad = tmp_path / "policy.json"
    bad.write_text(json.dumps(policy))
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(bad), "--paths", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("regions, line", [
    ([], "policy has no regions"),
    ([{"lo": 0.1, "hi": 1, "action": "slide"}], "first region starts at 0.1, not 0"),
], ids=["empty", "starts-above-0"])
def test_simulate_policy_file_must_cover_unit_interval(tmp_path, canon_config, capsys,
                                                       regions, line):
    bad = tmp_path / "policy.json"
    bad.write_text(json.dumps({"regions": regions}))
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(bad), "--paths", "10"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not out.exists()


# --- exit codes of the solver and oracle families ------------------------------

def test_solver_failure_exit_code(tmp_path, capsys):
    # p* = 0.4 - 2e-12 on the canon cuts: the line pasted on [0.4, 0.6] misses
    # the next arc's start by more than the continuity tolerance.
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(canon_variant(0.4 - 2e-12)))
    code = main(["solve", "--config", str(config), "--out", str(tmp_path / "sol.csv")])
    assert code == 4
    assert "solver error: value discontinuity" in capsys.readouterr().err


def test_solver_overflow_reports_one_line(tmp_path, capsys):
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(canon_variant(0.4 - 2e-12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # a numpy RuntimeWarning fails the test
        code = main(["solve", "--config", str(config), "--out", str(tmp_path / "sol.csv")])
    assert code == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solver error: value discontinuity")


def test_oracle_failure_exit_code(tmp_path, canon_config, capsys):
    code = main(["oracle", "--config", canon_config, "--out", str(tmp_path / "o.csv"),
                 "--grid-gap", "0.5"])
    assert code == 5
    assert capsys.readouterr().err.startswith(
        "oracle error: payoff interval [0.0, 0.2) has only 2 grid points")


def test_oracle_names_the_top_interval_closed(tmp_path, capsys):
    # The top interval's count includes the point at 1, so it reads [0.9, 1.0].
    config = tmp_path / "top.json"
    config.write_text(json.dumps(dict(CANON_RAW, cuts=[0.0, 0.5, 0.9, 1.0],
                                      levels=[0.0, 0.6, 1.0])))
    code = main(["oracle", "--config", str(config), "--out", str(tmp_path / "o.csv"),
                 "--grid-gap", "0.25"])
    assert code == 5
    assert capsys.readouterr().err.startswith(
        "oracle error: payoff interval [0.9, 1.0] has only 2 grid points")


def test_oracle_step_limit_exits_5(tmp_path, canon_config, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ITER", 3)
    out = tmp_path / "o.csv"
    code = main(["oracle", "--config", canon_config, "--out", str(out),
                 "--grid-gap", "0.01", "--delta", "0.05"])
    assert code == 5
    assert capsys.readouterr().err.splitlines() == [
        "oracle error: value iteration did not reach a change spread of 4.877e-08 in 3 steps "
        "(last spread 3.064e-02, last change 4.413e-02)"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "sweep"])
def test_negative_tolerance_is_rejected(tmp_path, canon_config, capsys, command):
    out = tmp_path / "out.csv"
    code = main([command, "--config", canon_config, "--out", str(out), "--tol", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "error: tolerance must be finite and non-negative, got -1.0"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["oracle", "--delta", "nan", "--grid-gap", "0.01"], "period length must be positive, got nan"),
    (["sweep", "--deltas", "nan", "--grid-gap", "0.01"], "period length must be positive, got nan"),
    (["simulate", "--delta", "nan"], "period length must be positive, got nan"),
    (["simulate", "--delta", "nan", "--horizon", "10"], "period length must be positive, got nan"),
    (["simulate", "--delta", "0"], "period length must be positive, got 0.0"),
    (["oracle", "--grid-gap", "nan"], "grid gap must be positive, got nan"),
], ids=["oracle-delta", "sweep-deltas", "simulate-delta", "simulate-delta-horizon",
        "simulate-delta-zero", "oracle-grid-gap"])
def test_bad_period_and_grid_gap_rejected(tmp_path, canon_config, capsys, args, message):
    out = tmp_path / "out"
    code = main(args[:1] + ["--config", canon_config, "--out", str(out)] + args[1:])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["oracle", "--grid-gap", "1e-300"], "grid gap 1e-300 would need more than 10000000 points"),
    (["oracle", "--grid-gap", "1e-9"], "grid gap 1e-09 would need more than 10000000 points"),
    (["simulate", "--delta", "1e-300"],
     "period length 1e-300 needs a horizon of more than 10000000 periods"),
    (["simulate", "--delta", "1e-12", "--paths", "10"],
     "period length 1e-12 needs a horizon of more than 10000000 periods"),
    (["simulate", "--horizon", "100000000"],
     "horizon must be 1 to 10000000 periods, got 100000000"),
    (["solve", "--samples", "-1"], "sample count must be non-negative, got -1"),
    (["solve", "--samples", "1000000000000000000"],
     "sample count must be at most 10000000, got 1000000000000000000"),
    (["simulate", "--paths", "10000001"], "need 1 to 10000000 paths, got 10000001"),
    (["simulate", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["oracle", "--delta", "1e-300", "--grid-gap", "0.01"],
     "period length 1e-300 is too short: the discount factor exp(-r delta) rounds to 1"),
    (["sweep", "--deltas", "1e-300", "--grid-gap", "0.01"],
     "period length 1e-300 is too short: the discount factor exp(-r delta) rounds to 1"),
    (["simulate", "--delta", "1e-300", "--horizon", "5", "--paths", "10"],
     "period length 1e-300 is too short: the discount factor exp(-r delta) rounds to 1"),
], ids=["grid-gap-1e-300", "grid-gap-1e-9", "delta-1e-300", "delta-1e-12", "horizon-1e8",
        "samples-negative", "samples-1e18", "paths-above-1e7", "seed-negative",
        "oracle-delta-1e-300", "sweep-deltas-1e-300", "simulate-delta-1e-300-horizon"])
def test_oversized_input_rejected_at_once(tmp_path, canon_config, capsys, args, message):
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(args[:1] + ["--config", canon_config, "--out", str(out)] + args[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_short_explicit_horizon_names_needed_horizon_briefly(tmp_path, canon_config, capsys):
    # The horizon for --delta 1e-12 is far above the ceiling; the message
    # still names it, in three significant digits.
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--delta", "1e-12", "--horizon", "100", "--paths", "10"])
    assert code == 6
    assert capsys.readouterr().err.splitlines() == [
        "simulation error: truncation bound 1 exceeds 0.05; need a horizon of about "
        "3e+12 periods"]
    assert not out.exists()


@pytest.mark.parametrize("error, lines, code", [
    (ProblemValidationError(["first problem", "second problem"]),
     ["error: first problem", "error: second problem"], 2),
    (OutOfRange("belief outside [0, 1]: 1.5"), ["error: belief outside [0, 1]: 1.5"], 2),
    (PersuadeError("plain"), ["error: plain"], 2),
    (SolverError("no cutoff"), ["solver error: no cutoff"], 4),
    (OracleError("grid too coarse"), ["oracle error: grid too coarse"], 5),
    (SimulationError("horizon too short"), ["simulation error: horizon too short"], 6),
    (OSError(2, "No such file or directory"),
     ["file error: [Errno 2] No such file or directory"], 3),
], ids=["validation", "out-of-range", "persuade", "solver", "oracle", "simulation", "os"])
def test_exit_table(canon_config, capsys, monkeypatch, error, lines, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "--config", canon_config]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == lines
    assert captured.out == ""


# --- sweep --------------------------------------------------------------------

def test_sweep_single_delta(tmp_path, canon_config):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", canon_config, "--out", str(out),
                 "--deltas", "0.05", "--grid-gap", "0.01", "--tol", "1e-6"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["delta", "value_iteration_sup_error", "policy_sup_error"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.05
    assert 0.0 < float(rows[0][1]) < 0.1
    assert 0.0 < float(rows[0][2]) < 0.1


def test_sweep_errors_shrink_with_delta(tmp_path, canon_config):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", canon_config, "--out", str(out),
                 "--deltas", "0.1,0.02", "--grid-gap", "0.005"])
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[1][1]) < float(rows[0][1])
    assert float(rows[1][2]) < float(rows[0][2])


def test_sweep_manifest_records_each_run(tmp_path, canon_config):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", canon_config, "--out", str(out),
                 "--deltas", "0.1,0.02", "--grid-gap", "0.005", "--tol", "1e-6"])
    assert code == 0
    runs = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["parameters"]["runs"]
    assert [run["delta"] for run in runs] == [0.1, 0.02]
    for run in runs:
        assert sorted(run) == ["certified_bound", "convergence_order", "delta", "iterations",
                               "policy_residual"]
        assert run["iterations"] >= 1
        assert 0.0 <= run["certified_bound"] <= 1e-6 * math.exp(-run["delta"])
        assert 0.0 <= run["policy_residual"] <= 1e-8
    # A shorter period discounts less per step, so value iteration needs more steps.
    assert runs[1]["iterations"] > runs[0]["iterations"]
    # The order of the error from each period length to the next; the error is O(delta).
    _, rows = read_csv(out)
    errors = [float(row[1]) for row in rows]
    assert runs[0]["convergence_order"] is None
    assert runs[1]["convergence_order"] == math.log(errors[1] / errors[0]) / math.log(0.02 / 0.1)
    assert 0.8 <= runs[1]["convergence_order"] <= 1.2


@pytest.mark.parametrize("raw, deltas", [(CANON_RAW, "0.05,0.05"), (FLAT_RAW, "0.1,0.05")],
                         ids=["repeated-delta", "flat-zero-error"])
def test_sweep_convergence_order_is_null_where_undefined(tmp_path, raw, deltas):
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--deltas", deltas, "--grid-gap", "0.01"]) == 0
    runs = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["parameters"]["runs"]
    assert [run["convergence_order"] for run in runs] == [None, None]


def test_sweep_rejects_empty_delta_list(tmp_path, canon_config):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", canon_config, "--out", str(tmp_path / "s.csv"),
              "--deltas", ","])


def test_sweep_rejects_unparsable_delta_list(tmp_path, canon_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", canon_config, "--out", str(tmp_path / "s.csv"),
              "--deltas", "0.1,x"])
    assert exc.value.code == 2
    assert "bad delta list '0.1,x'" in capsys.readouterr().err


# --- outputs and options of every subcommand -----------------------------------

@pytest.mark.parametrize("command, extra, written", [
    ("solve", [], ["out.csv", "out.json"]),
    ("oracle", ["--delta", "0.05", "--grid-gap", "0.01"], ["out.csv"]),
    ("simulate", ["--paths", "100"], ["out.csv"]),
    ("sweep", ["--deltas", "0.1", "--grid-gap", "0.01"], ["out.csv"]),
])
def test_every_output_gets_a_manifest(tmp_path, canon_config, command, extra, written):
    assert main([command, "--config", canon_config, "--out", str(tmp_path / "out.csv"),
                 *extra]) == 0
    manifests = [name + ".manifest.json" for name in written]
    assert sorted(p.name for p in tmp_path.glob("out*")) == sorted(written + manifests)
    for name in manifests:
        assert json.loads((tmp_path / name).read_text())["command"] == command


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON has no literal for."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, out, extra", [
    ("solve", "sol.csv", []),
    ("oracle", "o.csv", ["--delta", "0.05", "--grid-gap", "0.01"]),
    ("simulate", "sim.json", ["--paths", "100"]),
    ("simulate", "sim.json", ["--paths", "1"]),
    ("sweep", "s.csv", ["--deltas", "0.1", "--grid-gap", "0.01"]),
], ids=["solve", "oracle", "simulate", "simulate-one-path", "sweep"])
def test_every_json_file_written_is_standard_json(tmp_path, canon_config, command, out, extra):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([command, "--config", canon_config, "--out", str(out_dir / out), *extra]) == 0
    written = {path.name: _strict_json(path.read_text()) for path in out_dir.glob("*.json")}
    assert out + ".manifest.json" in written
    if extra == ["--paths", "1"]:
        # One path has no spread to estimate, so the standard error is null.
        assert written[out]["std_error"] is None


def test_failed_write_leaves_no_manifest(tmp_path, canon_config, capsys):
    # The table is written, the solution JSON is not, and no output gets a manifest.
    (tmp_path / "sol.json").mkdir()
    assert main(["solve", "--config", canon_config, "--out", str(tmp_path / "sol.csv")]) == 3
    assert capsys.readouterr().err.startswith("file error: ")
    assert (tmp_path / "sol.csv").exists()
    assert not list(tmp_path.glob("*.manifest.json"))


def test_cli_options_and_defaults():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    table = {
        name: {action.dest: "required" if action.required else action.default
               for action in parser._actions if action.option_strings and action.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert table == {
        "validate": {"config": "required"},
        "solve": {"config": "required", "out": "required", "samples": 1001},
        "oracle": {"config": "required", "out": "required", "delta": 1e-3, "grid_gap": 1e-3,
                   "tol": 1e-6},
        "simulate": {"config": "required", "out": "required", "policy": "sigma_star",
                     "delta": None, "paths": 10_000, "horizon": None, "seed": 0,
                     "belief": None},
        "sweep": {"config": "required", "out": "required",
                  "deltas": [0.1, 0.03, 0.01, 0.003], "grid_gap": 1e-3, "tol": 1e-6},
    }
