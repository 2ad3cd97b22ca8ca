"""Command-line interface: outputs, manifests, exit codes."""

from __future__ import annotations

import csv
import json
import warnings

import pytest

from persuade.cli import main

from conftest import CANON_RAW, FLAT_RAW, SINGLE_DISC_RAW, canon_variant


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
    assert payload["std_error"] > 0.0
    assert all(b["count"] > 0 for b in payload["calibration"])


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
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(tmp_path / "sol.json"), "--delta", "0.02",
                 "--horizon", "200", "--paths", "500"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["policy"].endswith("sol.json")


def test_simulate_bad_policy_json(tmp_path, canon_config, capsys):
    bad = tmp_path / "policy.json"
    bad.write_text("[not json")
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", canon_config, "--out", str(out),
                 "--policy", str(bad), "--paths", "10"])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("policy", [
    {"foo": 1},
    [1, 2],
    {"regions": [{"lo": 0, "hi": 1, "action": "split", "targets": [0]}]},
    {"regions": [{"lo": 0, "hi": 0.5}]},
    {"regions": [{"lo": 0, "hi": 1, "action": "jump"}]},
    {"regions": [{"lo": "a", "hi": 1}]},
    {"regions": [{"lo": 0, "hi": 0.7}, {"lo": 0.7, "hi": 0.3}, {"lo": 0.3, "hi": 1}]},
], ids=["no_regions", "list", "one_target", "gap", "unknown_action", "string_lo", "backwards"])
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


def test_sweep_rejects_empty_delta_list(tmp_path, canon_config):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", canon_config, "--out", str(tmp_path / "s.csv"),
              "--deltas", ","])
