"""Validation, parsing, and payoff geometry."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from persuade.errors import OutOfRange, ProblemValidationError
from persuade.model import (
    Discounting,
    MarkovRates,
    StepPayoff,
    load_problem,
    parse_problem,
    problem_to_dict,
    validate_problem,
)

from persuade.oracle import OracleResult, make_grid

from conftest import CANON_RAW, ONE_ABOVE_RAW, PINNED_RAW, random_instance


# --- rates and discounting ----------------------------------------------------

def test_stationary_belief_and_switch_rate():
    rates = MarkovRates(lambda0=2.0, lambda1=3.0)
    assert rates.switch_rate == 5.0
    assert rates.stationary_belief == pytest.approx(0.4, abs=1e-15)


def test_discount_ratio():
    prob = parse_problem(CANON_RAW)
    assert prob.discount_ratio == 0.5
    assert prob.stationary_belief == 0.5


@pytest.mark.parametrize("lambda0,lambda1", [(0.0, 2.0), (2.0, 0.0), (-1.0, 1.0),
                                             (1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0)])
def test_bad_switch_rates(lambda0, lambda1):
    # Both rates strictly positive: p* must be interior for the closed forms.
    with pytest.raises(ProblemValidationError, match="rate lambda[01] must be a finite positive number"):
        MarkovRates(lambda0=lambda0, lambda1=lambda1)


@pytest.mark.parametrize("r", [0.0, -0.5, math.nan, math.inf])
def test_bad_discount_rate(r):
    with pytest.raises(ProblemValidationError, match="discount rate r must be a finite positive number"):
        Discounting(r=r)


# --- payoff support validation ------------------------------------------------

def test_support_must_span_unit_interval():
    with pytest.raises(ProblemValidationError, match="first cut must be 0"):
        StepPayoff(cuts=(0.1, 1.0), levels=(0.5,))
    with pytest.raises(ProblemValidationError, match="last cut must be 1"):
        StepPayoff(cuts=(0.0, 0.9), levels=(0.5,))


def test_support_rejects_unsorted_and_duplicate_cuts():
    with pytest.raises(ProblemValidationError, match="cuts 0.6 and 0.4 are not increasing"):
        StepPayoff(cuts=(0.0, 0.6, 0.4, 1.0), levels=(0.0, 0.5, 1.0))
    with pytest.raises(ProblemValidationError, match="cuts 0.5 and 0.5 are not increasing"):
        StepPayoff(cuts=(0.0, 0.5, 0.5, 1.0), levels=(0.0, 0.5, 1.0))


def test_support_level_count_mismatch():
    with pytest.raises(ProblemValidationError, match="expected 2 levels for 3 cuts, got 3"):
        StepPayoff(cuts=(0.0, 0.5, 1.0), levels=(0.0, 0.5, 1.0))


def test_levels_must_strictly_increase():
    with pytest.raises(ProblemValidationError, match="levels must strictly increase"):
        StepPayoff(cuts=(0.0, 0.5, 1.0), levels=(0.5, 0.5))
    with pytest.raises(ProblemValidationError, match="levels must strictly increase"):
        StepPayoff(cuts=(0.0, 0.5, 1.0), levels=(0.7, 0.2))


def test_envelope_violation_names_the_triple():
    # (0.5, 0.2) sits below the chord from (0, 0) to (0.8, 1).
    with pytest.raises(ProblemValidationError, match="is not strictly above the chord") as exc:
        StepPayoff(cuts=(0.0, 0.5, 0.8, 1.0), levels=(0.0, 0.2, 1.0))
    msg = str(exc.value)
    assert "(0.5, 0.2)" in msg and "(0.0, 0.0)" in msg and "(0.8, 1.0)" in msg


def test_envelope_rejects_collinear_points():
    with pytest.raises(ProblemValidationError, match="is not strictly above the chord"):
        StepPayoff(cuts=(0.0, 0.5, 0.8, 1.0), levels=(0.0, 0.5, 0.8))


# --- payoff evaluation --------------------------------------------------------

def test_step_value_right_closed_at_cuts():
    pay = StepPayoff(cuts=tuple(CANON_RAW["cuts"]), levels=tuple(CANON_RAW["levels"]))
    assert pay.value(0.0) == 0.0
    assert pay.value(0.2) == 0.5          # cut belongs to the step it opens
    assert pay.value(0.2 - 1e-12) == 0.0
    assert pay.value(1.0) == 1.0
    assert pay.left_value(0.2) == 0.0
    assert pay.left_value(0.2 + 1e-12) == 0.5
    assert pay.left_value(1.0) == 1.0


def test_step_value_vectorized_matches_scalar():
    pay = StepPayoff(cuts=tuple(CANON_RAW["cuts"]), levels=tuple(CANON_RAW["levels"]))
    ps = np.linspace(0.0, 1.0, 513)
    vec = pay.value(ps)
    np.testing.assert_array_equal(vec, [pay.value(float(p)) for p in ps])


def test_step_value_rejects_out_of_range():
    pay = StepPayoff(cuts=(0.0, 1.0), levels=(0.5,))
    with pytest.raises(OutOfRange):
        pay.value(-0.01)
    with pytest.raises(OutOfRange):
        pay.value(1.01)


def _oracle_result(problem):
    grid = make_grid(problem, 0.05)
    return OracleResult(grid, np.zeros(len(grid)), 0.01, 1, 0.0)


# Every belief lookup, as a function of the canon problem and its solution.
LOOKUPS = {
    "payoff.value": lambda prob, sol: prob.payoff.value,
    "payoff.left_value": lambda prob, sol: prob.payoff.left_value,
    "payoff.envelope": lambda prob, sol: prob.payoff.envelope,
    "value.value": lambda prob, sol: sol.value.value,
    "value.derivative": lambda prob, sol: sol.value.derivative,
    "policy.region_index": lambda prob, sol: sol.policy.region_index,
    "policy.region_at": lambda prob, sol: sol.policy.region_at,
    "oracle.value": lambda prob, sol: _oracle_result(prob).value,
}


@pytest.mark.parametrize("belief", [math.nan, [0.5, math.nan], -0.01, [0.5, 1.01]],
                         ids=["nan", "array-nan", "below", "array-above"])
@pytest.mark.parametrize("lookup", list(LOOKUPS))
def test_lookups_reject_beliefs_outside_unit_interval(lookup, belief, canon_problem,
                                                      canon_solution):
    # NaN compares false with everything, so it must fail the range check
    # rather than land in the first or the last piece.
    fn = LOOKUPS[lookup](canon_problem, canon_solution)
    with pytest.raises(OutOfRange):
        fn(belief)


def test_envelope_dominates_and_touches_at_cuts():
    pay = StepPayoff(cuts=tuple(CANON_RAW["cuts"]), levels=tuple(CANON_RAW["levels"]))
    ps = np.linspace(0.0, 1.0, 2001)
    gap = pay.envelope(ps) - pay.value(ps)
    assert np.all(gap >= -1e-12)
    for c in CANON_RAW["cuts"][:-1]:
        assert pay.envelope(c) == pytest.approx(pay.value(c), abs=1e-12)
    assert pay.envelope(1.0) == pay.value(1.0)


def test_envelope_is_concave():
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = random_instance(rng)
        ps = np.linspace(0.0, 1.0, 801)
        vals = prob.payoff.envelope(ps)
        second = np.diff(vals, 2)
        assert np.max(second) <= 1e-10


# --- pivot interval -----------------------------------------------------------

def test_pivot_and_counts_canon():
    prob = parse_problem(CANON_RAW)
    assert prob.pivot == 2                      # p* = 0.5 in [0.4, 0.6)
    assert not prob.pinned
    assert prob.payoff.n_steps == 5
    assert prob.intervals_above == 3


def test_pivot_pinned_instance():
    prob = parse_problem(PINNED_RAW)
    assert prob.pinned
    assert prob.pivot == 1                      # pinned to the cut at 0.5
    assert prob.intervals_above == 2


def test_pivot_one_above_instance():
    prob = parse_problem(ONE_ABOVE_RAW)
    assert prob.stationary_belief == 0.75
    assert prob.pivot == 1
    assert prob.intervals_above == 1
    assert not prob.pinned


# --- parsing and serialization ------------------------------------------------

def test_parse_round_trip():
    prob = parse_problem(CANON_RAW)
    again = parse_problem(problem_to_dict(prob))
    assert again.payoff.cuts == prob.payoff.cuts
    assert again.payoff.levels == prob.payoff.levels
    assert again.rates.lambda0 == prob.rates.lambda0
    assert again.discounting.r == prob.discounting.r


def test_parse_reports_missing_and_unknown_fields():
    raw = dict(CANON_RAW)
    del raw["lambda1"]
    raw["extra"] = 3
    with pytest.raises(ProblemValidationError) as exc:
        parse_problem(raw)
    joined = "; ".join(exc.value.problems)
    assert "lambda1" in joined
    assert "extra" in joined


def test_parse_rejects_wrong_types():
    raw = dict(CANON_RAW)
    raw["r"] = "fast"
    with pytest.raises(ProblemValidationError):
        parse_problem(raw)


def test_validate_problem_direct_call():
    prob = validate_problem(MarkovRates(1.0, 1.0), Discounting(1.0),
                            CANON_RAW["cuts"], CANON_RAW["levels"])
    assert prob.pivot == 2


def test_load_problem_rejects_garbage_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemValidationError) as exc:
        load_problem(path)
    assert "not valid JSON" in str(exc.value)


def test_load_problem_round_trip(tmp_path, canon_problem):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem_to_dict(canon_problem)))
    prob = load_problem(path)
    assert prob.payoff.cuts == canon_problem.payoff.cuts
