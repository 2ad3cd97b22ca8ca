"""Validation, parsing, and payoff geometry."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from persuade.errors import OutOfRange, ProblemValidationError
from persuade.model import (
    PIN_TOLERANCE,
    Discounting,
    MarkovRates,
    StepPayoff,
    _locate,
    load_problem,
    parse_problem,
    problem_to_dict,
)

from persuade.oracle import OracleResult, make_grid

from conftest import CANON_RAW, MU_OUT_OF_RANGE, ONE_ABOVE_RAW, PINNED_RAW, canon_variant, random_instance


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


@pytest.mark.parametrize("cuts, levels, message", [
    ((0.0,), (1.0,), "need at least 2 cuts, got 1"),
    ((0.0, math.nan, 1.0), (0.0, 1.0), "cuts must all be finite numbers"),
    ((0.0, 0.5, 1.0), (0.0, math.inf), "levels must all be finite numbers"),
], ids=["one-cut", "nan-cut", "inf-level"])
def test_support_rejects_short_or_non_finite_input(cuts, levels, message):
    with pytest.raises(ProblemValidationError, match=re.escape(message)):
        StepPayoff(cuts=cuts, levels=levels)


@pytest.mark.parametrize("cuts, levels, message", [
    (["0", "1"], ["0.5"], "cuts must all be finite numbers"),
    ([0, "a", 1], [0, 1], "cuts must all be finite numbers"),
    ([0, None, 1], [0, 1], "cuts must all be finite numbers"),
    ([0, True, 1], [0, 1], "cuts must all be finite numbers"),
    ([0, 0.5, 1], [0, "1"], "levels must all be finite numbers"),
    ([0, 0.5, 1], [None, 1], "levels must all be finite numbers"),
], ids=["string-cuts", "letter-cut", "none-cut", "bool-cut", "string-level", "none-level"])
def test_support_rejects_non_numbers(cuts, levels, message):
    # float() would turn "0.5" into a number and raise a bare ValueError or
    # TypeError on "a" or None, so the types are checked first.
    with pytest.raises(ProblemValidationError, match=re.escape(message)):
        StepPayoff(cuts=cuts, levels=levels)


def test_support_accepts_numpy_floats():
    plain = StepPayoff(cuts=tuple(CANON_RAW["cuts"]), levels=tuple(CANON_RAW["levels"]))
    pay = StepPayoff(cuts=tuple(np.array(CANON_RAW["cuts"])),
                     levels=tuple(np.array(CANON_RAW["levels"])))
    assert pay == plain
    assert {type(x) for x in pay.cuts + pay.levels} == {float}


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
    "policy.targets": lambda prob, sol: sol.policy.targets,
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


def test_scalar_envelope_copies_no_cuts():
    # 10,001 cuts take 80 KB as an array.  One scalar call traced a peak of
    # 2.2 KB with the cuts stored as an array, and 81 KB when each call
    # converted the cuts tuple.
    cuts = np.linspace(0.0, 1.0, 10_001)
    pay = StepPayoff(tuple(cuts.tolist()), tuple((1.0 - (1.0 - cuts[:-1]) ** 2).tolist()))
    pay.envelope(0.5)
    tracemalloc.start()
    try:
        pay.envelope(0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000


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


def loop_pivot(problem):
    """The pivot by a loop over every cut: the first cut within PIN_TOLERANCE of p* wins."""
    p_star = problem.stationary_belief
    for i, c in enumerate(problem.payoff.cuts[:-1]):
        if abs(p_star - c) <= PIN_TOLERANCE:
            return i
    return _locate(p_star, problem.payoff._starts)[1]


@pytest.mark.parametrize("cut", CANON_RAW["cuts"])
def test_pivot_matches_loop_next_to_every_cut(cut):
    offsets = [0.0] + [sign * gap for gap in (5e-13, 1e-12, 2e-12, 1e-9) for sign in (-1.0, 1.0)]
    for p_star in [cut + offset for offset in offsets if 0.0 < cut + offset < 1.0]:
        problem = parse_problem(canon_variant(p_star))
        assert problem.pivot == loop_pivot(problem), p_star


# --- parsing and serialization ------------------------------------------------

def test_parse_round_trip():
    prob = parse_problem(CANON_RAW)
    again = parse_problem(problem_to_dict(prob))
    assert again.payoff.cuts == prob.payoff.cuts
    assert again.payoff.levels == prob.payoff.levels
    assert again.rates.lambda0 == prob.rates.lambda0
    assert again.discounting.r == prob.discounting.r


def test_problem_keys_a_dict():
    # Equal problems hash alike, so a Problem can key a dict or a cache.
    cache = {parse_problem(CANON_RAW): "canon"}
    assert cache[parse_problem(problem_to_dict(parse_problem(CANON_RAW)))] == "canon"
    assert parse_problem(dict(CANON_RAW, levels=[0.0, 0.5, 0.8, 0.95, 0.99])) not in cache
    assert repr(parse_problem(CANON_RAW).payoff) == (
        "StepPayoff(cuts=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), levels=(0.0, 0.5, 0.8, 0.95, 1.0))")


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


HUGE = 10 ** 400       # an int with no finite float


@pytest.mark.parametrize("raw, message", [
    (dict(CANON_RAW, lambda0=HUGE), f"field 'lambda0' must be a finite number, got {HUGE!r}"),
    (dict(CANON_RAW, r=HUGE), f"field 'r' must be a finite number, got {HUGE!r}"),
    (dict(CANON_RAW, cuts=[0.0, 0.2, HUGE, 0.6, 0.8, 1.0]), "field 'cuts' must be a list of finite numbers"),
    (dict(CANON_RAW, levels=[0.0, 0.5, 0.8, 0.95, HUGE]), "field 'levels' must be a list of finite numbers"),
], ids=["lambda0", "r", "cut", "level"])
def test_parse_rejects_int_beyond_float_range(raw, message):
    with pytest.raises(ProblemValidationError) as exc:
        parse_problem(raw)
    assert exc.value.problems == [message]


@pytest.mark.parametrize("raw", MU_OUT_OF_RANGE.values(), ids=MU_OUT_OF_RANGE.keys())
def test_parse_rejects_mu_outside_zero_inf(raw):
    with pytest.raises(ProblemValidationError) as exc:
        parse_problem(raw)
    (message,) = exc.value.problems
    assert message.startswith("mu = r / (lambda0 + lambda1) = ")
    assert repr(raw["r"]) in message and repr(raw["lambda0"] + raw["lambda1"]) in message


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
