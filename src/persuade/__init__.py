"""Optimal dynamic information disclosure about a two-state Markov chain.

A sender who observes a hidden two-state chain commits to a Markovian
disclosure policy; a myopic receiver acts each instant on the current public
belief, and the sender collects a step-function flow payoff of that belief.
The package provides the closed-form value function and optimal policy, an
independent discrete-time dynamic-programming oracle, a Monte-Carlo
simulator of the joint state/message/belief process, and a CLI front end.
"""

from .model import (
    Discounting,
    MarkovRates,
    Problem,
    StepPayoff,
    load_problem,
    parse_problem,
    problem_to_dict,
)
from .dynamics import (
    SplitSignal,
    discounted_time_slide,
    discounted_time_split,
    make_split_signal,
)
from .solver import (
    MarkovPolicy,
    PiecewiseValue,
    PolicyRegion,
    Solution,
    ValueSegment,
    solve,
    verify_solution,
)
from .oracle import (
    BeliefGrid,
    OracleResult,
    evaluate_policy_discrete,
    full_disclosure_policy,
    make_grid,
    myopic_policy,
    slide_only_policy,
    value_iteration,
)
from .sim import SimConfig, SimResult, compare_policies, default_period, simulate

__version__ = "0.1.0"

__all__ = [
    "MarkovRates",
    "Discounting",
    "StepPayoff",
    "Problem",
    "parse_problem",
    "load_problem",
    "problem_to_dict",
    "SplitSignal",
    "make_split_signal",
    "discounted_time_split",
    "discounted_time_slide",
    "ValueSegment",
    "PiecewiseValue",
    "PolicyRegion",
    "MarkovPolicy",
    "Solution",
    "solve",
    "verify_solution",
    "BeliefGrid",
    "make_grid",
    "OracleResult",
    "value_iteration",
    "evaluate_policy_discrete",
    "myopic_policy",
    "slide_only_policy",
    "full_disclosure_policy",
    "SimConfig",
    "SimResult",
    "default_period",
    "simulate",
    "compare_policies",
    "__version__",
]
