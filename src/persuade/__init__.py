"""Optimal dynamic information disclosure about a two-state Markov chain.

A sender who observes a hidden two-state chain commits to a Markovian
disclosure policy; a myopic receiver acts each instant on the current public
belief, and the sender collects a step-function flow payoff of that belief.
The package provides the closed-form value function and optimal policy, an
independent discrete-time dynamic-programming oracle, a Monte-Carlo
simulator of the joint state/message/belief process, and a CLI front end.
Each public name lives in one submodule and is imported from there.
"""

__version__ = "0.1.0"

# `import persuade` loads the whole library but not the CLI, so its import
# time is the library's.  Kept below __version__, which cli reads.
from . import dynamics, errors, model, oracle, sim, solver

__all__ = ["__version__"]
