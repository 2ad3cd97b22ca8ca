"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PersuadeError`.  Each
class below it stands for one CLI exit code, and the CLI maps a failure to its
stderr prefix and code by class alone, from the table `persuade.cli._EXITS`.
ProblemValidationError lists its problems, one stderr line each.  A raise
site says what went wrong in its message rather than by a subclass, and none
of these classes has one.
"""

from __future__ import annotations

__all__ = [
    "PersuadeError",
    "ProblemValidationError",
    "OutOfRange",
    "SolverError",
    "OracleError",
    "SimulationError",
]


class PersuadeError(Exception):
    """Base class for all library errors."""


class ProblemValidationError(PersuadeError):
    """A problem instance, policy or input file is malformed; .problems lists every issue found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class OutOfRange(PersuadeError):
    """A belief, bracket, period or other argument lies outside its domain."""


class SolverError(PersuadeError):
    """The closed-form solution could not be assembled or fails its shape checks."""


class OracleError(PersuadeError):
    """The dynamic-programming oracle cannot run on the requested grid or does not converge."""


class SimulationError(PersuadeError):
    """The simulator's horizon is too short for its truncation bound."""
