"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PersuadeError`.  Each
class below it stands for one CLI exit code, so the CLI maps a failure to its
code by class alone: ProblemValidationError (which lists its problems) and
OutOfRange give 2, SolverError 4, OracleError 5 and SimulationError 6.  A
raise site says what went wrong in its message, not by a subclass.
NoConvergence is the only subclass: an OracleError that also carries the best
iterate.
"""

from __future__ import annotations

__all__ = [
    "PersuadeError",
    "ProblemValidationError",
    "OutOfRange",
    "SolverError",
    "OracleError",
    "NoConvergence",
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
    """The dynamic-programming oracle cannot run on the requested grid."""


class NoConvergence(OracleError):
    """Value iteration hit max_iter; .result carries the best iterate."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SimulationError(PersuadeError):
    """The simulator's horizon is too short for its truncation bound."""
