"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PersuadeError`, so
callers (in particular the CLI) can map failures to exit codes by family.
"""

from __future__ import annotations

__all__ = [
    "PersuadeError",
    "ProblemValidationError",
    "BadRates",
    "BadSupport",
    "NonMonotoneLevels",
    "EnvelopeViolation",
    "OutOfRange",
    "PriorOutsideBracket",
    "DegenerateBracket",
    "WrongSideOfStationary",
    "Unreachable",
    "BracketDoesNotStraddle",
    "SolverError",
    "BadBoundary",
    "NoRoot",
    "MultiRoot",
    "OracleError",
    "GridTooCoarse",
    "NoConvergence",
    "PolicyGap",
    "BracketViolation",
    "SimulationError",
    "HorizonTooShort",
]


class PersuadeError(Exception):
    """Base class for all library errors."""


# --- problem construction / validation ---------------------------------------

class ProblemValidationError(PersuadeError):
    """A problem instance failed validation; .problems lists every issue found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BadRates(ProblemValidationError):
    """Nonpositive or non-finite switching rates or discount rate."""

    def __init__(self, message: str):
        super().__init__([message])


class BadSupport(ProblemValidationError):
    """Cuts do not span [0, 1], are unsorted, or contain near-duplicates."""

    def __init__(self, message: str):
        super().__init__([message])


class NonMonotoneLevels(ProblemValidationError):
    """Payoff levels are not strictly increasing."""

    def __init__(self, message: str):
        super().__init__([message])


class EnvelopeViolation(ProblemValidationError):
    """A (cut, level) point fails the strict concave-position condition.

    The message names the offending triple of points.
    """

    def __init__(self, message: str):
        super().__init__([message])


class OutOfRange(PersuadeError):
    """A belief argument lies outside [0, 1]."""


# --- belief kinetics ---------------------------------------------------------

class PriorOutsideBracket(PersuadeError):
    """Split prior does not lie inside the target bracket [a, b]."""


class DegenerateBracket(PersuadeError):
    """Split bracket has zero width (a == b)."""


class WrongSideOfStationary(PersuadeError):
    """Split target lies opposite the drift pull, so the split intensity is negative."""


class Unreachable(PersuadeError):
    """Slide target is at or beyond the stationary belief; drift never reaches it."""


class BracketDoesNotStraddle(PersuadeError):
    """Center-bracket value requested for a bracket not containing the stationary belief."""


# --- closed-form solver ------------------------------------------------------

class SolverError(PersuadeError):
    """Base class for failures while assembling the closed-form solution."""


class BadBoundary(SolverError):
    """Interval boundary value is not strictly below the interval's payoff level."""


class NoRoot(SolverError):
    """Smooth-pasting residual has no sign change inside the interval."""


class MultiRoot(SolverError):
    """Smooth-pasting residual changes sign more than once; refusing to guess."""


# --- DP oracle ---------------------------------------------------------------

class OracleError(PersuadeError):
    """Base class for dynamic-programming oracle failures."""


class GridTooCoarse(OracleError):
    """Some payoff interval contains fewer than 3 grid points."""


class NoConvergence(OracleError):
    """Value iteration hit max_iter; .result carries the best iterate."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class PolicyGap(OracleError):
    """Some belief in [0, 1] is covered by no policy region."""


class BracketViolation(OracleError):
    """A drifted belief fell outside its region's split bracket."""


# --- simulation --------------------------------------------------------------

class SimulationError(PersuadeError):
    """Base class for simulator failures."""


class HorizonTooShort(SimulationError):
    """Discounted tail bound at the requested horizon exceeds the cap."""
