"""Exception hierarchy.

Two branches matter operationally: configuration/precondition failures
(exit code 2 in the CLI) and numerical failures detected mid-run
(exit code 3, accompanied by a diagnostics dump).
"""


class LiqLabError(Exception):
    """Base class for all package errors."""


class ValidationFailure(LiqLabError):
    """Bad inputs: caught before any heavy computation starts."""


class NumericalFailure(LiqLabError):
    """The computation itself broke down (rank loss, divergence, ...)."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


# -- validation side ---------------------------------------------------------

class NotSymmetric(ValidationFailure):
    pass


class NotPositiveDefinite(ValidationFailure):
    pass


class ZeroPaths(ValidationFailure):
    pass


class InvalidParams(ValidationFailure):
    pass


class GridMismatch(ValidationFailure):
    pass


class MaturityPassed(ValidationFailure):
    pass


class NotSubmartingaleParams(ValidationFailure):
    pass


class MissingHatHedge(ValidationFailure):
    pass


class MissingDerivative(ValidationFailure):
    pass


class ParseError(ValidationFailure):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ValidationError(ValidationFailure):
    pass


# -- numerical side ----------------------------------------------------------

class DegenerateState(NumericalFailure):
    pass


class SingularSystem(NumericalFailure):
    pass


class RegressionRankDeficient(NumericalFailure):
    pass


class PicardDiverged(NumericalFailure):
    pass
