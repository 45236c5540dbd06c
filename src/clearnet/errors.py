"""Exception types raised across the package."""


class ClearnetError(Exception):
    """Base class for all errors raised by clearnet."""


# --- input and model validation ----------------------------------------

class ValidationError(ClearnetError, ValueError):
    """Input the model does not accept: a document or file whose contents
    fail validation, or a parameter out of range (a recovery rate outside
    [0, 1], a bank count or step budget below 1, a density outside (0, 1]).
    The CLI exits 1 on it. Also a ``ValueError``, for callers that catch bad
    arguments that way.
    """


class NegativeEntry(ValidationError):
    """A liability or asset entry is negative (names the offending index)."""


class DimensionMismatch(ValidationError):
    """Matrix/vector shapes are inconsistent."""


class NonzeroSinkRow(ValidationError):
    """The sink node owes something inside the system."""


class NonzeroDiagonal(ValidationError):
    """A node has a liability to itself."""


# --- solvers -------------------------------------------------------------

class SingularSystem(ClearnetError):
    """A reduced linear system is numerically singular (pivot below 1e-14)."""


class NoConvergence(ClearnetError):
    """The default set kept changing past the theoretical iteration bound."""


class OracleNoConvergence(ClearnetError):
    """The fixed-point oracle hit its iteration cap before converging."""


class DivisionByZero(ClearnetError, ZeroDivisionError):
    """A denominator that must be positive is zero."""


# --- spectral ------------------------------------------------------------

class ZeroVector(ClearnetError):
    """A test vector that must be nonzero is identically zero."""


# --- shock construction --------------------------------------------------

class PreconditionViolated(ClearnetError):
    """A structural precondition of a shock builder does not hold."""


class InvalidInterpolation(ClearnetError):
    """Interpolation coefficient outside the open interval (0, 1)."""


class SearchExhausted(ClearnetError):
    """No step of the shock search pushed every node into default.

    ``solvent_banks`` lists the bank indices still solvent at the final,
    most severe step.
    """

    def __init__(self, message: str, solvent_banks=()):
        super().__init__(message)
        self.solvent_banks = tuple(int(i) for i in solvent_banks)


class SelfConsistencyFailed(ClearnetError):
    """The clearing vector disagrees with the self-consistent candidate."""


class NotAllDefaulted(ClearnetError):
    """A scenario that must default every node left some node solvent."""


class NotSingleCreditor(ClearnetError):
    """A bank has more than one creditor, so its claims matrix is not 0/1."""


# --- I/O -----------------------------------------------------------------

class ParseError(ClearnetError):
    """Malformed input file; carries the offending line (and column)."""

    def __init__(self, message: str, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
