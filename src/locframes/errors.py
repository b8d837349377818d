"""Exception taxonomy with stable machine-readable codes.

Every error that can surface through the CLI carries a short ``code``
string so reports and exit handling stay scriptable.
"""


class LocframesError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "error"
    exit_code = 2

    def payload(self):
        return {"code": self.code, "message": str(self)}


class DimensionMismatchError(LocframesError):
    code = "dimension-mismatch"


class MetricMismatchError(LocframesError):
    code = "metric-mismatch"


class InvalidInputError(LocframesError):
    code = "invalid-input"


class ConfigError(LocframesError):
    """A required setting is missing or a numeric setting is out of range."""

    code = "config"


class InputFileError(LocframesError):
    """An input container is missing or holds another kind of data."""

    code = "input-file"


class NotAFrameError(LocframesError):
    """Rank-deficient or undersized vector family."""

    code = "not-a-frame"

    def __init__(self, message, numerical_rank=None):
        super().__init__(message)
        self.numerical_rank = numerical_rank

    def payload(self):
        out = super().payload()
        if self.numerical_rank is not None:
            out["numerical_rank"] = int(self.numerical_rank)
        return out


class InsufficientDataError(LocframesError):
    """Too few usable distance shells for a decay regression."""

    code = "insufficient-data"


class ContractError(LocframesError):
    """A documented precondition of an operation was violated."""

    code = "contract"


class NotLocalizedError(ContractError):
    """Frame failed an intrinsic-localization precondition.

    Carries the report that failed so callers can surface it.
    """

    code = "not-localized"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BijectivityError(LocframesError):
    """Operator is numerically singular where invertibility is required."""

    code = "bijectivity"


class DivergedError(LocframesError):
    code = "diverged"
    exit_code = 3
