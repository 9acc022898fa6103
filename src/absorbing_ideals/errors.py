"""Exception types shared across the package."""


class RingBuildError(ValueError):
    """A ring descriptor violates one of its structural constraints."""


class ParseError(ValueError):
    """Malformed ring spec, element text, or ideal text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ImproperIdealError(ValueError):
    """A proper ideal was required but the unit ideal was supplied."""


class ResourceLimitError(RuntimeError):
    """An exhaustive scan would exceed the configured cap.

    `limit` says what would be exceeded.  The message adds `hint`, when
    given: the way around the limit that the raising function offers.
    """

    def __init__(self, limit, hint=None):
        super().__init__(f"{limit}; {hint}" if hint else limit)
        self.limit = limit


class HypothesisNotSatisfiedError(ValueError):
    """A named precondition of a check failed.

    `hypothesis` is a short machine-readable tag, `witness` carries the
    concrete elements that break the precondition.
    """

    def __init__(self, hypothesis, witness=None, message=None):
        super().__init__(message or f"hypothesis not satisfied: {hypothesis}")
        self.hypothesis = hypothesis
        self.witness = witness


class LemmaPreconditionError(ValueError):
    """Input matrix violates a precondition of the zero-diagonal search."""

    def __init__(self, message, vector=None):
        super().__init__(message)
        self.vector = vector


class InvariantViolationError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class TraceInconsistencyError(RuntimeError):
    """A derivation step contradicts direct ring arithmetic."""


# (exception classes, error.kind, exit code); the first matching row wins.
# HypothesisNotSatisfiedError and LemmaPreconditionError are ValueErrors,
# as are ParseError, RingBuildError and ImproperIdealError, so the usage
# row comes last.  An OSError comes from a file the user named.
ERRORS = (
    ((HypothesisNotSatisfiedError,), "hypothesis", 1),
    ((LemmaPreconditionError, InvariantViolationError, TraceInconsistencyError), "derivation", 1),
    ((ResourceLimitError,), "resource-limit", 3),
    ((ValueError, OSError), "usage", 2),
)


def error_kind(cls: type) -> tuple[str, int]:
    """`(error.kind, exit code)` of the first `ERRORS` row that the
    exception class `cls` falls under."""
    return next((kind, code) for classes, kind, code in ERRORS if issubclass(cls, classes))
