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
