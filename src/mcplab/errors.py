"""Exception hierarchy shared by all mcplab modules."""

from __future__ import annotations


class LabError(Exception):
    """Base class for all mcplab errors."""


class ValidationError(LabError, ValueError):
    """Bad arguments, malformed input, or violated preconditions."""


class DuplicateEdgeError(ValidationError):
    def __init__(self, a: int, b: int):
        super().__init__(f"duplicate edge ({a}, {b})")
        self.a = a
        self.b = b


class IndexOutOfRangeError(ValidationError):
    pass


class ColorOutOfRangeError(ValidationError):
    pass


class InvalidMatchingError(ValidationError):
    pass


class ParseError(ValidationError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class OutOfUnitIntervalError(ValidationError):
    def __init__(self, value: float):
        super().__init__(f"edge probability {value!r} falls outside [0, 1]")
        self.value = value


class NoSourceEdgesError(LabError):
    """The matching has no edge of the requested source color."""


class InvalidCycleError(LabError):
    def __init__(self, clause: str):
        super().__init__(f"invalid alternating cycle: {clause}")
        self.clause = clause


class InstanceTooLargeError(ValidationError):
    """The instance exceeds an exact method's size limit."""


class BadProfileSumError(ValidationError):
    pass


class DomainError(ValidationError):
    pass


class NoPerfectMatchingError(LabError):
    """Raised when a perfect matching is required but does not exist.

    Carries a deficient A-side set ``witness`` with |N(witness)| < |witness|.
    """

    def __init__(self, color: int, witness: tuple[int, ...]):
        super().__init__(
            f"no perfect matching in color-{color} subgraph; "
            f"deficient set of size {len(witness)}"
        )
        self.color = color
        self.witness = witness
