"""Exception types shared across the library, and the check a size cap passes."""

from __future__ import annotations


class DiffdimError(Exception):
    """Base class for every error raised by this package."""


class ResourceLimit(DiffdimError):
    """A computation refused to proceed past a configured size cap.

    ``description`` says which quantity blew up, in symbolic terms when the
    quantity itself is too large to print.
    """

    def __init__(self, description: str):
        super().__init__(description)
        self.description = description


class InputNotNumericalPolynomial(DiffdimError):
    """Coefficient data does not describe an integer-valued polynomial."""


class AmbientMismatch(DiffdimError):
    """Two objects live over different numbers of derivation operators."""


class ParseError(DiffdimError):
    """Malformed textual input.

    ``line`` is 1-based; ``column`` is 1-based or None when the problem is
    not tied to a single character.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.message = message
        self.line = line
        self.column = column


def check_cap(name: str, value) -> None:
    """Raise ValueError unless a size cap is a positive int."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
