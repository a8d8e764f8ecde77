"""Exception types shared across the library, the checks a size cap and an
input number pass, the one digit test and the short form of a number."""

from __future__ import annotations

import re

# CPython's default integer-string limit, fixed here so that the same input
# numbers are read whatever the interpreter's own limit is set to
MAX_DIGITS = 4300

_LOG2_10 = 33219280948  # 10^10 * log2(10) lies between this and the next integer


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


def check_digits(text: str, line: int | None = None) -> None:
    """Raise ParseError at the first number in ``text`` of more than
    MAX_DIGITS digits, naming its column when ``line`` is given."""
    for run in re.finditer(r"[0-9]+", text):
        if len(run[0]) > MAX_DIGITS:
            raise ParseError(f"a number of {len(run[0])} digits, more than {MAX_DIGITS}",
                             line=line, column=run.start() + 1)


def over(value: int, digits: int) -> bool:
    """Whether the natural number ``value`` is at least 10**digits, exactly:
    bit lengths decide, and the power is built only within a bit of it."""
    bits = value.bit_length()
    if bits * 10**10 <= digits * _LOG2_10:
        return False
    return (bits - 1) * 10**10 >= digits * (_LOG2_10 + 1) or value >= 10**digits


def brief(value: int) -> str:
    """A printable form that stays short even for enormous natural numbers:
    one of more than 30 digits is stated by its exact count of digits."""
    if not over(value, 30):
        return str(value)
    digits = value.bit_length() * 10**10 // (_LOG2_10 + 1)  # at most the count
    while over(value, digits):
        digits += 1
    return f"a {digits}-digit number"
