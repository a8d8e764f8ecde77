"""Numerical polynomials in the binomial basis.

A numerical polynomial takes integer values at all large integers.  Every
such polynomial of degree at most m can be written uniquely as

    p(t) = sum_{i=0..m} a_i * binom(t + i, i)

with integer coefficients a_i.  We store the tuple (a_m, ..., a_0), highest
basis degree first, and call it the standard coefficient tuple.  All
arithmetic here is exact.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import InputNotNumericalPolynomial

LESS = -1
EQUAL = 0
GREATER = 1


def _as_int(value):
    """Coerce to a plain int, rejecting anything non-integral."""
    if isinstance(value, bool):
        raise InputNotNumericalPolynomial(f"boolean is not a coefficient: {value!r}")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise InputNotNumericalPolynomial(f"non-integer value {value}")
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise InputNotNumericalPolynomial(f"non-integer value {value!r}") from None


@dataclass(frozen=True)
class NumericalPolynomial:
    """An integer-valued polynomial held by its standard coefficients.

    ``degree_bound`` is the length bookkeeping bound m; the true degree may
    be smaller.  ``standard_coeffs`` lists (a_m, ..., a_0).
    """

    degree_bound: int
    standard_coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.degree_bound < 0:
            raise ValueError("degree bound must be non-negative")
        coeffs = tuple(_as_int(c) for c in self.standard_coeffs)
        if len(coeffs) != self.degree_bound + 1:
            raise ValueError(
                f"expected {self.degree_bound + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "standard_coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> "NumericalPolynomial":
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        return cls(len(coeffs) - 1, coeffs)

    @classmethod
    def zero(cls, degree_bound: int = 0) -> "NumericalPolynomial":
        return cls(degree_bound, (0,) * (degree_bound + 1))

    def _trimmed(self) -> tuple[int, ...]:
        coeffs = self.standard_coeffs
        k = 0
        while k < len(coeffs) - 1 and coeffs[k] == 0:
            k += 1
        return coeffs[k:]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalPolynomial):
            return NotImplemented
        return self._trimmed() == other._trimmed()

    def __hash__(self) -> int:
        return hash(self._trimmed())

    def padded(self, degree_bound: int) -> "NumericalPolynomial":
        """Same polynomial, left-padded with zero coefficients."""
        if degree_bound < self.degree_bound:
            raise ValueError("cannot pad downward")
        extra = (0,) * (degree_bound - self.degree_bound)
        return NumericalPolynomial(degree_bound, extra + self.standard_coeffs)

    def evaluate(self, s: int) -> int:
        if s < 0:
            raise ValueError("evaluation point must be non-negative")
        m = self.degree_bound
        return sum(
            a * comb(s + i, i)
            for i, a in zip(range(m, -1, -1), self.standard_coeffs)
        )

    def __add__(self, other: "NumericalPolynomial") -> "NumericalPolynomial":
        if not isinstance(other, NumericalPolynomial):
            return NotImplemented
        m = max(self.degree_bound, other.degree_bound)
        a = self.padded(m).standard_coeffs
        b = other.padded(m).standard_coeffs
        return NumericalPolynomial(m, tuple(x + y for x, y in zip(a, b)))

    def differential_type(self) -> int:
        """Degree of the polynomial; zero for the zero polynomial."""
        trimmed = self._trimmed()
        return len(trimmed) - 1


def _power_coeffs(p: NumericalPolynomial) -> tuple[Fraction, ...]:
    """The coefficients of p in powers of t, highest first: (b_m, ..., b_0)."""
    m = p.degree_bound
    total = [Fraction(0)] * (m + 1)  # index = power of t
    for i, a in zip(range(m, -1, -1), p.standard_coeffs):
        if a == 0:
            continue
        # expand binom(t+i, i) = (t+1)(t+2)...(t+i) / i!
        poly = [Fraction(1)]
        for j in range(1, i + 1):
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] += j * poly[k + 1]
        scale = Fraction(a, factorial(i))
        for k, c in enumerate(poly):
            total[k] += scale * c
    return tuple(reversed(total))


def compare_eventual(p: NumericalPolynomial, q: NumericalPolynomial) -> int:
    """Compare by eventual domination: sign of p(s) - q(s) for all large s.

    Returns LESS, EQUAL or GREATER.  Equivalent to lexicographic comparison
    of the standard coefficient tuples after padding to a common bound.
    """
    m = max(p.degree_bound, q.degree_bound)
    a = p.padded(m).standard_coeffs
    b = q.padded(m).standard_coeffs
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL


def interpolate(values, start: int, m: int) -> NumericalPolynomial:
    """Recover a polynomial of degree <= m from its values at consecutive points.

    ``values`` are p(start), p(start + 1), ..., p(start + m) with start >= 0.
    Recovery runs by repeated differencing: the backward difference
    p(t) - p(t - 1) drops every basis index by one, so the differenced value
    list determines (a_m, ..., a_1) one level up and a_0 falls out of the
    value at ``start``.
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    if m < 0:
        raise ValueError("degree bound must be non-negative")
    vals = [_as_int(v) for v in values]
    if len(vals) != m + 1:
        raise ValueError(f"need exactly {m + 1} values, got {len(vals)}")
    return NumericalPolynomial(m, tuple(_coeffs_from_values(vals, start)))


def _coeffs_from_values(vals, start):
    if len(vals) == 1:
        return [vals[0]]
    diffs = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    upper = _coeffs_from_values(diffs, start + 1)  # (a_d, ..., a_1)
    d = len(vals) - 1
    a0 = vals[0] - sum(
        a * comb(start + i, i) for a, i in zip(upper, range(d, 0, -1))
    )
    return upper + [a0]


def to_json_dict(p: NumericalPolynomial) -> dict:
    """Serialize with coefficients as decimal strings (arbitrary precision)."""
    return {
        "m": p.degree_bound,
        "standard_coeffs": [str(c) for c in p.standard_coeffs],
    }


# the decimal strings to_json_dict writes: ASCII digits, optional minus
_DECIMAL = re.compile(r"-?[0-9]+")


def from_json_dict(doc: dict) -> NumericalPolynomial:
    """Read back a to_json_dict document; anything else raises
    InputNotNumericalPolynomial."""
    try:
        m = doc["m"]
        raw = doc["standard_coeffs"]
    except (KeyError, TypeError) as exc:
        raise InputNotNumericalPolynomial(f"missing field: {exc}") from None
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InputNotNumericalPolynomial("field 'm' must be a natural number")
    if not isinstance(raw, list) or not all(
        isinstance(c, str) and _DECIMAL.fullmatch(c) for c in raw
    ):
        raise InputNotNumericalPolynomial("coefficients must be a list of decimal strings")
    if len(raw) != m + 1:
        raise InputNotNumericalPolynomial(f"expected {m + 1} coefficients, got {len(raw)}")
    return NumericalPolynomial(m, tuple(map(int, raw)))


def render(p: NumericalPolynomial) -> str:
    """Human form in powers of t, e.g. '2*t + 1' or '1/2*t^2 + 3/2*t + 1'."""
    terms = []
    for power, c in zip(range(p.degree_bound, -1, -1), _power_coeffs(p)):
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "t" if power == 1 else f"t^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
