"""Derivative symbols, the canonical orderly ranking, and leader profiles.

A derivative symbol is one unknown function differentiated by a multi-index
of derivations.  The ranking compares total order first, then the unknown's
index, then the multi-index left to right; it is a total order compatible
with applying further derivations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import AmbientMismatch, ParseError, check_digits
from .expsets import ExponentSet, ExponentVector, _NATURALS, _check_vector, _lines, _naturals
from .expsets import dimension_polynomial
from .numpoly import NumericalPolynomial

TermKey = tuple[ExponentVector, int]


def rank_key(key: TermKey) -> tuple[int, ...]:
    """Orderly ranking key of (exponents, unknown index): order, unknown,
    then the exponents left to right."""
    xi, comp = key
    return (sum(xi), comp) + xi


@dataclass(frozen=True)
class DifferentialMonomial:
    """One derivative of one unknown: exponent vector plus 1-based index."""

    exponents: ExponentVector
    var_index: int

    def __post_init__(self):
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("need at least one derivation")
        _check_vector(exps, len(exps))
        if self.var_index < 1:
            raise ValueError("unknown index is 1-based")
        object.__setattr__(self, "exponents", exps)

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return sum(self.exponents)


def compare_rank(a: DifferentialMonomial, b: DifferentialMonomial) -> int:
    """-1, 0 or 1 under the orderly ranking.  Ambients must agree."""
    if a.m != b.m:
        raise AmbientMismatch(
            f"monomials over {a.m} and {b.m} derivations are not comparable"
        )
    ka = rank_key((a.exponents, a.var_index))
    kb = rank_key((b.exponents, b.var_index))
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


@dataclass(frozen=True)
class LeaderProfile:
    """Per-unknown exponent sets harvested from the leaders of a basis.  The
    Kolchin polynomial is kept on it once ``kolchin_from_leaders`` sums it."""

    m: int
    variable_sets: tuple[ExponentSet, ...]
    _kolchin: NumericalPolynomial | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        sets = tuple(self.variable_sets)
        if not sets:
            raise ValueError("profile needs at least one unknown")
        for es in sets:
            if es.m != self.m:
                raise AmbientMismatch(
                    f"component over {es.m} derivations in a profile over {self.m}"
                )
        object.__setattr__(self, "variable_sets", sets)

    @property
    def n(self) -> int:
        return len(self.variable_sets)


def kolchin_from_leaders(profile: LeaderProfile) -> NumericalPolynomial:
    """Sum of the component Kolchin polynomials, summed once per profile."""
    if profile._kolchin is None:
        total = NumericalPolynomial.zero(profile.m)
        for es in profile.variable_sets:
            total = total + dimension_polynomial(es)
        object.__setattr__(profile, "_kolchin", total)
    return profile._kolchin


# 'd[u1,...,um]x<i>' or the order-zero shorthand 'x<i>'; whitespace only
# around the exponents
_MONOMIAL = re.compile(rf"(?:d\[(?P<exps>{_NATURALS.pattern})\])?x(?P<idx>[0-9]+)")


def _monomial_key(exps: str | None, idx: str, width: int) -> TermKey:
    """(exponents, unknown index) of a ``_MONOMIAL`` match's groups 'exps'
    and 'idx'; the shorthand 'x<i>' stands for order zero over ``width``
    derivations."""
    xi = tuple(map(int, exps.split(","))) if exps else (0,) * width
    return xi, int(idx)


def parse_monomial(text: str) -> DifferentialMonomial:
    """Parse 'd[u1,...,um]x<i>' or the shorthand 'x<i>' (order zero).

    The shorthand carries no ambient width, so it parses over one
    derivation; compare only against like monomials.
    """
    check_digits(text, line=1)
    match = _MONOMIAL.fullmatch(text.strip())
    if not match:
        raise ParseError(f"expected 'd[u1,...,um]x<i>' or 'x<i>', got {text!r}", line=1)
    try:
        return DifferentialMonomial(*_monomial_key(*match.group("exps", "idx"), 1))
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None


def parse_leader_profile(
    text: str, m: int | None = None, n: int | None = None
) -> LeaderProfile:
    """Read lines 'i: u1,...,um' listing leader exponents per unknown.

    Unknown indices are 1-based.  Unlisted unknowns get the empty set (a free
    unknown).  ``n`` defaults to the largest index seen; ``m`` to the first
    row's width.
    """
    rows: dict[int, list[ExponentVector]] = {}
    width = m
    for lineno, line in _lines(text):
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("expected 'index: entries'", line=lineno)
        (idx,) = _naturals(head, lineno, 1)
        if idx < 1:
            raise ParseError("unknown index is 1-based", line=lineno)
        entries = _naturals(tail, lineno, width)
        width = len(entries)
        rows.setdefault(idx, []).append(entries)
    if width is None:
        raise ParseError("no rows and no ambient dimension given")
    count = n if n is not None else max(rows, default=0)
    if count < 1:
        raise ParseError("profile needs at least one unknown")
    if rows and max(rows) > count:
        raise ParseError(f"unknown index {max(rows)} exceeds {count}")
    sets = tuple(
        ExponentSet(width, tuple(rows.get(i, ()))) for i in range(1, count + 1)
    )
    return LeaderProfile(width, sets)
