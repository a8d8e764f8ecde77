"""Derivative symbols, the canonical orderly ranking, and leader profiles.

A derivative symbol is one unknown function differentiated by a multi-index
of derivations.  The ranking compares total order first, then the unknown's
index, then the multi-index left to right; it is a total order compatible
with applying further derivations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbientMismatch, ParseError
from .expsets import (
    ExponentSet, ExponentVector, dimension_polynomial, minimal_elements, stability_bound,
)
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
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"exponents must be naturals, got {exps}")
        if self.var_index < 1:
            raise ValueError("unknown index is 1-based")
        object.__setattr__(self, "exponents", exps)

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return sum(self.exponents)

    def derive(self, theta: ExponentVector) -> "DifferentialMonomial":
        """Apply further derivations given by the multi-index theta."""
        if len(theta) != self.m:
            raise AmbientMismatch(
                f"derivation multi-index has {len(theta)} entries, expected {self.m}"
            )
        return DifferentialMonomial(
            tuple(a + b for a, b in zip(self.exponents, theta)), self.var_index
        )


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
    """Per-unknown exponent sets harvested from the leaders of a basis."""

    m: int
    variable_sets: tuple[ExponentSet, ...]

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
    """Sum of the component Kolchin polynomials."""
    total = NumericalPolynomial.zero(profile.m)
    for es in profile.variable_sets:
        total = total + dimension_polynomial(es)
    return total


def profile_order(profile: LeaderProfile) -> int:
    """Largest generator order appearing in the profile; 0 when free."""
    orders = [
        sum(g)
        for es in profile.variable_sets
        for g in minimal_elements(es).generators
    ]
    return max(orders, default=0)


def profile_stability_bound(profile: LeaderProfile) -> int:
    """Where every component count has become polynomial."""
    return max(
        (stability_bound(es) for es in profile.variable_sets), default=0
    )


def parse_monomial(text: str) -> DifferentialMonomial:
    """Parse 'd[u1,...,um]x<i>' or the shorthand 'x<i>' (order zero).

    The shorthand carries no ambient width, so it parses over one
    derivation; compare only against like monomials.
    """
    s = text.strip()
    if s.startswith("d["):
        close = s.find("]")
        if close < 0:
            raise ParseError(f"unterminated exponent list in {text!r}")
        body = s[2:close]
        rest = s[close + 1:]
        try:
            exps = tuple(int(p.strip()) for p in body.split(","))
        except ValueError:
            raise ParseError(f"bad exponent list in {text!r}") from None
    elif s.startswith("x"):
        exps = None
        rest = s
    else:
        raise ParseError(f"expected a derivative symbol, got {text!r}")
    if not rest.startswith("x") or not rest[1:].isdigit():
        raise ParseError(f"expected unknown 'x<i>' in {text!r}")
    idx = int(rest[1:])
    if exps is None:
        exps = (0,)
    try:
        return DifferentialMonomial(exps, idx)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("expected 'index: entries'", line=lineno)
        try:
            idx = int(head.strip())
        except ValueError:
            raise ParseError(f"bad unknown index {head.strip()!r}", line=lineno) from None
        if idx < 1:
            raise ParseError("unknown index is 1-based", line=lineno)
        try:
            entries = tuple(int(p.strip()) for p in tail.split(","))
        except ValueError:
            raise ParseError(f"bad exponent entry in {tail.strip()!r}", line=lineno) from None
        if any(e < 0 for e in entries):
            raise ParseError("exponents must be non-negative", line=lineno)
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(
                f"expected {width} entries, got {len(entries)}", line=lineno
            )
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
