"""Effective bounds built from an Ackermann-style tower.

Everything here is a worst-case estimate: the order of a characteristic
set, the level where a dimension count becomes polynomial, and the level
where eventual comparison of two bounded polynomials is already decided.
The numbers grow fast, so evaluation is guarded by a digit cap and by the
fixed step budget DEFAULT_STEP_BUDGET instead of being allowed to spin
forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import ResourceLimit, check_cap

DEFAULT_DIGIT_CAP = 10**5
DEFAULT_STEP_BUDGET = 10**6

# floor(x * log10(2)) slightly overestimated; good enough for a size guard
_LOG10_2_NUM = 30103
_LOG10_2_DEN = 100000


def _decimal_digits_of_pow2(exponent: int) -> int:
    return exponent * _LOG10_2_NUM // _LOG10_2_DEN + 1


def _brief(value: int) -> str:
    """A printable form that stays short even for enormous integers."""
    if value < 10**30:
        return str(value)
    return f"a {value.bit_length() * _LOG10_2_NUM // _LOG10_2_DEN + 1}-digit number"


def _guard_digits(value: int, digit_cap: int, what: str):
    if value.bit_length() * _LOG10_2_NUM // _LOG10_2_DEN > digit_cap:
        raise ResourceLimit(f"{what} exceeds {digit_cap} decimal digits")


def ackermann(i: int, x: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The two-argument Ackermann function A(i, x).

    Conventions: A(0, x) = x + 1, A(i+1, 0) = A(i, 1), and
    A(i+1, x+1) = A(i, A(i+1, x)).  Rows 0 through 3 are evaluated through
    their closed forms (x+1, x+2, 2x+3, 2^(x+3) - 3); above that the
    definition is unwound on an explicit stack.  Raises ResourceLimit when
    a value would exceed ``digit_cap`` decimal digits or the unwinding
    exceeds DEFAULT_STEP_BUDGET steps.
    """
    if i < 0 or x < 0:
        raise ValueError("Ackermann arguments must be non-negative")
    check_cap("digit_cap", digit_cap)
    budget = DEFAULT_STEP_BUDGET
    stack = [i]
    value = x
    steps = 0
    while stack:
        steps += 1
        if steps > budget:
            raise ResourceLimit(f"ackermann({i}, {x}) exceeded {budget} evaluation steps")
        row = stack.pop()
        if row == 0:
            value += 1
        elif row == 1:
            value += 2
        elif row == 2:
            value = 2 * value + 3
        elif row == 3:
            exponent = value + 3
            if _decimal_digits_of_pow2(exponent) > digit_cap:
                raise ResourceLimit(
                    f"ackermann row 3 would produce 2^{_brief(exponent)} - 3, "
                    f"more than {digit_cap} decimal digits"
                )
            value = 2**exponent - 3
        elif value == 0:
            stack.append(row - 1)
            value = 1
        else:
            stack.append(row - 1)
            stack.append(row)
            value -= 1
        _guard_digits(value, digit_cap, f"ackermann({i}, {x}) intermediate")
    return value


def char_order_bound(r: int, m: int, n: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Worst-case order bound C for characteristic sets.

    Defined by iteration: one pass sends r to the r-fold application of
    A(m - 1, .) to 0, and the pass itself is applied n times.  Known
    specialisations: C = r when m = 1, C = 2^n * r when m = 2, and
    C = 3*(2^r - 1) when m = 3, n = 1.  Raises ResourceLimit when a pass
    needs more than DEFAULT_STEP_BUDGET Ackermann iterations.
    """
    if m < 1 or n < 1:
        raise ValueError("need at least one derivation and one unknown")
    if r < 0:
        raise ValueError("order bound must be non-negative")
    check_cap("digit_cap", digit_cap)
    budget = DEFAULT_STEP_BUDGET
    value = r
    for _ in range(n):
        if value > budget:
            raise ResourceLimit(
                f"characteristic order bound needs {_brief(value)} Ackermann "
                f"iterations (budget {budget})"
            )
        t = 0
        for _ in range(value):
            t = ackermann(m - 1, t, digit_cap=digit_cap)
        value = t
    return value


def _order_sum_bound(c: int, m: int, digit_cap: int) -> int:
    # D = C * binom(C + m - 1, C); the symmetric form binom(C+m-1, m-1)
    # keeps the computation cheap when C is huge
    d = c * comb(c + m - 1, m - 1)
    _guard_digits(d, digit_cap, "order sum bound")
    return d


def regularity_bound(r: int, m: int, n: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Level past which the dimension count is already polynomial.

    Equals max(0, m*D - m) with D the order sum bound derived from the
    characteristic order bound; for a single derivation this collapses
    to r - 1.
    """
    c = char_order_bound(r, m, n, digit_cap=digit_cap)
    d = _order_sum_bound(c, m, digit_cap)
    return max(0, m * d - m)


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one (r, m, n) input, plus the inputs themselves.

    Fields: char_order is C, order_sum is D, regularity is the stabilisation level,
    comparison_level is the level where eventual comparison of two
    polynomials with coefficients bounded by coeff_bound is decided.
    """

    r: int
    m: int
    n: int
    char_order: int
    order_sum: int
    regularity: int
    comparison_level: int
    coeff_bound: int


def bound_report(r: int, m: int, n: int, *, digit_cap: int = DEFAULT_DIGIT_CAP) -> BoundReport:
    """Compute every bound for the given shape of system.

    The comparison level is n * 2^(m+1) * m! * D^m + 1 and the coefficient
    bound is n * max(D, 1)^m, with D the order sum bound.  At r = 0 each
    equation is a linear form in x_1..x_n, so C = 0, the count is
    (n - rank) * C(s + m, m), polynomial from level 0, and its coefficients
    are at most n, which the free module attains; level 1 decides, since two
    such counts differ by a multiple of C(s + m, m).
    """
    c = char_order_bound(r, m, n, digit_cap=digit_cap)
    big_d = _order_sum_bound(c, m, digit_cap)
    if big_d > 1 and big_d.bit_length() * m * _LOG10_2_NUM // _LOG10_2_DEN > digit_cap:
        raise ResourceLimit(
            f"comparison level needs D^{m} with D of "
            f"{big_d.bit_length()} bits, past {digit_cap} decimal digits"
        )
    d_pow = big_d**m
    coeff = n * max(big_d, 1) ** m
    comparison = n * 2 ** (m + 1) * factorial(m) * d_pow + 1
    _guard_digits(comparison, digit_cap, "comparison level")
    return BoundReport(
        r=r,
        m=m,
        n=n,
        char_order=c,
        order_sum=big_d,
        regularity=max(0, m * big_d - m),
        comparison_level=comparison,
        coeff_bound=coeff,
    )
