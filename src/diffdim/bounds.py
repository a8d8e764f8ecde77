"""Effective bounds built from an Ackermann-style tower.

Everything here is a worst-case estimate: the order of a characteristic
set, the level where a dimension count becomes polynomial, and the level
where eventual comparison of two bounded polynomials is already decided.
The numbers grow fast, so each function checks the value it returns
against a digit cap, and evaluation is held to the fixed step budget
DEFAULT_STEP_BUDGET instead of being allowed to spin forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import ResourceLimit, brief, check_cap, over

DEFAULT_DIGIT_CAP = 10**5
DEFAULT_STEP_BUDGET = 10**6


def _capped(value: int, digit_cap: int, what: str) -> int:
    if over(value, digit_cap):
        raise ResourceLimit(f"{what} exceeds {digit_cap} decimal digits")
    return value


def _power_of_two_over(exponent: int, digit_cap: int) -> bool:
    # the test of a lower bound 2^exponent on a power not yet built; saturated
    # at 16^digit_cap > 10^digit_cap, so an astronomical exponent costs nothing
    return over(1 << min(exponent, 4 * digit_cap), digit_cap)


def ackermann(i: int, x: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The two-argument Ackermann function A(i, x).

    Conventions: A(0, x) = x + 1, A(i+1, 0) = A(i, 1), and
    A(i+1, x+1) = A(i, A(i+1, x)).  Rows 0 through 3 are evaluated through
    their closed forms (x+1, x+2, 2x+3, 2^(x+3) - 3); above that the
    definition is unwound on an explicit stack of rows 3 and up.  Raises
    ResourceLimit when the value, or a value on the way, would exceed
    ``digit_cap`` decimal digits or the unwinding exceeds
    DEFAULT_STEP_BUDGET steps.
    """
    if i < 0 or x < 0:
        raise ValueError("Ackermann arguments must be non-negative")
    check_cap("digit_cap", digit_cap)
    if i < 3:
        value = 2 * x + 3 if i == 2 else x + (i + 1)
    else:
        stack, value, steps = [i], x, 0
        while stack:
            steps += 1
            if steps > DEFAULT_STEP_BUDGET:
                raise ResourceLimit(f"ackermann({i}, {brief(x)}) exceeded "
                                    f"{DEFAULT_STEP_BUDGET} evaluation steps")
            row = stack.pop()
            if row == 3:
                if _power_of_two_over(value + 2, digit_cap):  # 2^(x+3) - 3 >= 2^(x+2)
                    raise ResourceLimit(f"ackermann row 3 would produce 2^{brief(value + 3)} - 3, "
                                        f"more than {digit_cap} decimal digits")
                value = 2 ** (value + 3) - 3
            elif value == 0:
                stack.append(row - 1)
                value = 1
            else:
                stack += (row - 1, row)
                value -= 1
    if over(value, digit_cap):
        raise ResourceLimit(f"ackermann({i}, {brief(x)}) exceeds {digit_cap} decimal digits")
    return value


def char_order_bound(r: int, m: int, n: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Worst-case order bound C for characteristic sets.

    Defined by iteration: one pass sends r to the r-fold application of
    A(m - 1, .) to 0, and the pass itself is applied n times, or until a
    pass returns its own input, which every later pass would return too.
    Known specialisations: C = r when m = 1, C = 2^n * r when m = 2, and
    C = 3*(2^r - 1) when m = 3, n = 1.  The value is 0 or one ``ackermann``
    checked.  Raises ResourceLimit when a pass needs more than
    DEFAULT_STEP_BUDGET Ackermann iterations.
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
            raise ResourceLimit(f"characteristic order bound needs {brief(value)} Ackermann "
                                f"iterations (budget {budget})")
        t = 0
        for _ in range(value):
            t = ackermann(m - 1, t, digit_cap=digit_cap)
        if t == value:
            break
        value = t
    return value


def _order_sum_bound(c: int, m: int, digit_cap: int) -> int:
    # D = C * binom(C + m - 1, C); the symmetric form binom(C+m-1, m-1)
    # keeps the computation cheap when C is huge
    return _capped(c * comb(c + m - 1, m - 1), digit_cap, "order sum bound")


def regularity_bound(r: int, m: int, n: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Level past which the dimension count is already polynomial.

    Equals max(0, m*D - m) with D the order sum bound derived from the
    characteristic order bound; for a single derivation this collapses
    to r - 1.
    """
    c = char_order_bound(r, m, n, digit_cap=digit_cap)
    d = _order_sum_bound(c, m, digit_cap)
    return _capped(max(0, m * d - m), digit_cap, "regularity bound")


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
    bound is n * max(D, 1)^m, with D the order sum bound; at D = 0 they are
    1 and n, built without their factors.  At r = 0 each equation is a
    linear form in x_1..x_n, so C = 0, the count is
    (n - rank) * C(s + m, m), polynomial from level 0, and its coefficients
    are at most n, which the free module attains; level 1 decides, since two
    such counts differ by a multiple of C(s + m, m).
    """
    c = char_order_bound(r, m, n, digit_cap=digit_cap)
    big_d = _order_sum_bound(c, m, digit_cap)
    if big_d > 1 and _power_of_two_over((big_d.bit_length() - 1) * m, digit_cap):  # <= D^m
        raise ResourceLimit(f"comparison level needs D^{m} with D of {big_d.bit_length()} bits, "
                            f"past {digit_cap} decimal digits")
    d_pow = big_d**m
    comparison = n * 2 ** (m + 1) * factorial(m) * d_pow + 1 if d_pow else 1
    return BoundReport(
        r=r, m=m, n=n, char_order=c, order_sum=big_d,
        regularity=_capped(max(0, m * big_d - m), digit_cap, "regularity bound"),
        comparison_level=_capped(comparison, digit_cap, "comparison level"),
        coeff_bound=_capped(n * max(d_pow, 1), digit_cap, "coefficient bound"),
    )
