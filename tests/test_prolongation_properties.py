"""Property tests: the echelon built from Janet parents has the pivots of the
echelon that reduces every prolongation theta * equation from scratch."""

from itertools import accumulate
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.lindiff import (  # noqa: E402
    DEFAULT_MATRIX_CELL_CAP,
    LinearDiffSystem,
    LinearEquation,
    _pivot_orders,
)
from diffdim.diffrank import rank_key  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


def _exponents_of_order(m, k):
    if m == 1:
        return [(k,)]
    return [(j,) + rest for j in range(k + 1) for rest in _exponents_of_order(m - 1, k - j)]


def _integer_row(eq):
    """The equation times the lcm of its denominators, as a sparse integer
    row keyed by ``rank_key``, so the row's leader is ``max(row)``."""
    scale = lcm(*(c.denominator for c, _ in eq.terms))
    return {rank_key((mono.exponents, mono.var_index)): int(c * scale) for c, mono in eq.terms}


def from_scratch_low(system, top):
    """``low[L][s]``, the number of pivots of order <= s after level L, for
    L in range(top + 1): level L reduces every row theta * equation with
    ord(theta) + ord(equation) == L against the pivot rows so far."""
    m = system.m
    equations = [(eq.order, _integer_row(eq)) for eq in system.equations]
    pivots, by_order, low = {}, [], []
    for level in range(top + 1):
        by_order.append(0)
        new_rows = (
            {
                (key[0] + level - d, key[1]) + tuple(a + b for a, b in zip(key[2:], th)): c
                for key, c in eq_row.items()
            }
            for d, eq_row in equations
            if d <= level
            for th in _exponents_of_order(m, level - d)
        )
        for row in new_rows:
            while row:
                lead = max(row)
                piv = pivots.get(lead)
                if piv is None:
                    content = gcd(*row.values())
                    pivots[lead] = {k: v // content for k, v in row.items()}
                    by_order[lead[0]] += 1
                    break
                g = gcd(row[lead], piv[lead])
                ma, mb = piv[lead] // g, row[lead] // g
                for k in row:
                    row[k] *= ma
                for k, v in piv.items():
                    v = row.get(k, 0) - mb * v
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        low.append(tuple(accumulate(by_order)))
    return low


@st.composite
def systems(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    exponents = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(
        lambda xi: sum(xi) <= 3
    ).map(tuple)
    coefficients = st.fractions(-6, 6, max_denominator=3).filter(bool)
    equations = st.dictionaries(
        st.tuples(exponents, st.integers(1, n)), coefficients, min_size=1, max_size=4
    ).map(LinearEquation.from_terms)
    return LinearDiffSystem(m, n, tuple(draw(st.lists(equations, min_size=1, max_size=3))))


@SETTINGS
@hypothesis.given(systems(), st.integers(0, 6))
def test_janet_parent_echelon_matches_from_scratch_echelon(system, top):
    pivots = _pivot_orders(system, top, DEFAULT_MATRIX_CELL_CAP)
    assert all(order <= level <= top for level, order in pivots)
    assert [level for level, _ in pivots] == sorted(level for level, _ in pivots)
    low = from_scratch_low(system, top)
    for level in range(top + 1):
        for s in range(level + 1):
            count = sum(at <= level and order <= s for at, order in pivots)
            assert count == low[level][s], (level, s)

