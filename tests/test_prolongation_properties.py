"""Property tests: the echelon built from Janet parents has the pivots of the
echelon that reduces every prolongation theta * equation from scratch."""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.expsets import stabilisation_level  # noqa: E402
from diffdim.lindiff import (  # noqa: E402
    LinearDiffSystem,
    _Echelon,
    _echelon_margin,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    parse_system,
)
from diffdim.diffrank import rank_key  # noqa: E402
from parsed import equation  # noqa: E402
from test_lindiff import echelon_to, load  # noqa: E402

DATA = Path(__file__).parent / "data"

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)

# every echelon here holds at most 5,696 entries (the margin search on
# probe4.sys; at most 1,085 on 3,000 drawn systems), so a wrong basis ends
# at this cap, not climbing towards the default 5 * 10^6.  A failing
# hypothesis test runs many examples to the cap while it shrinks: at 10^5
# one such test grew past 2.3 GB
CELL_CAP = 2 * 10**4


def _exponents_of_order(m, k):
    if m == 1:
        return [(k,)]
    return [(j,) + rest for j in range(k + 1) for rest in _exponents_of_order(m - 1, k - j)]


def _integer_row(eq):
    """The equation times the lcm of its denominators, as a sparse integer
    row keyed by ``rank_key``, so the row's leader is ``max(row)``."""
    scale = lcm(*(c.denominator for c, _ in eq.terms))
    return {rank_key((mono.exponents, mono.var_index)): int(c * scale) for c, mono in eq.terms}


def from_scratch(system, top):
    """(low, first) for levels 0..top: ``low[L][s]`` is the number of
    pivots of order <= s after level L, and ``first`` maps the rank key of
    each pivot to the level that made it.  Level L reduces every row
    theta * equation with ord(theta) + ord(equation) == L against the pivot
    rows so far."""
    m = system.m
    equations = [(eq.order, _integer_row(eq)) for eq in system.equations]
    pivots, by_order, low, first = {}, [], [], {}
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
                    first[lead] = level
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
    return low, first


@st.composite
def systems(draw, m=None, n=None, order=None):
    """One to three equations of one to four terms of order <= 3, over m <= 3
    derivations and n <= 2 unknowns, each drawn unless given.  Given an
    order, the terms have order <= order and one term of the first equation
    has exactly that order, so the system has it."""
    m = draw(st.integers(1, 3)) if m is None else m
    n = draw(st.integers(1, 2)) if n is None else n
    top = 3 if order is None else order
    # every (vector, unknown) pair of order <= top: a dictionary keyed by a
    # sampled_from is drawn as a unique list sampled without replacement,
    # so no key is drawn twice and none is rejected.  The invalid examples
    # that --hypothesis-show-statistics still counts are the engine's own
    # overruns: replays, at a fixed number of choices, of a mutated or
    # shortened earlier example that the draw outgrows
    pairs = [
        (xi, u) for k in range(top + 1) for xi in _exponents_of_order(m, k) for u in range(1, n + 1)
    ]
    # a denominator q <= 3, then a magnitude in (0, 6] and a sign: the nonzero
    # fractions of st.fractions(-6, 6, max_denominator=3), none rejected
    coefficients = st.integers(1, 3).flatmap(lambda q: st.builds(
        lambda p, sign: Fraction(sign * p, q), st.integers(1, 6 * q), st.sampled_from((1, -1))
    ))
    terms = st.dictionaries(st.sampled_from(pairs), coefficients, min_size=1, max_size=4)
    equations = draw(st.lists(terms, min_size=1, max_size=3))
    if order is not None:
        # the first equation's first term gives way to one of that order
        first = equations[0]
        del first[next(iter(first))]
        first[draw(st.sampled_from([p for p in pairs if sum(p[0]) == order]))] = draw(coefficients)
    return LinearDiffSystem(m, n, tuple(map(equation, equations)))


@SETTINGS
@hypothesis.given(systems(), st.integers(0, 6))
def test_janet_parent_echelon_matches_from_scratch_echelon(system, top):
    pivots = echelon_to(system, top, CELL_CAP).orders
    assert all(order <= level <= top for level, order in pivots)
    assert [level for level, _ in pivots] == sorted(level for level, _ in pivots)
    low = from_scratch(system, top)[0]
    for level in range(top + 1):
        for s in range(level + 1):
            count = sum(at <= level and order <= s for at, order in pivots)
            assert count == low[level][s], (level, s)


def assert_every_level_stores_a_pivot_row(system, top):
    """Every level from the least equation order to ``top`` makes a pivot:
    the shift by the last derivation of the highest pivot row is a pivot
    above every earlier one, so the entries held also bound the levels."""
    first = min((eq.order for eq in system.equations), default=top + 1)
    levels = {at for at, _ in echelon_to(system, top, CELL_CAP).orders}
    assert levels == set(range(first, top + 1))


@SETTINGS
@hypothesis.given(systems(), st.integers(0, 6))
def test_every_level_from_the_first_stores_a_pivot_row(system, top):
    assert_every_level_stores_a_pivot_row(system, top)


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.sys")))
def test_every_level_from_the_first_stores_a_pivot_row_on_the_fixtures(name):
    assert_every_level_stores_a_pivot_row(load(name), 6)


def test_janet_parent_echelon_past_the_equations_width_matches_from_scratch():
    # at m = 1 the equations' 10-bit fields hold orders 0..511, and the
    # echelon starts at their layout; top 520 needs 11 bits, so at level 512
    # it starts over at 20 bits, rebuilds levels up to 511 and goes on
    system = parse_system("m = 1\nn = 2\neq: d[2]x1 - 3*x2\neq: 2*d[1]x2 + d[1]x1 - x1\n")
    top = 520
    assert system.equations[0]._keys.width == 10
    pivots = echelon_to(system, top, CELL_CAP).orders
    low = from_scratch(system, top)[0]
    by_order = [0] * (top + 1)
    for level in range(top + 1):
        for at, order in pivots:
            by_order[order] += at == level
        assert tuple(accumulate(by_order[: level + 1])) == low[level], level


# g = d_1^k x1 + x1 times two coprime cofactors: the basis is g alone, and
# it is reached only levels past the window, across the echelon's field
# limit (16 at m = 4 for a bound below 16, 512 at m = 1 for one below 512)
@pytest.mark.parametrize("text, margin", [
    ("m = 4\nn = 1\neq: d[10,0,0,0]x1 + d[8,0,0,0]x1 + 2*d[2,0,0,0]x1 + 2*x1\n"
     "eq: d[9,0,0,0]x1 + d[7,0,0,0]x1 + 3*d[2,0,0,0]x1 + 3*x1\n", 14),
    ("m = 1\nn = 1\neq: d[510]x1 + d[10]x1 + 2*d[500]x1 + 2*x1\n"
     "eq: d[509]x1 + d[9]x1 + 3*d[500]x1 + 3*x1\n", 18),
])
def test_margin_search_past_the_field_limit_matches_from_scratch(text, margin):
    system = parse_system(text)
    gb = module_groebner(system)
    window = max(stabilisation_level(es) for es in leader_profile(gb).variable_sets) + system.m
    echelon = _Echelon(system, CELL_CAP)
    width = echelon.keys.width
    assert _echelon_margin(echelon, gb, window) == margin
    assert echelon.level >= 1 << (width - 1) and echelon.keys.width == 2 * width
    low = from_scratch(system, echelon.level)[0]
    by_order = [0] * (echelon.level + 1)
    for level in range(echelon.level + 1):
        for at, order in echelon.orders:
            by_order[order] += at == level
        assert tuple(accumulate(by_order[: level + 1])) == low[level], level
    assert kolchin_via_prolongation(system) == kolchin_polynomial(system)


def assert_margin_is_first_pivot_level(system):
    """The margin is max(first level of x - ord x, 0) over the leaders x of
    the basis elements of order <= floor + m, read off the from-scratch
    echelon, which shares no code with ``_Echelon``."""
    gb = module_groebner(system)
    sets = leader_profile(gb).sets
    window = max((stabilisation_level(es) for _, es in sets), default=0) + system.m
    margin = _echelon_margin(_Echelon(system, CELL_CAP), gb, window)
    leaders = [(rank_key((g.leader.exponents, g.leader.var_index)), g.order)
               for g in gb.equations if g.order <= window]
    first = from_scratch(system, window + margin)[1]
    assert all(x in first for x, _ in leaders)
    assert margin == max([first[x] - order for x, order in leaders] + [0])


@SETTINGS
@hypothesis.given(systems())
def test_echelon_margin_is_each_leaders_first_pivot_level(system):
    assert_margin_is_first_pivot_level(system)


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.sys")))
def test_echelon_margin_is_each_leaders_first_pivot_level_on_the_fixtures(name):
    assert_margin_is_first_pivot_level(load(name))
