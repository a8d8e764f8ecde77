import random
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from diffdim import lindiff
from diffdim.cli import main
from diffdim.diffrank import DifferentialMonomial, kolchin_from_leaders
from diffdim.errors import AmbientMismatch, DiffdimError, ResourceLimit
from diffdim.expsets import ExponentSet, stabilisation_level
from diffdim.lindiff import (
    DEFAULT_GB_STEP_CAP,
    LinearDiffSystem,
    LinearEquation,
    _Echelon,
    _echelon_margin,
    _groebner,
    _Keys,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    omega_at_least,
    omega_equals,
    parse_system,
    prolongation_dimension,
)
from diffdim.numpoly import NumericalPolynomial
from parsed import equation

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_system((DATA / name).read_text())


# every echelon these tests build holds at most 20,060 entries (probe4.sys,
# built three levels past its margin) and every margin search at most 5,696,
# so a wrong basis ends at this cap, not climbing towards the default 5 * 10^6
CELL_CAP = 10**5


def echelon_to(system, top, matrix_cell_cap=CELL_CAP):
    echelon = _Echelon(system, matrix_cell_cap)
    echelon.build(top)
    return echelon


# ---------------------------------------------------------------- parsing


def test_parse_heat_system():
    system = load("heat.sys")
    assert system.m == 2 and system.n == 1
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.leader == DifferentialMonomial((0, 2), 1)
    assert eq.order == 2


def test_parse_accepts_shorthand_and_fractions():
    system = parse_system("m = 2\nn = 1\neq: 1/2*d[1,0]x1 + x1\n")
    eq = system.equations[0]
    assert eq.terms[0][0] == Fraction(1, 2)
    assert eq.terms[1][1] == DifferentialMonomial((0, 0), 1)
    assert eq.terms[1][0] == Fraction(1)


def test_parse_keeps_the_row_primitive_over_the_lcm_of_its_denominators():
    # q = lcm(1, 3, 5) = 15 rescales the terms read before each new
    # denominator, and the content 2 of (60, 10, -18) goes once, at the end
    (eq,) = parse_system("m = 1\nn = 1\neq: 4*d[2]x1 + 2/3*d[1]x1 - 6/5*x1\n").equations
    assert sorted(eq._row.values()) == [-9, 5, 30] and eq._scale == (2, 15)
    assert [c for c, _ in eq.terms] == [Fraction(4), Fraction(2, 3), Fraction(-6, 5)]


def test_parse_bare_and_signed_monomials():
    system = parse_system("m = 1\nn = 2\neq: -d[1]x2 + 3*x1\n")
    eq = system.equations[0]
    assert eq.terms[0][0] == Fraction(-1)
    assert eq.terms[0][1] == DifferentialMonomial((1,), 2)


def test_a_later_equation_that_outgrows_the_layout_starts_the_parse_over():
    # orders 1 and 70 over m = 2: the first equation fits the 7-bit layout
    # of fitting(2, n), the second does not, so every row lands at width 8
    first = parse_system("m = 2\nn = 1\neq: d[0,1]x1\neq: d[70,0]x1 + x1\n").equations
    swapped = parse_system("m = 2\nn = 1\neq: d[70,0]x1 + x1\neq: d[0,1]x1\n").equations
    keys = _Keys.fitting(2, 70)
    assert keys.width == 8 and all(eq._keys is keys for eq in first + swapped)
    rows = [(eq._row, eq._scale) for eq in first]
    assert rows == [(eq._row, eq._scale) for eq in reversed(swapped)]


def test_a_parse_starts_over_at_double_width(monkeypatch):
    # orders 2^10 .. 2^109 over m = 1, one bit longer each: starting over at
    # each term's own width would read the line 100 times, at double width
    # it reads it 5 times (widths 10, 20, 40, 80, 160), then the row moves
    # to the 111 bits its order needs
    reads = []
    parse_equation = lindiff._parse_equation

    def counted(line, pos, lineno, keys, n):
        reads.append(keys.width)
        return parse_equation(line, pos, lineno, keys, n)

    monkeypatch.setattr(lindiff, "_parse_equation", counted)
    text = "m = 1\nn = 1\neq: " + " + ".join(f"d[{2**b}]x1" for b in range(10, 110)) + "\n"
    (eq,) = parse_system(text).equations
    assert reads == [10, 20, 40, 80, 160]
    assert eq._keys is _Keys.fitting(1, 2**109) and eq._keys.width == 111
    assert [mono.exponents for _, mono in eq.terms] == [(2**b,) for b in range(109, 9, -1)]


def test_the_monomial_lookup_is_bounded_and_keyed_by_layout():
    lookup = lindiff._term_key
    narrow, wide = _Keys.fitting(2, 1), _Keys.fitting(2, 70)
    assert narrow is not wide
    lookup.cache_clear()
    # one text under two layouts: two entries, each packed at its own layout
    assert lookup("1,2", "1", narrow) == (2, 1, 3, narrow.pack((1, 2), 1))
    assert lookup("1,2", "1", wide) == (2, 1, 3, wide.pack((1, 2), 1))
    assert lookup.cache_info().currsize == 2
    bound = lookup.cache_info().maxsize
    for i in range(bound + 10):
        lookup(f"{i},0", "1", narrow)
    assert lookup.cache_info().currsize == bound


def test_equation_sorted_by_descending_rank():
    eq = equation({((1, 0), 1): 1, ((0, 2), 1): 2, ((0, 0), 1): 3})
    ranks = [(mono.order, mono.var_index, mono.exponents) for _, mono in eq.terms]
    assert ranks == sorted(ranks, reverse=True)
    assert eq.leader.exponents == (0, 2)


# ---------------------------------------------------------------- groebner


def test_groebner_of_heat_is_itself():
    gb = module_groebner(load("heat.sys"))
    assert len(gb.equations) == 1
    eq = gb.equations[0]
    assert eq.terms[0][0] == 1  # monic
    assert eq.leader == DifferentialMonomial((0, 2), 1)


def test_groebner_cauchy_riemann_adds_laplacian():
    gb = module_groebner(load("cauchy_riemann.sys"))
    leaders = {(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations}
    assert leaders == {((2, 0), 1), ((1, 0), 2), ((0, 1), 2)}
    laplacian = [eq for eq in gb.equations if eq.leader.var_index == 1][0]
    assert {(mono.exponents, str(c)) for c, mono in laplacian.terms} == {
        ((2, 0), "1"),
        ((0, 2), "1"),
    }


def test_groebner_single_component_pair_needs_spair():
    # leaders d1 x1 and d2 x1 with cross terms in x2: the S-pair survives
    system = LinearDiffSystem(
        2,
        2,
        (
            equation({((1, 0), 1): 1, ((0, 0), 2): 1}),
            equation({((0, 1), 1): 1, ((0, 0), 2): 1}),
        ),
    )
    gb = module_groebner(system)
    leaders = {(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations}
    # d1 x2 - d2 x2 comes out of the pair (up to sign), with leader d1 x2
    assert ((1, 0), 2) in leaders


def test_groebner_is_reduced():
    gb = module_groebner(load("cauchy_riemann.sys"))
    leads = [(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations]
    for eq in gb.equations:
        assert eq.terms[0][0] == 1
        for _, mono in eq.terms[1:]:
            for lxi, lvar in leads:
                divisible = lvar == mono.var_index and all(
                    a <= b for a, b in zip(lxi, mono.exponents)
                )
                assert not divisible
    # leaders pairwise incomparable
    for i, (xi_a, var_a) in enumerate(leads):
        for j, (xi_b, var_b) in enumerate(leads):
            if i != j and var_a == var_b:
                assert not all(a <= b for a, b in zip(xi_a, xi_b))


def test_groebner_deterministic_under_input_order():
    text_a = "m = 2\nn = 2\neq: 1*d[0,1]x2 - 1*d[1,0]x1\neq: 1*d[1,0]x2 + 1*d[0,1]x1\n"
    text_b = "m = 2\nn = 2\neq: 1*d[1,0]x2 + 1*d[0,1]x1\neq: 1*d[0,1]x2 - 1*d[1,0]x1\n"
    assert module_groebner(parse_system(text_a)) == module_groebner(parse_system(text_b))


PINNED_BASES = {
    # system: (echelon margin, basis as "coefficient*exponents x unknown" lines)
    "cauchy_riemann.sys": (0, ["1*(2, 0)x1 1*(0, 2)x1", "1*(1, 0)x2 1*(0, 1)x1",
                               "1*(0, 1)x2 -1*(1, 0)x1"]),
    "free2.sys": (0, []),
    "heat.sys": (0, ["1*(0, 2)x1 -1*(1, 0)x1"]),
    "laplace.sys": (0, ["1*(2, 0)x1 1*(0, 2)x1"]),
    "many_unknowns.sys": (0, ["1*(1,)x1"]),
    "n300.sys": (0, ["1*(2,)x1 1*(0,)x300", "1*(1,)x300 1*(0,)x1"]),
    "ode2.sys": (0, ["1*(2,)x1"]),
    "staircase.sys": (0, ["1*(3, 0)x1", "1*(1, 1)x1", "1*(0, 2)x1", "1*(0, 1)x2"]),
    "wave.sys": (0, ["1*(2, 0)x1 -1*(0, 2)x1"]),
    "unit-ideal": (4, ["1*(0, 0)x1"]),
    "unit-x1": (1, ["1*(2, 0)x2 1*(0, 1)x2", "1*(1, 1)x2 1*(0, 0)x2",
                    "1*(0, 2)x2 -1*(1, 0)x2", "1*(0, 0)x1"]),
    "monomials-6": (0, [f"1*({i}, {5 - i})x1" for i in range(5, -1, -1)]),
    "monomials-n2": (0, ["1*(3, 0)x1", "1*(1, 2)x1", "1*(0, 1)x2"]),
    "monomials-binomial": (2, ["1*(0, 2)x1", "1*(1, 0)x1"]),
    "chain-pending-ac": (3, ["1*(0,)x1"]),
    "chain-pending-bc": (1, ["1*(0, 3)x1", "1*(2, 0)x1", "1*(1, 1)x1 -1*(0, 2)x1"]),
    "chain-pending-ac-m2": (7, ["1*(0, 0)x1"]),
    "join-64": (0, ["1*(63, 0)x2", "1*(62, 1)x2", "1*(0, 0)x1"]),
    "chain-skip-past-the-layout": (0, ["1*(40, 0)x1 1*(39, 0)x1", "1*(0, 40)x1 1*(0, 39)x1",
                                       "1*(1, 1)x1"]),
}
# the unit ideal, reached only two levels past the equations' order
UNIT_IDEAL = (
    "m = 2\nn = 1\n"
    "eq: -3*d[2,0]x1 - 6*d[1,0]x1 + 9*d[0,0]x1 - 2*d[0,1]x1\n"
    "eq: -6*d[0,2]x1 - 3*d[1,1]x1 + 7*d[0,0]x1 - 5*d[0,1]x1\n"
    "eq: -9*d[1,1]x1 + 3*d[2,0]x1 + 1*d[0,1]x1 - 3*d[0,0]x1\n"
)
# x1 is a leader from the start, and x2's S-pair adds d[0,2]x2 - d[1,0]x2
# after it: completion may stop only once every unknown is a leader
UNIT_X1 = "m = 2\nn = 2\neq: x1\neq: d[2,0]x2 + d[0,1]x2\neq: d[1,1]x2 + x2\n"
# six monomials of order 5: none of their 15 S-pairs is made
MONOMIALS_6 = "m = 2\nn = 1\n" + "".join(f"eq: d[{i},{5 - i}]x1\n" for i in range(6))
# d[2,2]x1 comes before d[1,2]x1, which divides it and comes again, and the
# one equation in x2 has a negative coefficient
MONOMIALS_N2 = (
    "m = 2\nn = 2\n"
    "eq: d[2,2]x1\neq: -3*d[0,1]x2\neq: d[1,2]x1\neq: d[3,0]x1\neq: d[1,2]x1\n"
)
# the pairs of the binomial with each monomial are still made.  The one
# with d[0,2]x1 (join d[1,2]x1) reaches d[1,0]x1, whose pair with the
# binomial reduces to zero, and the chain criterion skips the one with
# d[2,0]x1 (join d[2,1]x1).  d[1,0]x1 is a pivot only at level 3, two above
# its order: margin 2
MONOMIALS_BINOMIAL = "m = 2\nn = 1\neq: d[2,0]x1\neq: d[0,2]x1\neq: d[1,1]x1 + d[1,0]x1\n"
# the chain criterion skips a pair (a, b) for an element c whose leader
# divides the join only if neither (a, c) nor (b, c) is pending; each of the
# next two systems loses a basis element when one of the two conditions
# goes.  Without the (a, c) condition, the pair (d[3]x1 - 2*x1, d[2]x1) is
# skipped for d[1]x1 while (d[3]x1 - 2*x1, d[1]x1) waits; that pair is then
# skipped for d[2]x1, and x1 is never reached
CHAIN_PENDING_AC = "m = 1\nn = 1\neq: 2*d[0]x1 - d[3]x1\neq: -d[2]x1\neq: -d[1]x1\n"
# without the (b, c) condition, d[0,3]x1 drops out of the basis
CHAIN_PENDING_BC = (
    "m = 2\nn = 1\n"
    "eq: 3*d[2,0]x1 + 2*d[2,1]x1 - 2*d[0,3]x1\neq: 2*d[1,1]x1 - 2*d[0,2]x1\n"
)
# the unit module, reached after 4 S-pair reductions when the pairs are
# taken by the rank of their join and after 5 when they are taken by join
# order, then by pair index
CHAIN_PENDING_AC_M2 = (
    "m = 2\nn = 1\n"
    "eq: -9*d[3,0]x1 + d[1,0]x1\neq: -3*d[0,3]x1 - 8*d[2,0]x1\neq: d[1,2]x1 - 7*x1\n"
)
# the parse packs 7-bit fields, which hold orders up to 63, and the one
# S-pair joins at order 64: completion starts over at double width, and so
# does the route's echelon at level 64
JOIN_64 = "m = 2\nn = 2\neq: d[63,0]x2 + d[63,0]x1\neq: d[62,1]x2 + x1\neq: x1\n"
# the pair of the binomials joins at d[40,40]x1, order 80, past the 7-bit
# fields; d[1,1]x1 divides that join and its pairs with both binomials
# reduce to zero first, so the chain criterion skips the pair with no
# start over
CHAIN_SKIP_PAST_THE_LAYOUT = (
    "m = 2\nn = 1\neq: d[40,0]x1 + d[39,0]x1\neq: d[0,40]x1 + d[0,39]x1\neq: d[1,1]x1\n"
)
INLINE_SYSTEMS = {
    "unit-ideal": UNIT_IDEAL,
    "unit-x1": UNIT_X1,
    "monomials-6": MONOMIALS_6,
    "monomials-n2": MONOMIALS_N2,
    "monomials-binomial": MONOMIALS_BINOMIAL,
    "chain-pending-ac": CHAIN_PENDING_AC,
    "chain-pending-bc": CHAIN_PENDING_BC,
    "chain-pending-ac-m2": CHAIN_PENDING_AC_M2,
    "join-64": JOIN_64,
    "chain-skip-past-the-layout": CHAIN_SKIP_PAST_THE_LAYOUT,
}


def basis_lines(gb):
    return [
        " ".join(f"{c}*{mono.exponents}x{mono.var_index}" for c, mono in eq.terms)
        for eq in gb.equations
    ]


def route_window(gb):
    # floor + d + 1: the values the prolongation route reads and its guard
    profile = leader_profile(gb)
    floor = max((stabilisation_level(es) for _, es in profile.sets), default=0)
    return floor + kolchin_from_leaders(profile).differential_type() + 1


def certified_margin(system, matrix_cell_cap=CELL_CAP):
    # the margin the prolongation route reads off its echelon
    gb = module_groebner(system)
    return _echelon_margin(_Echelon(system, matrix_cell_cap), gb, route_window(gb))


def assert_pinned(system, gb, name):
    # the basis before the margin, whose search on a wrong basis runs to the cap
    margin, lines = PINNED_BASES[name]
    assert basis_lines(gb) == lines
    assert certified_margin(system) == margin


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_groebner_basis_and_certified_margin_pinned(name):
    system = parse_system(INLINE_SYSTEMS[name]) if name in INLINE_SYSTEMS else load(name)
    assert_pinned(system, _groebner(system), name)


def test_completion_stops_once_every_unknown_is_a_leader():
    # x1 is a leader after the third S-pair reduction; running the pairs
    # out takes four more, each ending in zero
    system = parse_system(UNIT_IDEAL)
    gb = _groebner(system, gb_step_cap=3)
    assert_pinned(system, gb, "unit-ideal")
    with pytest.raises(ResourceLimit, match=r"after 2 S-pair reductions"):
        _groebner(system, gb_step_cap=2)


def test_completion_makes_no_pair_of_two_monomials():
    # a system of monomials makes no pair at all: it is returned before the
    # pair loop, where the chain criterion alone would leave five of
    # MONOMIALS_6's 15 pairs to reduce
    system = parse_system(MONOMIALS_6)
    gb = _groebner(system, gb_step_cap=1)
    assert_pinned(system, gb, "monomials-6")
    # with a binomial in the system the pair loop runs, and it makes no pair
    # of two monomials either: 2 S-pair reductions.  Taken by join order,
    # then pair index, the pair with d[2,0]x1 comes first and reduces to
    # zero, a third.  The pair of the monomials d[2,0]x1 and d[1,0]x1 would
    # be a third too, were it made: the chain criterion does not skip it
    system = parse_system(MONOMIALS_BINOMIAL)
    gb = _groebner(system, gb_step_cap=2)
    assert_pinned(system, gb, "monomials-binomial")
    with pytest.raises(ResourceLimit, match=r"after 1 S-pair reductions"):
        _groebner(system, gb_step_cap=1)


def test_completion_takes_the_pair_of_least_join_rank_first():
    # once d[1,0]x1 is a leader, its pairs with d[3,0]x1 and d[1,2]x1 both
    # have joins of order 3.  The rank takes the join d[1,2]x1 first and
    # reaches x1 after 4 reductions; join order, then pair index takes the
    # one with d[3,0]x1 first and needs 5
    system = parse_system(CHAIN_PENDING_AC_M2)
    gb = _groebner(system, gb_step_cap=4)
    assert basis_lines(gb) == PINNED_BASES["chain-pending-ac-m2"][1]
    with pytest.raises(ResourceLimit, match=r"after 3 S-pair reductions"):
        _groebner(system, gb_step_cap=3)


def test_chain_criterion_skips_a_join_past_the_layout_without_starting_over():
    # two reductions, both at the parse's 7-bit layout.  A chain test that
    # read the join's order field as a guard would not skip the pair: it
    # would stop at this cap, and under a larger one start over at 14 bits
    system = parse_system(CHAIN_SKIP_PAST_THE_LAYOUT)
    gb = _groebner(system, gb_step_cap=2)
    assert_pinned(system, gb, "chain-skip-past-the-layout")
    assert {eq._keys.width for eq in gb.equations} == {7}
    with pytest.raises(ResourceLimit, match=r"after 1 S-pair reductions"):
        _groebner(system, gb_step_cap=1)


# x2 is a leader once the second equation is top-reduced, and x1 after the
# one S-pair
TWO_UNITS = "m = 1\nn = 2\neq: d[1]x2 + x2 - x1\neq: d[1]x2 + 2*x2 - x1\n"


def test_completion_makes_no_pair_it_will_never_pop(monkeypatch):
    # every pair of the first five elements is made; the sixth, x1, makes
    # every x_u a leader and ends the loop, so its five pairs are not
    made = []
    push = lindiff.heappush

    def spy(heap, item):
        if isinstance(item, tuple):  # an S-pair, not a normal form's key
            made.append(item[1:])
        push(heap, item)

    monkeypatch.setattr(lindiff, "heappush", spy)
    gb = _groebner(parse_system(UNIT_IDEAL))
    assert basis_lines(gb) == PINNED_BASES["unit-ideal"][1]
    assert sorted(made) == [(a, b) for a in range(5) for b in range(a + 1, 5)]


@pytest.mark.parametrize("text", [UNIT_IDEAL, TWO_UNITS])
def test_completion_returns_the_unit_basis_at_the_unit_stop(monkeypatch, text):
    # once every x_u is a leader the reduced basis is x_1..x_n, so no
    # survivor is tail-reduced
    tails = []
    normal_form = lindiff._normal_form

    def spy(row, index, keys, tail):
        tails.append(tail)
        return normal_form(row, index, keys, tail)

    monkeypatch.setattr(lindiff, "_normal_form", spy)
    system = parse_system(text)
    unit = (0,) * system.m
    assert basis_lines(_groebner(system)) == [f"1*{unit}x{u}" for u in range(system.n, 0, -1)]
    assert tails and not any(tails)


@pytest.mark.parametrize("name", ["monomials-6", "monomials-n2", "free2.sys"])
def test_completion_of_monomials_makes_no_reduction(monkeypatch, name):
    # a system of monomials is its own basis: its minimal monomials are
    # returned with no normal form, elimination step or S-pair
    calls = []

    def recorded(function):
        real = getattr(lindiff, function)
        return lambda *args: calls.append(function) or real(*args)

    for function in ("_normal_form", "_eliminate", "heappush"):
        monkeypatch.setattr(lindiff, function, recorded(function))
    system = parse_system(INLINE_SYSTEMS[name]) if name in INLINE_SYSTEMS else load(name)
    assert basis_lines(_groebner(system)) == PINNED_BASES[name][1]
    assert calls == []


def _margin_systems():
    """The fixtures, the unit ideal and seeded random systems with m <= 3,
    n <= 2 and order <= 3."""
    for path in sorted(DATA.glob("*.sys")):
        yield path.name, parse_system(path.read_text())
    for name, text in INLINE_SYSTEMS.items():
        yield name, parse_system(text)
    rng = random.Random(1618)
    for k in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
        eqs = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                (rng.choice(vectors), rng.randint(1, n)): Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)
                )
                for _ in range(rng.randint(1, 4))
            }
            eqs.append(equation(terms))
        yield f"random-{k}", LinearDiffSystem(m, n, tuple(eqs))


@pytest.mark.parametrize(
    "system", [pytest.param(system, id=name) for name, system in _margin_systems()]
)
def test_certified_margin_counts_as_margin_plus_three(system):
    # the margin max(L(x) - ord x) is meant to be exact: three more levels
    # of prolongation must not find a single further pivot of order <= s
    margin = certified_margin(system)
    top = route_window(module_groebner(system))
    pivots = echelon_to(system, top + margin + 3).orders

    def low(level, s):  # pivots of order <= s after level
        return sum(at <= level and order <= s for at, order in pivots)

    for s in range(top + 1):
        assert low(s + margin, s) == low(s + margin + 3, s), s


def test_unit_ideal_margin_is_tight():
    # x1 is reached only at level 4, so margin 3 still leaves it free at s = 0
    system = parse_system(UNIT_IDEAL)
    assert prolongation_dimension(system, 0, 3) == 1
    assert prolongation_dimension(system, 0, 4) == 0


def test_route_stops_once_every_unit_is_a_pivot(monkeypatch):
    # x1 is first a pivot at level 4, where the margin search ends: the
    # route answers 0 there and builds no level top + margin = 5
    levels = []
    grow = _Echelon.grow

    def recorded(echelon):
        grow(echelon)
        levels.append(echelon.level)

    monkeypatch.setattr(_Echelon, "grow", recorded)
    assert kolchin_via_prolongation(parse_system(UNIT_IDEAL)) == NumericalPolynomial.zero(2)
    assert levels == [2, 3, 4]
    # the stop reads no margin, so one understated by one, which the
    # self-check would refuse, changes nothing
    margin = lindiff._echelon_margin
    monkeypatch.setattr(lindiff, "_echelon_margin", lambda *args: margin(*args) - 1)
    assert kolchin_via_prolongation(parse_system(UNIT_IDEAL)) == NumericalPolynomial.zero(2)


# UNIT_X1 with x1 and x2 swapped: x2 is a unit, x1 is not
UNIT_X2 = "m = 2\nn = 2\neq: x2\neq: d[2,0]x1 + d[0,1]x1\neq: d[1,1]x1 + x1\n"


@pytest.mark.parametrize("text", [UNIT_X1, UNIT_X2], ids=["unit-x1", "unit-x2"])
def test_route_does_not_stop_while_some_unit_is_free(text):
    # one x_u a pivot is not the whole module: the route must stop only
    # once every x_u is one, and test each u, not just the first or last
    system = parse_system(text)
    omega = NumericalPolynomial.from_coeffs((0, 0, 3))
    assert kolchin_via_prolongation(system) == omega == kolchin_polynomial(system)


# instance 128 of the groebner-random benchmark workload at seed 1
MARGIN_SIX = """m = 2
n = 2
eq: 4*d[1,1]x2 + 2*d[2,0]x1 + 2*d[1,0]x1 + 2*d[0,0]x1
eq: 6*d[0,2]x2 - 1*d[0,1]x2 - 3*d[0,0]x2 + 7*d[1,0]x1
eq: -8*d[2,0]x1 - 2*d[0,1]x1 + 9*d[1,0]x2 + 7*d[0,2]x1
eq: 6*d[2,0]x2 - 5*d[1,1]x1 + 3*d[1,0]x2 - 8*d[0,1]x1
"""


def test_self_check_reads_pivots_below_the_window(monkeypatch):
    # floor = 1; at margin 5 the pivot of order 0 made at level 6 breaks the
    # claim at s = 0, below the window [1, 3].  Every window value counts it
    # by level t + 5, so comparing margin with margin + 1 there saw nothing
    # and returned the right polynomial on a false claim
    system = parse_system(MARGIN_SIX)
    assert certified_margin(system) == 6
    assert kolchin_via_prolongation(system) == NumericalPolynomial.from_coeffs((0, 0, 2))
    margin = lindiff._echelon_margin
    monkeypatch.setattr(lindiff, "_echelon_margin", lambda *args: margin(*args) - 1)
    with pytest.raises(DiffdimError, match="pivot of order 0 at level 6, more than margin 5"):
        kolchin_via_prolongation(parse_system(MARGIN_SIX))


def test_understated_margin_fails_the_self_check(monkeypatch, tmp_path, capsys):
    # a whole module stops before the self-check, so the mistake is made on
    # a system whose values the route must count
    system = parse_system(MARGIN_SIX)
    assert certified_margin(system) == 6
    margin = lindiff._echelon_margin
    monkeypatch.setattr(lindiff, "_echelon_margin", lambda *args: margin(*args) - 1)
    with pytest.raises(DiffdimError, match="pivot of order 0 at level 6, more than margin 5"):
        kolchin_via_prolongation(system)
    path = tmp_path / "margin6.sys"
    path.write_text(MARGIN_SIX)
    assert main(["kolchin", "--system", str(path), "--check"]) == 1
    assert "self-check" in capsys.readouterr().err


# floor 1, type 1, margin 0: the route reads the values at 1 and 2 and
# guards with the value at 3
FLOOR_ONE = "m = 2\nn = 1\neq: d[0,3]x1 + x1\n"


def test_floor_read_too_low_fails_the_guard(monkeypatch, tmp_path, capsys):
    # with floor 0 the route interpolates the values 1 and 3 at 0 and 1 to
    # 2s + 1, and the value 6 at 2 leaves it.  No pivot lies below level 3,
    # so the per-pivot check has nothing to say and only the guard catches it
    system = parse_system(FLOOR_ONE)
    assert kolchin_via_prolongation(system) == NumericalPolynomial.from_coeffs((0, 3, -3))
    floor = lindiff.stabilisation_level
    monkeypatch.setattr(lindiff, "stabilisation_level", lambda es: floor(es) - 1)
    with pytest.raises(DiffdimError, match="value at 2 is 6, not 5"):
        kolchin_via_prolongation(parse_system(FLOOR_ONE))
    path = tmp_path / "floor1.sys"
    path.write_text(FLOOR_ONE)
    assert main(["kolchin", "--system", str(path), "--check"]) == 1
    assert "value at 2 is 6, not 5" in capsys.readouterr().err


def test_type_read_too_low_fails_the_guard(monkeypatch):
    # heat.sys counts 2s + 1 from floor 0; read as type 0, the one value 1 at
    # 0 is taken for the constant 1, and the value 3 at 1 leaves it
    typed = NumericalPolynomial.differential_type
    monkeypatch.setattr(NumericalPolynomial, "differential_type", lambda p: typed(p) - 1)
    with pytest.raises(DiffdimError, match="value at 1 is 3, not 1"):
        kolchin_via_prolongation(load("heat.sys"))


# instance 23 of the check-random benchmark workload at seed 1
ONE_PAST_THE_WINDOW = """m = 3
n = 1
eq: 9*d[1,1,0]x1 + 7*d[0,2,0]x1 - 7*d[0,0,1]x1 + 5*d[0,0,0]x1
eq: -8*d[0,1,1]x1 + 6*d[0,0,0]x1 - 1*d[0,2,0]x1 - 6*d[0,1,0]x1
"""


def test_margin_reaches_one_level_past_the_window():
    # floor = 0 and d = 1: the window is [0, 1] and the guard reads s = 2.
    # The basis leader d[0,1,1]x1 has order 2 and is first a pivot at level
    # 3, so a margin searched only to floor + d is 0, not 1; built to level
    # 2, the value at s = 2 counts 8 where the polynomial has 7, and the
    # guard raises on the right answer
    system = parse_system(ONE_PAST_THE_WINDOW)
    gb = module_groebner(system)
    assert [_echelon_margin(_Echelon(system, CELL_CAP), gb, top)
            for top in (1, 2)] == [0, 1]
    omega = NumericalPolynomial.from_coeffs((0, 0, 3, -2))
    assert kolchin_via_prolongation(system) == omega == kolchin_polynomial(system)


# the unit module, for which completion's own levels gave margin 6
UNIT_MARGIN_FIVE = (
    "m = 2\nn = 1\neq: -2*d[1,2]x1\neq: 6*d[2,1]x1 - 7*d[1,0]x1 + 9*d[0,3]x1\n"
    "eq: -9*d[3,0]x1 + 2*d[1,1]x1\neq: 6*d[2,1]x1 - 7*d[1,0]x1 + 8*d[0,2]x1 + 1*d[0,0]x1\n"
)


def test_echelon_margin_is_the_least_level_that_holds_the_basis():
    # x1 is first a pivot at level 5, so margin 5 is exact: at margin 4 x1
    # is still free at s = 0
    system = parse_system(UNIT_MARGIN_FIVE)
    assert certified_margin(system) == 5
    assert prolongation_dimension(system, 0, 4) == 1
    assert prolongation_dimension(system, 0, 5) == 0
    assert kolchin_via_prolongation(system) == kolchin_polynomial(system)


def test_an_element_outside_the_module_ends_at_the_cell_cap(monkeypatch):
    # no element of the module heat.sys generates has leader x1, so x1 is
    # never a pivot and the margin search climbs, at least one pivot row a
    # level, until the entries held pass the cap: under the entries of
    # levels up to 14, the first pivot row of level 15 is refused
    system = load("heat.sys")
    below = echelon_to(system, 14)
    spurious = parse_system("m = 2\nn = 1\neq: x1\n").equations
    basis = LinearDiffSystem(2, 1, module_groebner(system).equations + spurious)
    monkeypatch.setattr(lindiff, "module_groebner", lambda _system, _cap: basis)
    with pytest.raises(
        ResourceLimit,
        match=rf"at level 15: pivot row {len(below.pivots) + 1} would bring the entries held "
        rf"to \d+ \(cap {below.held}\)",
    ):
        kolchin_via_prolongation(system, matrix_cell_cap=below.held)


def test_the_input_equations_as_a_basis_fail_the_self_check(monkeypatch, tmp_path, capsys):
    # each equation's leader is a pivot at the level of the equation's own
    # row, its order, so the margin is 0; yet x1 is a pivot made at level 4
    monkeypatch.setattr(
        lindiff, "module_groebner", lambda system, _cap: LinearDiffSystem(2, 1, system.equations)
    )
    with pytest.raises(DiffdimError, match="more than margin 0 above its order"):
        kolchin_via_prolongation(parse_system(UNIT_IDEAL))
    path = tmp_path / "unit.sys"
    path.write_text(UNIT_IDEAL)
    assert main(["kolchin", "--system", str(path), "--check"]) == 1
    assert "self-check" in capsys.readouterr().err


def test_probe4_both_routes_agree():
    # m = n = 3, four equations of order 3: completion in FIFO pair order
    # ran past 60 s of CPU here
    system = load("probe4.sys")
    expected = NumericalPolynomial.from_coeffs((0, 0, 53, -206))
    assert kolchin_polynomial(system) == expected
    assert kolchin_via_prolongation(system) == expected


@pytest.mark.parametrize("cap", [1, 5])
def test_groebner_step_cap_names_reductions_and_basis(cap):
    with pytest.raises(
        ResourceLimit, match=rf"after {cap} S-pair reductions with \d+ basis elements \(cap {cap}\)"
    ):
        _groebner(load("probe4.sys"), gb_step_cap=cap)


HEAT_OMEGA = NumericalPolynomial.from_coeffs((0, 2, -1))
COMPLETION_ENTRIES = {
    "_groebner": _groebner,
    "module_groebner": module_groebner,
    "kolchin_polynomial": kolchin_polynomial,
    "kolchin_via_prolongation": kolchin_via_prolongation,
    "omega_at_least": lambda system, **cap: omega_at_least(system, HEAT_OMEGA, **cap),
    "omega_equals": lambda system, **cap: omega_equals(system, HEAT_OMEGA, **cap),
}


@pytest.mark.parametrize("entry", sorted(COMPLETION_ENTRIES))
def test_completion_entries_take_the_step_cap(entry):
    heat = load("heat.sys")
    assert COMPLETION_ENTRIES[entry](heat, gb_step_cap=DEFAULT_GB_STEP_CAP)
    with pytest.raises(ResourceLimit, match="S-pair reductions"):
        COMPLETION_ENTRIES[entry](load("probe4.sys"), gb_step_cap=1)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
@pytest.mark.parametrize("entry", sorted(COMPLETION_ENTRIES))
def test_completion_entries_reject_step_cap_that_is_not_positive_int(entry, cap):
    with pytest.raises(ValueError, match="gb_step_cap"):
        COMPLETION_ENTRIES[entry](load("heat.sys"), gb_step_cap=cap)


def test_kolchin_polynomial_completes_through_module_groebner(monkeypatch):
    # the Groebner route's completion is the public one, so a trace of
    # module_groebner sees every completion that route makes
    completions = []
    complete = lindiff.module_groebner

    def counted(system, gb_step_cap):
        completions.append(system)
        return complete(system, gb_step_cap)

    monkeypatch.setattr(lindiff, "module_groebner", counted)
    assert kolchin_polynomial(load("heat.sys")) == HEAT_OMEGA
    assert len(completions) == 1


def test_one_completion_serves_every_route_on_one_system(monkeypatch):
    completions = []
    complete = lindiff._groebner

    def counted(system, gb_step_cap):
        completions.append(system)
        return complete(system, gb_step_cap)

    monkeypatch.setattr(lindiff, "_groebner", counted)
    system = load("heat.sys")
    assert len(module_groebner(system).equations) == 1
    assert kolchin_polynomial(system) == HEAT_OMEGA
    assert kolchin_via_prolongation(system) == HEAT_OMEGA
    assert omega_at_least(system, HEAT_OMEGA) and omega_equals(system, HEAT_OMEGA)
    assert completions == [system]
    # a fresh parse of the same text is another object, completed again
    assert kolchin_via_prolongation(load("heat.sys")) == HEAT_OMEGA
    assert len(completions) == 2


def test_a_completed_system_equals_a_fresh_parse():
    system = load("cauchy_riemann.sys")
    kolchin_polynomial(system)
    fresh = load("cauchy_riemann.sys")
    assert repr(system) == repr(fresh)
    assert system == fresh
    assert hash(system) == hash(fresh)
    # an equation equals only an equation, not its own terms
    assert system.equations[0] != system.equations[0].terms


def test_completed_system_still_checks_the_cap():
    system = load("heat.sys")
    kolchin_polynomial(system)
    with pytest.raises(ValueError, match="gb_step_cap"):
        kolchin_polynomial(system, gb_step_cap=1.5e9)


def test_completed_system_recompletes_under_a_smaller_cap():
    # the unit ideal takes 3 S-pair reductions: a completion stored under
    # cap 3 is no answer under cap 2, and is the answer under the default
    system = parse_system(UNIT_IDEAL)
    gb = module_groebner(system, 3)
    assert basis_lines(gb) == PINNED_BASES["unit-ideal"][1]
    with pytest.raises(ResourceLimit, match=r"after 2 S-pair reductions"):
        module_groebner(system, 2)
    gb = module_groebner(system, DEFAULT_GB_STEP_CAP)
    assert_pinned(system, gb, "unit-ideal")


def test_parse_completion_and_echelon_share_one_layout(monkeypatch):
    # m = 2 and a top below 64: one 7-bit layout object from parse to
    # echelon, so every row moves between them as it is
    system = load("cauchy_riemann.sys")
    keys = system.equations[0]._keys
    assert keys is _Keys.fitting(2, 63)
    assert all(eq._keys is keys for eq in module_groebner(system).equations)
    layouts = []
    repack = lindiff._repack

    def recorded(row, source, target):
        layouts.append((source, target))
        return repack(row, source, target)

    monkeypatch.setattr(lindiff, "_repack", recorded)
    kolchin_via_prolongation(system)
    assert layouts and all(source is target is keys for source, target in layouts)


def test_one_leader_profile_per_leader_set(monkeypatch):
    lindiff._shared_profile.cache_clear()
    built = []
    exponent_set = lindiff.ExponentSet

    def counted(m, generators):
        built.append(generators)
        return exponent_set(m, generators)

    monkeypatch.setattr(lindiff, "ExponentSet", counted)
    system = load("cauchy_riemann.sys")
    assert kolchin_polynomial(system) == kolchin_via_prolongation(system)
    # a fresh parse completes to another basis object with the same leaders,
    # so both routes on it read the profile already built
    again = load("cauchy_riemann.sys")
    assert kolchin_polynomial(again) == kolchin_via_prolongation(again)
    assert len(built) == system.n
    assert leader_profile(module_groebner(again)) is leader_profile(module_groebner(system))


def test_a_shared_profile_reads_each_leader_at_its_own_layout_and_shape():
    # orders 1 and 64 over m = 2 parse at widths 7 and 8, and one basis may
    # hold rows of both: each packed leader unpacks at its own layout
    low = parse_system("m = 2\nn = 2\neq: d[0,1]x1 + x2\n").equations
    high = parse_system("m = 2\nn = 2\neq: d[64,0]x2 + d[0,1]x1\n").equations
    assert (low[0]._keys.width, high[0]._keys.width) == (7, 8)
    system = LinearDiffSystem(2, 2, low + high)
    want = tuple(
        ExponentSet(2, tuple(eq.leader.exponents for eq in system.equations if eq.leader.var_index == u))
        for u in (1, 2)
    )
    assert want == (ExponentSet(2, ((0, 1),)), ExponentSet(2, ((64, 0),)))
    assert leader_profile(system).variable_sets == want
    # the same leaders over three unknowns get their own profile, of three sets
    wider = leader_profile(LinearDiffSystem(2, 3, low + high))
    assert wider.variable_sets == want + (ExponentSet(2, ()),)


def test_groebner_handles_redundant_equations():
    system = parse_system(
        "m = 2\nn = 1\n"
        "eq: 1*d[1,0]x1 - 1*d[0,2]x1\n"
        "eq: 2*d[1,0]x1 - 2*d[0,2]x1\n"
        "eq: 1*d[2,0]x1 - 1*d[1,2]x1\n"  # a derivative of the first
    )
    gb = module_groebner(system)
    assert len(gb.equations) == 1


def _random_one_unknown_systems(seed, count):
    """Systems in one unknown over m = 2 and 3 of order <= 3; about a third
    of the coefficients are fractions."""
    rng = random.Random(seed)
    for k in range(count):
        m = 2 + k % 2
        vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
        eqs = []
        for _ in range(rng.randint(2, 3)):
            terms = {
                (rng.choice(vectors), 1): Fraction(
                    rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 1, 2, 3])
                )
                for _ in range(rng.randint(2, 4))
            }
            eqs.append(equation(terms))
        yield LinearDiffSystem(m, 1, tuple(eqs))


def test_groebner_leaders_match_sympy():
    # one unknown: the operator ring is Q[d1..dm] and the orderly ranking is
    # grlex with d1 > d2 > ..., so sympy's reduced basis has the same leaders
    sympy = pytest.importorskip("sympy")
    fixtures = [load(name) for name in ("heat.sys", "laplace.sys", "ode2.sys", "wave.sys")]
    for system in fixtures + list(_random_one_unknown_systems(31, 40)):
        gens = sympy.symbols(f"d1:{system.m + 1}")
        polys = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g**e for g, e in zip(gens, mono.exponents)])
                for c, mono in eq.terms
            )
            for eq in system.equations
        ]
        expected = sorted(
            p.monoms(order="grlex")[0]
            for p in sympy.groebner(polys, *gens, order="grlex").polys
        )
        leaders = sorted(eq.leader.exponents for eq in module_groebner(system).equations)
        assert leaders == expected, system


# -------------------------------------------------------------- pipelines


CORPUS_EXPECTED = {
    "heat.sys": (0, 2, -1),
    "wave.sys": (0, 2, -1),
    "laplace.sys": (0, 2, -1),
    "cauchy_riemann.sys": (0, 2, 0),
    "ode2.sys": (0, 2),
    "free2.sys": (2, 0),
    "staircase.sys": (0, 1, 4),
    "join-64": (0, 62, -1890),
}


@pytest.mark.parametrize("name,expected", sorted(CORPUS_EXPECTED.items()))
def test_corpus_kolchin_both_routes(name, expected):
    system = parse_system(INLINE_SYSTEMS[name]) if name in INLINE_SYSTEMS else load(name)
    assert kolchin_polynomial(system).standard_coeffs == expected
    assert kolchin_via_prolongation(system) == NumericalPolynomial.from_coeffs(expected)


def test_prolongation_dimension_heat_counts():
    system = load("heat.sys")
    # at level s the surviving derivatives are the pure space column plus
    # one mixed stick: 2s+1 of them once s >= 0 and margin catches all rows
    assert prolongation_dimension(system, 2, 0) == 5
    assert prolongation_dimension(system, 2, 2) == 5
    assert prolongation_dimension(system, 0, 0) == 1
    assert prolongation_dimension(system, 0, 2) == 1


def test_prolongation_dimension_free_system():
    system = load("free2.sys")
    for s in range(4):
        assert prolongation_dimension(system, s, 0) == 2 * (s + 1)
    # no equation, so no level is built, however high
    assert prolongation_dimension(system, 10**9, 0) == 2 * (10**9 + 1)


def test_prolongation_dimension_monotone_in_margin():
    system = load("cauchy_riemann.sys")
    for s in range(4):
        dims = [prolongation_dimension(system, s, mg) for mg in range(4)]
        assert dims == sorted(dims, reverse=True)


def test_prolongation_respects_cell_cap():
    system = load("heat.sys")
    with pytest.raises(ResourceLimit):
        prolongation_dimension(system, 30, 0, matrix_cell_cap=100)


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.sys")))
def test_echelon_cap_counts_the_entries_held(name):
    # the cap is met exactly by the entries of the pivot rows up to level
    # top, and a cap one short stops at the last pivot row, made at top
    system, top = load(name), 4
    echelon = echelon_to(system, top)
    held = sum(map(len, echelon.pivots.values()))
    assert echelon.held == held
    if not system.equations:
        # no first level: nothing is built at any level, under any cap
        assert held == 0 and echelon_to(system, 10**9, 1).orders == []
        return
    assert echelon_to(system, top, held).orders == echelon.orders
    with pytest.raises(
        ResourceLimit,
        match=rf"at level {top}: pivot row {len(echelon.pivots)} would bring the entries held "
        rf"to {held} \(cap {held - 1}\)",
    ):
        echelon_to(system, top, held - 1)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
def test_prolongation_dimension_rejects_cap_that_is_not_positive_int(cap):
    with pytest.raises(ValueError, match="matrix_cell_cap"):
        prolongation_dimension(load("heat.sys"), 2, 0, matrix_cell_cap=cap)


@pytest.mark.parametrize("s, margin", [(-1, 0), (0, -1)])
def test_prolongation_dimension_refuses_a_negative_level_or_margin(s, margin):
    with pytest.raises(ValueError, match="level and margin must be non-negative"):
        prolongation_dimension(load("heat.sys"), s, margin)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
def test_kolchin_via_prolongation_rejects_cap_that_is_not_positive_int(cap):
    with pytest.raises(ValueError, match="matrix_cell_cap"):
        kolchin_via_prolongation(load("heat.sys"), matrix_cell_cap=cap)


def _dense_prolongation(system, level):
    """Columns and Fraction rows of the prolongation matrix up to ``level``.
    The columns are those of the unknowns the equations involve: another
    unknown's column is zero in every row and adds nothing to a rank."""
    vectors = [xi for xi in product(range(level + 1), repeat=system.m) if sum(xi) <= level]
    unknowns = sorted({mono.var_index for eq in system.equations for _, mono in eq.terms})
    columns = [(xi, i) for xi in vectors for i in unknowns]
    index = {col: k for k, col in enumerate(columns)}
    matrix = []
    for eq in system.equations:
        for theta in vectors:
            if sum(theta) + eq.order > level:
                continue
            row = [Fraction(0)] * len(columns)
            for c, mono in eq.terms:
                shifted = tuple(a + b for a, b in zip(mono.exponents, theta))
                row[index[(shifted, mono.var_index)]] = c
            matrix.append(row)
    return columns, matrix


def _rank(matrix):
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_systems():
    for path in sorted(DATA.glob("*.sys")):
        yield path.name, parse_system(path.read_text())
    rng = random.Random(2718)
    for k in range(8):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                xi = tuple(rng.randint(0, 2) for _ in range(m))
                if sum(xi) <= 2:
                    coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                    terms[(xi, rng.randint(1, n))] = coeff
            if terms:
                eqs.append(equation(terms))
        yield f"random-{k}", LinearDiffSystem(m, n, tuple(eqs))


@pytest.mark.parametrize(
    "system", [pytest.param(system, id=name) for name, system in _oracle_systems()]
)
def test_prolongation_dimension_matches_dense_rank(system):
    # dim(s, margin) = n*C(m+s, m) - rank(M) + rank(M restricted to order > s)
    m, n = system.m, system.n
    for level in range(5):
        columns, matrix = _dense_prolongation(system, level)
        full = _rank(matrix)
        for s in range(level + 1):
            high = [k for k, (xi, _) in enumerate(columns) if sum(xi) > s]
            high_rank = _rank([[row[k] for k in high] for row in matrix])
            expected = n * comb(m + s, m) - full + high_rank
            assert prolongation_dimension(system, s, level - s) == expected, (s, level)


def test_adding_equations_cannot_raise_dimension():
    base = parse_system("m = 2\nn = 1\neq: 1*d[1,0]x1 - 1*d[0,2]x1\n")
    richer = parse_system(
        "m = 2\nn = 1\neq: 1*d[1,0]x1 - 1*d[0,2]x1\neq: 1*d[2,0]x1\n"
    )
    for s in range(4):
        assert prolongation_dimension(richer, s, 2) <= prolongation_dimension(
            base, s, 2
        )


def test_regularity_window_on_ode():
    system = load("ode2.sys")
    omega = kolchin_polynomial(system)
    for s in range(1, 7):
        assert omega.evaluate(s) == prolongation_dimension(system, s, 2)


def test_omega_predicates():
    heat = load("heat.sys")
    assert omega_equals(heat, NumericalPolynomial.from_coeffs((0, 2, -1)))
    assert not omega_equals(heat, NumericalPolynomial.from_coeffs((0, 2, 0)))
    assert omega_at_least(heat, NumericalPolynomial.from_coeffs((0, 2, -1)))
    assert omega_at_least(heat, NumericalPolynomial.from_coeffs((0, 1, 5)))
    assert not omega_at_least(heat, NumericalPolynomial.from_coeffs((1, 0, 0)))


def test_kolchin_counts_lattice_for_free_system():
    system = parse_system("m = 3\nn = 1\n")
    omega = kolchin_polynomial(system)
    for s in range(5):
        assert omega.evaluate(s) == comb(s + 3, 3)


def test_system_validation():
    with pytest.raises(ValueError):
        LinearDiffSystem(0, 1, ())
    with pytest.raises(ValueError):
        LinearDiffSystem(1, 1, (equation({((1,), 2): 1}),))  # unknown index past n
    with pytest.raises(ValueError):
        LinearEquation({}, (1, 1), _Keys.fitting(1, 1))


def test_system_rejects_an_equation_over_another_m():
    # equations from separate parses meet only here: one parsed over m = 2
    # cannot join a system over m = 1, though its unknown fits
    with pytest.raises(AmbientMismatch):
        LinearDiffSystem(1, 1, (equation({((1, 0), 1): 1}),))
