"""Property tests: the reduced Groebner basis depends only on the submodule
the equations generate, not on how the equations are written down, and it
matches a textbook Buchberger; a system of monomials is its own basis; one
elimination step is the fraction-free combination it names."""

from fractions import Fraction
from itertools import product
from math import gcd
from operator import le

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.diffrank import LeaderProfile, rank_key  # noqa: E402
from diffdim.expsets import ExponentSet  # noqa: E402
from diffdim.lindiff import (  # noqa: E402
    LinearDiffSystem,
    _eliminate,
    _groebner,
    _Keys,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    parse_system,
)
from parsed import equation  # noqa: E402
from test_lindiff import JOIN_64  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=30, deadline=None)

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
coefficients = st.fractions(-6, 6, max_denominator=3).filter(bool)
equations = st.dictionaries(
    st.tuples(exponents, st.integers(1, 2)), coefficients, min_size=1, max_size=4
).map(equation)
systems = st.lists(equations, min_size=1, max_size=3).map(
    lambda eqs: LinearDiffSystem(2, 2, tuple(eqs))
)


def with_equations(system, eqs):
    return LinearDiffSystem(system.m, system.n, tuple(eqs))


@SETTINGS
@hypothesis.given(systems, st.randoms(use_true_random=False))
def test_groebner_unchanged_by_permuting_equations(system, rng):
    eqs = list(system.equations)
    rng.shuffle(eqs)
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


@SETTINGS
@hypothesis.given(systems, st.data())
def test_groebner_unchanged_by_scaling_an_equation(system, data):
    k = data.draw(st.integers(0, len(system.equations) - 1))
    factor = data.draw(coefficients)
    eqs = list(system.equations)
    eqs[k] = equation({(mono.exponents, mono.var_index): factor * c for c, mono in eqs[k].terms})
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


@SETTINGS
@hypothesis.given(systems, st.data())
def test_groebner_unchanged_by_appending_derived_equation(system, data):
    # theta * e_i + c * e_j lies in the submodule already
    count = len(system.equations)
    i, j = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
    theta, c = data.draw(exponents), data.draw(st.fractions(-6, 6, max_denominator=3))
    derived: dict = {}
    for scale, shift, eq in ((Fraction(1), theta, system.equations[i]),
                             (c, (0, 0), system.equations[j])):
        for coeff, mono in eq.terms:
            key = (tuple(a + b for a, b in zip(mono.exponents, shift)), mono.var_index)
            derived[key] = derived.get(key, 0) + scale * coeff
    derived = {key: v for key, v in derived.items() if v}
    hypothesis.assume(derived)
    eqs = system.equations + (equation(derived),)
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


# ------------------------------------------------------------------ oracle
# Textbook Buchberger over Fraction dicts keyed (exponents, unknown): FIFO
# pairs, no criterion, nothing shared with lindiff.


def _lead(f):
    return max(f, key=rank_key)


def _add_multiple(f, g, theta, c):
    """f + c * theta * g."""
    h = dict(f)
    for (xi, i), v in g.items():
        key = (tuple(a + b for a, b in zip(xi, theta)), i)
        h[key] = h.get(key, 0) + c * v
        if not h[key]:
            del h[key]
    return h


def _reducer(t, basis):
    for g in basis:
        gx, gi = _lead(g)
        if gi == t[1] and all(a <= b for a, b in zip(gx, t[0])):
            return g, tuple(b - a for a, b in zip(gx, t[0]))
    return None


def _reduce(f, basis):
    f, done = dict(f), {}
    while f:
        t = _lead(f)
        hit = _reducer(t, basis)
        if hit is None:
            done[t] = f.pop(t)
        else:
            g, theta = hit
            f = _add_multiple(f, g, theta, -f[t] / g[_lead(g)])
    return done


def oracle_basis(system):
    """The monic reduced basis, as a set of frozen term dicts."""
    basis = [{(mono.exponents, mono.var_index): c for c, mono in eq.terms}
             for eq in system.equations]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        f, g = (basis[k] for k in pairs.pop(0))
        (fx, fi), (gx, gi) = _lead(f), _lead(g)
        if fi == gi:
            join = tuple(map(max, fx, gx))
            s = _add_multiple({}, f, tuple(a - b for a, b in zip(join, fx)), 1 / f[fx, fi])
            s = _add_multiple(s, g, tuple(a - b for a, b in zip(join, gx)), -1 / g[gx, gi])
            if s := _reduce(s, basis):
                pairs += [(k, len(basis)) for k in range(len(basis))]
                basis.append(s)
    kept = []
    for g in sorted(basis, key=lambda g: rank_key(_lead(g))):
        if _reducer(_lead(g), kept) is None:
            kept.append(g)
    reduced = (_reduce(g, [h for h in kept if h is not g]) for g in kept)
    return {frozenset((k, v / g[_lead(g)]) for k, v in g.items()) for g in reduced}


@st.composite
def small_systems(draw):
    """m <= 3, n <= 3, order <= 3."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
    equations = st.dictionaries(
        st.tuples(st.sampled_from(vectors), st.integers(1, n)), coefficients,
        min_size=1, max_size=4,
    ).map(equation)
    return LinearDiffSystem(m, n, tuple(draw(st.lists(equations, min_size=1, max_size=3))))


@SETTINGS
@hypothesis.given(small_systems())
def test_groebner_matches_plain_buchberger(system):
    basis = {
        frozenset(((mono.exponents, mono.var_index), c) for c, mono in eq.terms)
        for eq in module_groebner(system).equations
    }
    assert basis == oracle_basis(system)


@st.composite
def monomial_systems(draw):
    """m <= 3, n <= 3 and up to 8 one-term equations of either sign, of
    order <= 3, and up to two more that repeat a drawn monomial or take one
    derivative of it."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
    monomials = draw(st.lists(st.tuples(st.sampled_from(vectors), st.integers(1, n)), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if monomials else 0):
        xi, unknown = draw(st.sampled_from(monomials))
        j = draw(st.integers(-1, m - 1))  # -1: the monomial again
        monomials.append((tuple(e + (k == j) for k, e in enumerate(xi)), unknown))
    monomials = draw(st.permutations(monomials))
    return LinearDiffSystem(m, n, tuple(equation({key: draw(coefficients)}) for key in monomials))


# a monomial system's pivot rows are one entry each, at most one per column
# of the route's top level; a wrong basis ends at this cap
CELL_CAP = 10**4


@SETTINGS
@hypothesis.given(monomial_systems())
def test_a_system_of_monomials_is_its_own_basis(system):
    monomials = {(mono.exponents, mono.var_index) for eq in system.equations for _, mono in eq.terms}
    minimal = [
        (xi, unknown) for xi, unknown in monomials
        if not any(u == unknown and yi != xi and all(map(le, yi, xi)) for yi, u in monomials)
    ]
    gb = module_groebner(system)
    basis = [[(c, (mono.exponents, mono.var_index)) for c, mono in eq.terms] for eq in gb.equations]
    assert sorted(basis) == sorted([(1, key)] for key in minimal)
    assert leader_profile(gb) == LeaderProfile(system.m, system.n, tuple(
        (unknown, ExponentSet(system.m, tuple(xi for xi, u in monomials if u == unknown)))
        for unknown in range(1, system.n + 1)
    ))
    assert kolchin_polynomial(system) == kolchin_via_prolongation(system, matrix_cell_cap=CELL_CAP)


def test_join_past_the_field_width_repacks_and_matches_plain_buchberger():
    # at m = 2 the shared layout's 7-bit fields hold 0..63.  The only pair,
    # of d[63,0]x2 and d[62,1]x2, joins at order 64, so completion starts
    # over at 14 bits and reaches that pair again; its S-row's d[63,1]x1 is
    # then reduced by x1 with ord theta = 64
    system = parse_system(JOIN_64)
    assert system.equations[0]._keys.width == 7
    gb = module_groebner(system)
    assert {eq._keys.width for eq in gb.equations} == {14}
    basis = {
        frozenset(((mono.exponents, mono.var_index), c) for c, mono in eq.terms)
        for eq in gb.equations
    }
    assert basis == oracle_basis(system)
    # the attempt that finishes counts only its own reduction, and that
    # reduction needs x1 packed at the new width: an S-row built at 14 bits
    # against leaders still packed at 7 would stay and push a fourth element
    assert len(_groebner(system, gb_step_cap=1).equations) == 3


def test_equations_of_two_layouts_complete_as_one_parse():
    # parsed alone, d[70,0]x1 + x1 is packed at 8-bit fields and d[0,1]x1 at
    # the shared 7-bit ones, so completion re-packs the second
    first, second = equation({((70, 0), 1): 1, ((0, 0), 1): 1}), equation({((0, 1), 1): 1})
    assert (first._keys.width, second._keys.width) == (8, 7)
    mixed = LinearDiffSystem(2, 1, (first, second))
    parsed = parse_system("m = 2\nn = 1\neq: d[70,0]x1 + x1\neq: d[0,1]x1\n")
    assert _groebner(mixed) == _groebner(parsed)
    basis = {
        frozenset(((mono.exponents, mono.var_index), c) for c, mono in eq.terms)
        for eq in module_groebner(mixed).equations
    }
    assert basis == oracle_basis(mixed)


@SETTINGS
@hypothesis.given(st.data())
def test_elimination_step_is_the_fraction_free_combination(data):
    # with c the row's coefficient at theta * lead(g) and d = gcd(c, lc g),
    # the row becomes (lc g / d) * row - (c / d) * theta * g
    terms = st.dictionaries(
        st.tuples(exponents, st.integers(1, 2)), st.integers(-6, 6).filter(bool),
        min_size=1, max_size=4,
    )
    g, row, theta = data.draw(terms), data.draw(terms), data.draw(exponents)
    (gx, gi) = glead = _lead(g)
    key = (tuple(a + b for a, b in zip(gx, theta)), gi)
    row[key] = c = data.draw(st.integers(-6, 6).filter(bool))
    d = gcd(c, g[glead])
    expected = _add_multiple({k: g[glead] // d * v for k, v in row.items()}, g, theta, -(c // d))
    keys = _Keys(2, 5)
    packed = {keys.pack(*k): v for k, v in row.items()}
    heap = []
    _eliminate(packed, keys.pack(*key), {keys.pack(*k): v for k, v in g.items()},
               keys.pack(*glead), heap)
    assert {keys.unpack(k): v for k, v in packed.items()} == expected
    assert sorted(keys.unpack(-k) for k in heap) == sorted(expected.keys() - row.keys())
    # the keys it adds go, negated, onto a valid heap
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
