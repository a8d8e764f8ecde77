"""Property tests: the reduced Groebner basis depends only on the submodule
the equations generate, not on how the equations are written down, and it
matches a textbook Buchberger; one elimination step is the fraction-free
combination it names."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.diffrank import rank_key  # noqa: E402
from diffdim.lindiff import (  # noqa: E402
    LinearDiffSystem,
    LinearEquation,
    _eliminate,
    _Keys,
    module_groebner,
    parse_system,
)

SETTINGS = hypothesis.settings(max_examples=30, deadline=None)

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
coefficients = st.fractions(-6, 6, max_denominator=3).filter(bool)
equations = st.dictionaries(
    st.tuples(exponents, st.integers(1, 2)), coefficients, min_size=1, max_size=4
).map(LinearEquation.from_terms)
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
    eqs[k] = LinearEquation(tuple((factor * c, mono) for c, mono in eqs[k].terms))
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
    eqs = system.equations + (LinearEquation.from_terms(derived),)
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


# ------------------------------------------------------------------ oracle
# Textbook Buchberger over Fraction dicts keyed (exponents, unknown): FIFO
# pairs, no criterion, no rep bookkeeping, nothing shared with lindiff.


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
    """m <= 3, n <= 2, order <= 3."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
    equation = st.dictionaries(
        st.tuples(st.sampled_from(vectors), st.integers(1, n)), coefficients,
        min_size=1, max_size=4,
    ).map(LinearEquation.from_terms)
    return LinearDiffSystem(m, n, tuple(draw(st.lists(equation, min_size=1, max_size=3))))


@SETTINGS
@hypothesis.given(small_systems())
def test_groebner_matches_plain_buchberger(system):
    basis = {
        frozenset(((mono.exponents, mono.var_index), c) for c, mono in eq.terms)
        for eq in module_groebner(system).equations
    }
    assert basis == oracle_basis(system)


def test_join_past_the_field_width_repacks_and_matches_plain_buchberger():
    # order 3 and n = 2 give fields that hold 0..3.  The only pair, of
    # d[3,0]x2 and d[2,1]x2, joins at order 4, so completion re-packs the
    # rows first; its S-row's d[3,1]x1 is then reduced by x1 with ord theta = 4
    system = parse_system(
        "m = 2\nn = 2\neq: d[3,0]x2 + d[3,0]x1\neq: d[2,1]x2 + x1\neq: x1\n"
    )
    basis = {
        frozenset(((mono.exponents, mono.var_index), c) for c, mono in eq.terms)
        for eq in module_groebner(system).equations
    }
    assert basis == oracle_basis(system)


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
    added = _eliminate(packed, keys.pack(*key), {keys.pack(*k): v for k, v in g.items()},
                       keys.pack(*glead))
    assert {keys.unpack(k): v for k, v in packed.items()} == expected
    assert sorted(map(keys.unpack, added)) == sorted(expected.keys() - row.keys())
