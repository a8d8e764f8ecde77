"""Property tests: the fibre count of ``volume`` equals a plain count over
every lattice point, the count read off the Hilbert numerator equals the
fibre count, the polynomial meets the fibre count exactly from
``stabilisation_level`` on, ``minimal_elements`` keeps exactly the
generators that dominate no other, and the distinct-join sum of
``volume_ie`` equals the sum over every subset of the antichain."""

from itertools import product
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.diffrank import LeaderProfile, kolchin_from_leaders  # noqa: E402
from diffdim.expsets import (  # noqa: E402
    ExponentSet,
    _numerator,
    _numerator_volume,
    dimension_polynomial,
    dominates,
    minimal_elements,
    stabilisation_level,
    volume,
    volume_ie,
)
from diffdim.numpoly import NumericalPolynomial  # noqa: E402
from test_expsets import brute_volume  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None)

exp_sets = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(*[st.integers(0, 6)] * m), max_size=8).map(
        lambda gens: ExponentSet(m, tuple(gens))
    )
)


@SETTINGS
@hypothesis.given(exp_sets, st.integers(0, 8))
def test_numerator_count_equals_volume(exp_set, s):
    assert _numerator_volume(exp_set, s) == volume(exp_set, s)


# (m, generators) as given: repeats and dominated ones kept, the zero vector
# allowed
raw_generators = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 7)] * m), max_size=8), st.integers(0, 3)
    ).map(lambda t: (m, tuple(t[0] + t[0][: t[1]])))
)
raw_sets = raw_generators.map(lambda t: ExponentSet(*t))


@SETTINGS
@hypothesis.given(raw_sets, st.integers(0, 10))
@hypothesis.example(ExponentSet(3, ()), 10)
@hypothesis.example(ExponentSet(4, ((0, 0, 0, 0), (1, 2, 0, 1))), 10)
@hypothesis.example(ExponentSet(2, ((1, 3), (1, 3), (2, 5), (0, 4))), 10)
@hypothesis.example(ExponentSet(2, ((10**30, 0), (1, 10**30), (2, 2))), 10)
def test_volume_equals_brute_force_count(exp_set, s):
    assert volume(exp_set, s) == brute_volume(exp_set, s)


@SETTINGS
@hypothesis.given(raw_sets)
@hypothesis.example(ExponentSet(3, ()))
@hypothesis.example(ExponentSet(2, ((0, 0), (3, 1))))
@hypothesis.example(ExponentSet(2, ((1, 3), (1, 3), (2, 5), (0, 4))))
def test_polynomial_meets_volume_exactly_from_the_level(exp_set):
    # the level is stated, not searched; check it against the fibre count,
    # which does not read the numerator
    m = exp_set.m
    num = _numerator(m, exp_set.generators)
    assert all(c for _, c in num)
    assert all(a < b for (a, _), (b, _) in zip(num, num[1:]))
    poly = dimension_polynomial(exp_set)
    level = stabilisation_level(exp_set)
    for s in range(level, level + m + 2):
        assert poly.evaluate(s) == volume(exp_set, s), s
    if level > 0:
        assert poly.evaluate(level - 1) != volume(exp_set, level - 1)


@SETTINGS
@hypothesis.given(raw_generators)
@hypothesis.example((2, ((3, 0), (1, 2), (1, 2), (2, 3), (0, 5))))
@hypothesis.example((3, ((0, 0, 0), (1, 0, 2))))
def test_minimal_elements_keeps_the_undominating_generators(raw):
    m, given = raw
    gens = set(given)
    expected = sorted(g for g in gens if not any(h != g and dominates(g, h) for h in gens))
    exp_set = ExponentSet(m, given)
    assert list(exp_set.generators) == expected
    assert minimal_elements(exp_set) is exp_set


def _subset_ie(exp_set, s):
    """Inclusion-exclusion over every subset of the minimal antichain, one
    join per subset: 2^k terms for k generators."""
    m = exp_set.m
    gens = exp_set.generators
    total = 0
    for mask in range(1 << len(gens)):
        join = (0,) * m
        sign = 1
        for idx, g in enumerate(gens):
            if mask >> idx & 1:
                join = tuple(max(a, b) for a, b in zip(join, g))
                sign = -sign
        d = sum(join)
        if s >= d:
            total += sign * comb(s - d + m, m)
    return total


@SETTINGS
@hypothesis.given(exp_sets, st.data())
def test_distinct_joins_count_as_every_subset(exp_set, data):
    s = data.draw(st.integers(0, stabilisation_level(exp_set) + 3))
    assert volume_ie(exp_set, s) == _subset_ie(exp_set, s) == volume(exp_set, s)


@pytest.mark.parametrize(
    "exp_set",
    [
        # 2^400 subsets, 800 joins with a nonzero coefficient
        pytest.param(ExponentSet(2, tuple((i, 399 - i) for i in range(400))), id="staircase-400"),
        # 2^18 subsets of order-5 vectors in N^3
        pytest.param(
            ExponentSet(3, tuple(xi for xi in product(range(6), repeat=3) if sum(xi) == 5)[:18]),
            id="same-order-18",
        ),
    ],
)
def test_volume_ie_on_large_antichains(exp_set):
    level = stabilisation_level(exp_set)
    for s in range(level, level + 4):
        assert volume_ie(exp_set, s) == volume(exp_set, s) == _numerator_volume(exp_set, s), s


profiles = st.integers(1, 4).flatmap(
    lambda m: st.lists(
        st.lists(st.tuples(*[st.integers(0, 6)] * m), max_size=8).map(
            lambda gens: ExponentSet(m, tuple(gens))
        ),
        min_size=1,
        max_size=3,
    ).map(lambda sets: LeaderProfile(m, len(sets), tuple(enumerate(sets, 1))))
)


@SETTINGS
@hypothesis.given(profiles)
@hypothesis.example(LeaderProfile(2, 2, ((1, ExponentSet(2, ((2, 0), (1, 1), (0, 3)))),)))
def test_shared_polynomials_equal_fresh_ones(profile):
    kept = kolchin_from_leaders(profile)
    warm = [dimension_polynomial(es) for es in profile.variable_sets]
    assert warm == [dimension_polynomial(es) for es in profile.variable_sets]
    dimension_polynomial.cache_clear()
    fresh = [dimension_polynomial(es) for es in profile.variable_sets]
    assert warm == fresh
    assert kolchin_from_leaders(profile) is kept
    assert kept == sum(fresh, NumericalPolynomial.zero(profile.m))


@SETTINGS
@hypothesis.given(profiles)
def test_kept_polynomial_has_the_largest_type_of_a_set(profile):
    # each set's polynomial counts points, so it leads positively and no two
    # leading terms cancel: the prolongation route reads d off the sum alone
    types = [dimension_polynomial(es).differential_type() for es in profile.variable_sets]
    assert kolchin_from_leaders(profile).differential_type() == max(types)


@st.composite
def sparse_profiles(draw):
    """(m, n, pairs): sets, some empty, for a subset of the unknowns 1..n with
    n <= 6 and m <= 3, listed in any order."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    unknowns = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    gens = st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=4)
    return m, n, tuple((u, ExponentSet(m, tuple(draw(gens)))) for u in unknowns)


@SETTINGS
@hypothesis.given(sparse_profiles())
def test_a_profile_of_listed_sets_sums_as_one_set_per_unknown(drawn):
    # the oracle is the rule of one set per unknown, the free ones empty:
    # each set's polynomial summed, and the floor the largest level of all
    m, n, pairs = drawn
    profile = LeaderProfile(m, n, pairs)
    every = profile.variable_sets
    assert len(every) == n
    assert every == tuple(dict(pairs).get(u, ExponentSet(m, ())) for u in range(1, n + 1))
    assert profile == LeaderProfile(m, n, tuple(enumerate(every, 1)))
    oracle = sum((dimension_polynomial(es) for es in every), NumericalPolynomial.zero(m))
    assert kolchin_from_leaders(profile).standard_coeffs == oracle.standard_coeffs
    floor = max((stabilisation_level(es) for _, es in profile.sets), default=0)
    assert floor == max(stabilisation_level(es) for es in every)


def test_shared_polynomial_is_one_per_ambient_dimension():
    # the empty antichain has the same generators in every N^m
    polys = [dimension_polynomial(ExponentSet(m, ())) for m in (3, 2, 3)]
    n3, n2 = NumericalPolynomial(3, (1, 0, 0, 0)), NumericalPolynomial(2, (1, 0, 0))
    assert polys == [n3, n2, n3]
