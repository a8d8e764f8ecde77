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


def brute_volume(exp_set, s):
    """Test every point of order <= s against every generator."""

    def points(m, budget):
        if m == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in points(m - 1, budget - head):
                yield (head,) + rest

    return sum(
        not any(all(a >= b for a, b in zip(pt, g)) for g in exp_set.generators)
        for pt in points(exp_set.m, s)
    )


# generators as given: repeats and dominated ones kept, the zero vector allowed
raw_sets = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 7)] * m), max_size=8), st.integers(0, 3)
    ).map(lambda t: ExponentSet(m, tuple(t[0] + t[0][: t[1]])))
)


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
    num = _numerator(m, exp_set._antichain)
    assert all(c for _, c in num)
    assert all(a < b for (a, _), (b, _) in zip(num, num[1:]))
    poly = dimension_polynomial(exp_set)
    level = stabilisation_level(exp_set)
    for s in range(level, level + m + 2):
        assert poly.evaluate(s) == volume(exp_set, s), s
    if level > 0:
        assert poly.evaluate(level - 1) != volume(exp_set, level - 1)


@SETTINGS
@hypothesis.given(raw_sets)
@hypothesis.example(ExponentSet(2, ((3, 0), (1, 2), (1, 2), (2, 3), (0, 5))))
@hypothesis.example(ExponentSet(3, ((0, 0, 0), (1, 0, 2))))
def test_minimal_elements_keeps_the_undominating_generators(exp_set):
    gens = set(exp_set.generators)
    expected = sorted(g for g in gens if not any(h != g and dominates(g, h) for h in gens))
    assert list(minimal_elements(exp_set).generators) == expected


def _subset_ie(exp_set, s):
    """Inclusion-exclusion over every subset of the minimal antichain, one
    join per subset: 2^k terms for k generators."""
    m = exp_set.m
    gens = exp_set._antichain
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
