import random

import pytest

from diffdim.diffrank import (
    DifferentialMonomial,
    LeaderProfile,
    compare_rank,
    kolchin_from_leaders,
    parse_leader_profile,
    parse_monomial,
)
from diffdim.errors import AmbientMismatch, ParseError
from diffdim.expsets import ExponentSet


def derive(mono, theta):
    """Apply further derivations given by the multi-index theta."""
    return DifferentialMonomial(
        tuple(a + b for a, b in zip(mono.exponents, theta)), mono.var_index
    )


def random_monomial(rng, m, n=3, max_entry=4):
    return DifferentialMonomial(
        tuple(rng.randint(0, max_entry) for _ in range(m)), rng.randint(1, n)
    )


def test_rank_orders_by_total_order_first():
    low = DifferentialMonomial((1, 0), 2)
    high = DifferentialMonomial((0, 2), 1)
    assert compare_rank(low, high) == -1
    assert compare_rank(high, low) == 1


def test_rank_breaks_ties_by_unknown_then_leftmost():
    a = DifferentialMonomial((1, 1), 1)
    b = DifferentialMonomial((1, 1), 2)
    assert compare_rank(a, b) == -1
    c = DifferentialMonomial((2, 0), 1)
    d = DifferentialMonomial((1, 1), 1)
    assert compare_rank(c, d) == 1
    assert compare_rank(c, c) == 0


def test_rank_is_total_order():
    rng = random.Random(17)
    monos = [random_monomial(rng, 3) for _ in range(40)]
    for a in monos:
        for b in monos:
            ab, ba = compare_rank(a, b), compare_rank(b, a)
            assert ab == -ba
            if ab == 0:
                assert a == b
    for a in monos:
        for b in monos:
            for c in monos:
                if compare_rank(a, b) <= 0 and compare_rank(b, c) <= 0:
                    assert compare_rank(a, c) <= 0


def test_rank_compatible_with_derivation():
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(1, 3)
        a, b = random_monomial(rng, m), random_monomial(rng, m)
        theta = tuple(rng.randint(0, 3) for _ in range(m))
        before = compare_rank(a, b)
        after = compare_rank(derive(a, theta), derive(b, theta))
        assert before == after
        if sum(theta) > 0:
            # strictly increasing under proper derivation
            assert compare_rank(derive(a, theta), a) == 1


def test_rank_requires_same_ambient():
    with pytest.raises(AmbientMismatch):
        compare_rank(DifferentialMonomial((1,), 1), DifferentialMonomial((1, 0), 1))


def test_monomial_validation():
    with pytest.raises(ValueError):
        DifferentialMonomial((), 1)
    with pytest.raises(ValueError):
        DifferentialMonomial((-1,), 1)
    with pytest.raises(ValueError):
        DifferentialMonomial((1,), 0)


def test_parse_monomial():
    mono = parse_monomial("d[1,0]x2")
    assert mono == DifferentialMonomial((1, 0), 2)
    assert parse_monomial("x3") == DifferentialMonomial((0,), 3)
    assert parse_monomial(" d[0,0,4]x1 ") == DifferentialMonomial((0, 0, 4), 1)


def test_parse_monomial_errors():
    for bad in ("d[1,0x2", "d[]x1", "y1", "d[1,0]z2", "d[1,0]x", "d[1,-2]x1"):
        with pytest.raises(ParseError):
            parse_monomial(bad)


def test_profile_kolchin_single_heat_leader():
    profile = LeaderProfile(2, (ExponentSet(2, ((0, 2),)),))
    assert kolchin_from_leaders(profile).standard_coeffs == (0, 2, -1)


def test_profile_kolchin_two_free_unknowns():
    profile = LeaderProfile(1, (ExponentSet(1, ()), ExponentSet(1, ())))
    assert kolchin_from_leaders(profile).standard_coeffs == (2, 0)


def test_profile_kolchin_sums_components():
    # one blocked unknown, one cut by the Cauchy-Riemann style pair
    profile = LeaderProfile(
        2,
        (
            ExponentSet(2, ((2, 0),)),
            ExponentSet(2, ((1, 0), (0, 1))),
        ),
    )
    assert kolchin_from_leaders(profile).standard_coeffs == (0, 2, 0)


def test_profile_ambient_checked():
    with pytest.raises(AmbientMismatch):
        LeaderProfile(2, (ExponentSet(1, ()),))
    with pytest.raises(ValueError):
        LeaderProfile(2, ())


def test_parse_leader_profile():
    text = """
    # leaders per unknown
    1: 0, 2
    2: 1, 0
    2: 0, 1
    """
    profile = parse_leader_profile(text)
    assert profile.m == 2
    assert profile.n == 2
    assert profile.variable_sets[0] == ExponentSet(2, ((0, 2),))
    assert profile.variable_sets[1] == ExponentSet(2, ((1, 0), (0, 1)))


def test_parse_leader_profile_free_unknowns():
    profile = parse_leader_profile("1: 2,0\n", n=3)
    assert profile.n == 3
    assert profile.variable_sets[1] == ExponentSet(2, ())
    assert profile.variable_sets[2] == ExponentSet(2, ())


def test_parse_leader_profile_empty_with_shape():
    profile = parse_leader_profile("", m=2, n=2)
    assert profile.m == 2 and profile.n == 2
    assert kolchin_from_leaders(profile).standard_coeffs == (2, 0, 0)


def test_parse_leader_profile_errors():
    with pytest.raises(ParseError):
        parse_leader_profile("")
    with pytest.raises(ParseError):
        parse_leader_profile("0: 1,1\n")
    with pytest.raises(ParseError):
        parse_leader_profile("1: 1\n2: 1,1\n")
    with pytest.raises(ParseError):
        parse_leader_profile("5: 1,1\n", n=2)
    with pytest.raises(ParseError):
        parse_leader_profile("1 1,1\n")
