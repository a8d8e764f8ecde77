import random
from math import comb

import pytest

from diffdim.errors import ParseError, ResourceLimit
from diffdim.expsets import (
    ExponentSet,
    _numerator_volume,
    dimension_polynomial,
    minimal_elements,
    parse_exponent_set,
    stabilisation_level,
    stability_bound,
    volume,
    volume_ie,
)
from diffdim.numpoly import NumericalPolynomial


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


def random_exp_set(rng, m, max_gens=5, max_order=6):
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        total = rng.randint(0, max_order)
        vec = [0] * m
        for _ in range(total):
            vec[rng.randrange(m)] += 1
        gens.append(tuple(vec))
    return ExponentSet(m, tuple(gens))


def test_minimal_elements_drops_dominated():
    exp_set = ExponentSet(2, ((1, 2), (2, 2), (3, 0), (1, 2)))
    assert minimal_elements(exp_set).generators == ((1, 2), (3, 0))


def test_an_exponent_set_holds_its_sorted_antichain():
    exp_set = ExponentSet(2, ((2, 2), (1, 1), (1, 1)))
    assert exp_set.generators == ((1, 1),)
    assert minimal_elements(exp_set) is exp_set


def test_equality_is_closure_equality():
    a = ExponentSet(2, ((1, 1), (2, 2)))
    b = ExponentSet(2, ((1, 1),))
    assert a == b
    assert hash(a) == hash(b)
    assert a != ExponentSet(2, ((1, 2),))


def test_volume_small_example():
    # complement of the staircase built on (0,2) and (3,0)
    exp_set = ExponentSet(2, ((0, 2), (3, 0)))
    assert volume(exp_set, 0) == brute_volume(exp_set, 0)
    for s in range(8):
        expected = brute_volume(exp_set, s)
        assert volume(exp_set, s) == expected
        assert volume_ie(exp_set, s) == expected


def test_volume_of_everything_blocked():
    exp_set = ExponentSet(3, ((0, 0, 0),))
    assert volume(exp_set, 4) == 0
    assert volume_ie(exp_set, 4) == 0


def test_volume_free_case():
    from math import comb

    exp_set = ExponentSet(3, ())
    for s in (0, 1, 5):
        assert volume(exp_set, s) == comb(s + 3, 3)
        assert volume_ie(exp_set, s) == comb(s + 3, 3)


def test_volume_respects_cap():
    # the walk over the first coordinate has 101 prefixes of order <= 100
    exp_set = ExponentSet(3, ((1, 1, 1),))
    with pytest.raises(ResourceLimit):
        volume(exp_set, 100, enumeration_cap=100)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
def test_volume_rejects_cap_that_is_not_positive_int(cap):
    with pytest.raises(ValueError, match="enumeration_cap"):
        volume(ExponentSet(2, ((1, 1),)), 3, enumeration_cap=cap)


@pytest.mark.parametrize("count", [volume, volume_ie])
def test_volumes_refuse_a_negative_order(count):
    with pytest.raises(ValueError, match="order cutoff must be non-negative"):
        count(ExponentSet(2, ((1, 1),)), -1)


@pytest.mark.parametrize("m, s", [(3, 10), (4, 4), (5, 3), (6, 2)])
def test_enumeration_cap_counts_the_prefixes_walked(m, s):
    # the cap bounds the binom(s + m - 2, m - 2) prefixes of order <= s over
    # the first m - 2 coordinates, not the binom(s + m, m) points, times the
    # two generators each prefix passes over
    exp_set = ExponentSet(m, ((1,) * m, (2,) + (0,) * (m - 1)))
    steps = 2 * (prefixes := comb(s + m - 2, m - 2))
    assert volume(exp_set, s, enumeration_cap=steps) == brute_volume(exp_set, s)
    with pytest.raises(
        ResourceLimit, match=rf"order {s} visits up to {prefixes} prefixes over {m - 2} "
        rf"coordinates, each a pass over 2 generators: {steps} steps \(cap {steps - 1}\)"
    ):
        volume(exp_set, s, enumeration_cap=steps - 1)


def test_enumeration_cap_states_a_number_too_long_to_print_by_its_size():
    # binom(10^20 + 254, 254) has 4,578 digits, more than str() writes under
    # the interpreter's default limit of 4,300, so the message gives the
    # prefixes and the steps by their size
    with pytest.raises(ResourceLimit) as info:
        volume(ExponentSet(256, ((1,) * 256,)), 10**20)
    assert info.value.description == (
        "volume walk at order 100000000000000000000 visits up to a 4578-digit number prefixes "
        "over 254 coordinates, each a pass over 1 generators: a 4578-digit number steps "
        "(cap 10000000)"
    )


@pytest.mark.parametrize("m, s", [(1, 9), (2, 6)])
def test_volume_walks_one_prefix_below_m_3(m, s):
    exp_set = ExponentSet(m, ((1,) * m,))
    assert volume(exp_set, s, enumeration_cap=1) == brute_volume(exp_set, s)


def test_volume_on_a_3_variable_staircase_at_s_150():
    # 585,276 candidate points, too many for brute force in a unit test, so
    # the Hilbert numerator gives the second count; over the prefixes
    # (a, 0) with a >= 12 the fibres run up to order 150
    exp_set = ExponentSet(3, tuple((i, 12 - i, 6 * (i % 3)) for i in range(12)))
    assert volume(exp_set, 150) == _numerator_volume(exp_set, 150) == 23429


@pytest.mark.parametrize(
    "exp_set, s, expected",
    [
        (ExponentSet(1, ((5,),)), 10**20, 5),
        # fibres of 7 points over y < 3, of 2 over 3 <= y < 10^6, none beyond
        (ExponentSet(2, ((0, 7), (3, 2), (10**6, 0))), 10**12, 3 * 7 + (10**6 - 3) * 2),
    ],
    ids=["m=1 past 2^63", "m=2 at 10^12"],
)
def test_volume_is_exact_at_any_order(exp_set, s, expected):
    # the count needs no array over the prefixes, and no fixed-width integer
    assert volume(exp_set, s, enumeration_cap=10**30) == _numerator_volume(exp_set, s) == expected


def test_volume_routes_agree_randomly():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 3)
        exp_set = random_exp_set(rng, m)
        s = rng.randint(0, 9)
        expected = brute_volume(exp_set, s)
        assert volume(exp_set, s) == expected
        assert volume_ie(exp_set, s) == expected


def test_dimension_polynomial_single_generator():
    # leaders of the heat operator: one generator of order 2 in 2 variables
    exp_set = ExponentSet(2, ((0, 2),))
    assert dimension_polynomial(exp_set).standard_coeffs == (0, 2, -1)


def test_dimension_polynomial_two_generators():
    exp_set = ExponentSet(2, ((1, 0), (0, 1)))
    assert dimension_polynomial(exp_set).standard_coeffs == (0, 0, 1)


def test_dimension_polynomial_free():
    assert dimension_polynomial(ExponentSet(3, ())) == NumericalPolynomial.from_coeffs((1, 0, 0, 0))


def test_dimension_polynomial_blocked():
    assert dimension_polynomial(ExponentSet(2, ((0, 0),))) == NumericalPolynomial.zero(2)


def test_dimension_polynomial_of_a_high_order_generator():
    # the recursion steps down in the ambient dimension only, not once per
    # unit of order, so the order is not limited by Python's stack
    p = dimension_polynomial(ExponentSet(2, ((0, 5000),)))
    assert p.standard_coeffs == (0, 5000, -5000 * 4999 // 2)


def test_dimension_polynomial_one_variable():
    exp_set = ExponentSet(1, ((4,), (7,)))
    p = dimension_polynomial(exp_set)
    assert p.standard_coeffs == (0, 4)
    for s in range(4, 12):
        assert p.evaluate(s) == 4


def test_dimension_polynomial_invariant_under_dominated_generators():
    base = ExponentSet(2, ((1, 1),))
    fat = ExponentSet(2, ((1, 1), (4, 2), (1, 3)))
    assert dimension_polynomial(base) == dimension_polynomial(fat)


def test_dimension_polynomial_matches_volume_past_bound():
    rng = random.Random(1234)
    for _ in range(80):
        m = rng.randint(1, 3)
        exp_set = random_exp_set(rng, m, max_gens=4, max_order=4)
        omega = dimension_polynomial(exp_set)
        bound = stability_bound(exp_set)
        for s in range(bound, bound + 4):
            assert omega.evaluate(s) == brute_volume(exp_set, s)
        level = stabilisation_level(exp_set)
        assert level <= bound
        for s in range(level, level + 4):
            assert omega.evaluate(s) == volume(exp_set, s) == volume_ie(exp_set, s)
        if level > 0:
            assert volume(exp_set, level - 1) != omega.evaluate(level - 1)


def test_stabilisation_level_staircase():
    # generators (i, 11 - i): the generic bound is far above the exact level
    staircase = ExponentSet(2, tuple((i, 11 - i) for i in range(12)))
    assert stability_bound(staircase) == 262
    assert stabilisation_level(staircase) == 10
    omega = dimension_polynomial(staircase)
    assert volume(staircase, 9) != omega.evaluate(9)
    for s in range(10, 14):
        assert omega.evaluate(s) == volume(staircase, s) == volume_ie(staircase, s)


def test_numerator_on_a_400_step_staircase():
    # every monomial of order G - 1 in N^2: the shift at each step of the
    # numerator loop touches one generator, so this stays quadratic in G
    g = 400
    staircase = ExponentSet(2, tuple((i, g - 1 - i) for i in range(g)))
    assert dimension_polynomial(staircase).standard_coeffs == (0, 0, comb(g, 2))
    assert stabilisation_level(staircase) == g - 2


def test_a_big_exponent_costs_one_numerator_term():
    # the numerator is sparse: an entry of 10^9 adds a term, not 10^9 of them
    exp_set = ExponentSet(2, ((10**9, 1), (0, 3)))
    assert dimension_polynomial(exp_set).standard_coeffs == (0, 1, 2 * 10**9)
    assert stabilisation_level(exp_set) == 10**9 + 1


def test_dimension_polynomial_degree_at_most_m():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(1, 3)
        exp_set = random_exp_set(rng, m)
        omega = dimension_polynomial(exp_set)
        assert omega.differential_type() <= m
        # full degree m exactly when nothing is excluded
        if minimal_elements(exp_set).generators:
            assert omega.differential_type() < m
        else:
            assert omega == NumericalPolynomial.from_coeffs((1,) + (0,) * m)


def test_volume_antitone_in_generators():
    small = ExponentSet(2, ((2, 1),))
    larger = ExponentSet(2, ((2, 1), (0, 3)))
    for s in range(8):
        assert volume(larger, s) <= volume(small, s)


def test_stability_bound_values():
    assert stability_bound(ExponentSet(2, ((0, 2),))) == 2
    assert stability_bound(ExponentSet(2, ())) == 0
    assert stability_bound(ExponentSet(3, ((0, 0, 0),))) == 0
    # dominated generators do not inflate the bound
    assert stability_bound(ExponentSet(2, ((1, 1), (2, 2)))) == 2


def test_parse_exponent_set():
    text = """
    # comment line
    0, 2
    3, 0   # trailing comment

    """
    exp_set = parse_exponent_set(text)
    assert exp_set.m == 2
    assert set(exp_set.generators) == {(0, 2), (3, 0)}


def test_parse_exponent_set_empty_needs_m():
    assert parse_exponent_set("", m=3) == ExponentSet(3, ())
    with pytest.raises(ParseError):
        parse_exponent_set("")


def test_parse_exponent_set_errors():
    with pytest.raises(ParseError) as info:
        parse_exponent_set("1, 2\n1, 2, 3\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_exponent_set("1, -2\n")
    with pytest.raises(ParseError):
        parse_exponent_set("1, a\n")
    with pytest.raises(ParseError):
        parse_exponent_set("1, 2\n", m=3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExponentSet(0, ())
    with pytest.raises(ValueError):
        ExponentSet(2, ((1,),))
    with pytest.raises(ValueError):
        ExponentSet(2, ((1, -1),))


def _unit_vectors(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def test_unit_vectors_of_n_256_answer():
    # the numerator recursion goes one frame deeper per coordinate; only the
    # origin lies outside the closure
    exp_set = ExponentSet(256, _unit_vectors(256))
    assert dimension_polynomial(exp_set) == NumericalPolynomial.from_coeffs((0,) * 256 + (1,))
    assert stabilisation_level(exp_set) == 0


def test_exponent_sets_past_n_256_are_refused():
    with pytest.raises(ResourceLimit, match=r"N\^257: .* at most m = 256"):
        ExponentSet(257, _unit_vectors(257))
