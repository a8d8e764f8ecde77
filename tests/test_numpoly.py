import json
import random
from fractions import Fraction

import pytest

from diffdim.cli import main
from diffdim.errors import MAX_DIGITS, InputNotNumericalPolynomial
from diffdim.numpoly import (
    EQUAL,
    GREATER,
    LESS,
    NumericalPolynomial,
    _power_coeffs,
    compare_eventual,
    from_json_dict,
    interpolate,
    render,
    to_json_dict,
)


def brute_value(coeffs, s):
    """Evaluation straight from the definition, used as the oracle."""
    from math import comb

    m = len(coeffs) - 1
    return sum(a * comb(s + i, i) for a, i in zip(coeffs, range(m, -1, -1)))


def test_evaluate_matches_definition():
    p = NumericalPolynomial.from_coeffs((3, -2, 5))
    for s in range(10):
        assert p.evaluate(s) == brute_value((3, -2, 5), s)


def test_evaluate_rejects_negative_points():
    with pytest.raises(ValueError):
        NumericalPolynomial.from_coeffs((1, 0)).evaluate(-1)


def test_equality_ignores_padding():
    p = NumericalPolynomial.from_coeffs((0, 0, 2, -1))
    q = NumericalPolynomial.from_coeffs((2, -1))
    assert p == q
    assert hash(p) == hash(q)
    assert p != NumericalPolynomial.from_coeffs((2, 0))
    # a polynomial equals only a polynomial, not its coefficients
    assert p != p.standard_coeffs


def test_addition_pads_to_common_bound():
    p = NumericalPolynomial.from_coeffs((1, 0, 0))
    q = NumericalPolynomial.from_coeffs((2, 5))
    total = p + q
    assert total.standard_coeffs == (1, 2, 5)
    for s in range(6):
        assert total.evaluate(s) == p.evaluate(s) + q.evaluate(s)
    with pytest.raises(TypeError):
        p + 1


def test_compare_eventual_basic():
    two_t = NumericalPolynomial.from_coeffs((2, -2))
    const = NumericalPolynomial.from_coeffs((0, 7))
    assert compare_eventual(two_t, const) == GREATER
    assert compare_eventual(const, two_t) == LESS
    assert compare_eventual(two_t, two_t) == EQUAL


def test_compare_eventual_is_lex_on_padded_coeffs():
    p = NumericalPolynomial.from_coeffs((1, 0, 0))
    q = NumericalPolynomial.from_coeffs((1, 0, -1))
    assert compare_eventual(p, q) == GREATER


def test_interpolate_known_lines():
    # values 1, 3, 5 of 2t+1 starting at 0
    p = interpolate([1, 3, 5], start=0)
    assert p.standard_coeffs == (0, 2, -1)
    assert render(p) == "2*t + 1"
    # the same value list anchored at 1 belongs to 2t-1
    q = interpolate([1, 3, 5], start=1)
    assert q.standard_coeffs == (0, 2, -3)
    for s in range(1, 6):
        assert q.evaluate(s) == 2 * s - 1


def test_interpolate_tetrahedral_values():
    # 1, 4, 10 are binomial(s+3, 3) at s = 0, 1, 2 truncated to degree 2
    p = interpolate([1, 4, 10], start=0)
    assert p.standard_coeffs == (3, -3, 1)
    assert [p.evaluate(s) for s in range(3)] == [1, 4, 10]


def test_interpolate_rejects_noninteger_values():
    with pytest.raises(InputNotNumericalPolynomial):
        interpolate([1, Fraction(5, 2), 4], start=0)


@pytest.mark.parametrize("start", [0, 10**9])
def test_interpolate_takes_1500_values(capsys, start):
    # s^2 = 2*binom(s+2, 2) - 3*binom(s+1, 1) + 1, recovered from more values
    # than one call per value could recurse through
    values = [s * s for s in range(start, start + 1500)]
    expected = (0,) * 1497 + (2, -3, 1)
    assert interpolate(values, start).standard_coeffs == expected
    argv = ["interpolate", "--values", ",".join(map(str, values)), "--start", str(start)]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["standard_coeffs"] == list(map(str, expected))


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, True, "3"], ids=repr)
def test_from_coeffs_rejects_non_integers(bad):
    with pytest.raises(InputNotNumericalPolynomial):
        NumericalPolynomial.from_coeffs((1, bad))


def test_from_coeffs_reads_integral_fractions_as_ints():
    (coeff,) = NumericalPolynomial.from_coeffs((Fraction(4, 2),)).standard_coeffs
    assert coeff == 2 and type(coeff) is int


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: NumericalPolynomial.from_coeffs(()), "at least one coefficient"),
        (lambda: NumericalPolynomial.from_coeffs((1, 2)).padded(0), "cannot pad downward"),
        (lambda: interpolate([1], -1), "need start >= 0 and a value, got start -1 and 1 values"),
        (lambda: interpolate([], 0), "need start >= 0 and a value, got start 0 and 0 values"),
    ],
    ids=["no coefficients", "pad downward", "negative start", "no values"],
)
def test_invalid_shapes_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_monomial_form_of_basis():
    # binomial(t+2, 2) = 1/2 t^2 + 3/2 t + 1
    coeffs = _power_coeffs(NumericalPolynomial.from_coeffs((1, 0, 0)))
    assert coeffs == (Fraction(1, 2), Fraction(3, 2), Fraction(1))


def test_differential_type():
    assert NumericalPolynomial.from_coeffs((0, 0, 5)).differential_type() == 0
    assert NumericalPolynomial.from_coeffs((0, 2, 1)).differential_type() == 1
    assert NumericalPolynomial.zero(3).differential_type() == 0


def test_json_roundtrip():
    p = NumericalPolynomial.from_coeffs((10**40, -3, 0))
    doc = to_json_dict(p)
    assert doc["m"] == 2
    assert doc["standard_coeffs"] == [str(10**40), "-3", "0"]
    assert from_json_dict(doc) == p
    # the CLI's documents add their rendering, which reads back as well
    assert from_json_dict({**doc, "render": render(p)}) == p
    # a coefficient of MAX_DIGITS digits, the longest any input number may be
    longest = -int("9" * MAX_DIGITS)
    doc = to_json_dict(NumericalPolynomial.from_coeffs((longest,)))
    assert from_json_dict(doc).standard_coeffs == (longest,)


def test_json_rejects_garbage():
    with pytest.raises(InputNotNumericalPolynomial):
        from_json_dict({"m": 1})
    with pytest.raises(InputNotNumericalPolynomial):
        from_json_dict({"m": 1, "standard_coeffs": ["1", "x"]})


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 1, "standard_coeffs": [1.5, 2]},
        {"m": 1, "standard_coeffs": [1, 2]},
        {"m": 2, "standard_coeffs": "123"},
        {"m": 0, "standard_coeffs": [True]},
        {"m": 0, "standard_coeffs": ["1_0"]},
        {"m": 0, "standard_coeffs": ["\u0663"]},
        {"m": 0, "standard_coeffs": ["+1"]},
        {"m": 0, "standard_coeffs": [" 1"]},
        {"m": 1, "standard_coeffs": ["1"]},
        {"m": -1, "standard_coeffs": []},
        {"m": 0, "standard_coeffs": ["-" + "1" * (MAX_DIGITS + 1)]},
    ],
    ids=["float", "int", "string", "bool", "underscore", "arabic_digit", "plus",
         "space", "wrong_count", "negative_m", "past_max_digits"],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(InputNotNumericalPolynomial):
        from_json_dict(doc)


def test_render_edge_cases():
    assert render(NumericalPolynomial.zero(2)) == "0"
    assert render(NumericalPolynomial.from_coeffs((0, -1))) == "-1"
    assert render(NumericalPolynomial.from_coeffs((1, -1, 0))) == "1/2*t^2 + 1/2*t"
    assert render(NumericalPolynomial.from_coeffs((0, 1, -1))) == "t"


def test_eventual_comparison_actually_eventual():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(0, 3)
        p = NumericalPolynomial.from_coeffs(
            tuple(rng.randint(-20, 20) for _ in range(m + 1))
        )
        q = NumericalPolynomial.from_coeffs(
            tuple(rng.randint(-20, 20) for _ in range(m + 1))
        )
        verdict = compare_eventual(p, q)
        # find a point where signs must agree from then on: past any root
        # of the difference, so try a crude large point
        s = 10**6
        diff = p.evaluate(s) - q.evaluate(s)
        if verdict == EQUAL:
            assert diff == 0
        elif verdict == GREATER:
            assert diff > 0
        else:
            assert diff < 0
