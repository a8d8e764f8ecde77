"""Malformed input raises ParseError with its position in every text format.

Numbers are ASCII digits only: superscripts, other scripts' digits, an
underscore separator or a '+' sign are rejected wherever a natural is read.
"""

import pytest

from diffdim.diffrank import parse_leader_profile, parse_monomial
from diffdim.errors import ParseError
from diffdim.expsets import parse_exponent_set
from diffdim.lindiff import parse_system

HEAD = "m = 1\nn = 1\n"

MALFORMED = [
    # exponent-set rows
    (parse_exponent_set, "1, ²\n"),
    (parse_exponent_set, "1, ٣\n"),
    (parse_exponent_set, "1_0, 2\n"),
    (parse_exponent_set, "+3, 2\n"),
    # leader-profile indices and tails
    (parse_leader_profile, "1: ², 0\n"),
    (parse_leader_profile, "٣: 1, 0\n"),
    (parse_leader_profile, "1_0: 1, 0\n"),
    (parse_leader_profile, "+1: 1, 0\n"),
    (parse_leader_profile, "1: +3, 0\n"),
    # system headers
    (parse_system, "m = ²\nn = 1\n"),
    (parse_system, "m = ٣\nn = 1\n"),
    (parse_system, "m = 1_0\nn = 1\n"),
    (parse_system, "m = 1\nn = +3\n"),
    # single monomials
    (parse_monomial, "x²"),
    (parse_monomial, "x٣"),
    (parse_monomial, "x1_0"),
    (parse_monomial, "d[²]x1"),
    (parse_monomial, "d[1_0]x1"),
    (parse_monomial, "d[+3]x1"),
    (parse_monomial, "d[1"),
    (parse_monomial, "*x1"),
]

MALFORMED_EQUATIONS = [
    "eq: ²*x1",
    "eq: ٣*x1",
    "eq: 1_0*x1",
    "eq: 1/²*x1",
    "eq: 1*x²",
    "eq: 1*x1_0",
    "eq: 1*d[²]x1",
    "eq: 1*d[1_0]x1",
    "eq: 1*d[+3]x1",
    "eq: 1*d[1x1",
    "eq: 1*d[1",
    "eq: * x1",
    "eq: 2 ** x1",
    "eq: 1*x1 * x1",
    "eq: 1*x1 +",
    "eq: 1*x1 + 3",
    "eq: 1*x1 x1",
]


@pytest.mark.parametrize("parser, text", MALFORMED)
def test_malformed_input_raises_parse_error_with_line(parser, text):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert info.value.line is not None


@pytest.mark.parametrize("line", MALFORMED_EQUATIONS)
def test_malformed_equation_raises_parse_error_with_column(line):
    with pytest.raises(ParseError) as info:
        parse_system(HEAD + line + "\n")
    assert info.value.line == 3
    assert info.value.column is not None


def test_equation_error_columns():
    cases = {
        "eq: 1*x1 x1": 10,  # second term without a sign
        "eq: 0*x1": 5,  # zero coefficient, at the number
        "eq: 3/0*x1": 5,  # zero denominator, at the number
        "eq: 1*x1 + 3": 13,  # constant term, where '*' was expected
        "eq: 1*x1 +": 11,  # trailing sign, where the monomial was expected
        "  eq :  1*d[1]x2": 11,  # unknown out of range, at the monomial
    }
    for line, column in cases.items():
        with pytest.raises(ParseError) as info:
            parse_system(HEAD + line + "\n")
        assert (info.value.line, info.value.column) == (3, column), line
