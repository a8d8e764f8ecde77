"""Malformed input raises ParseError with its position in every text format.

Numbers are ASCII digits only: superscripts, other scripts' digits, an
underscore separator or a '+' sign are rejected wherever a natural is read.
"""

import sys

import pytest

from diffdim.diffrank import parse_leader_profile, parse_monomial
from diffdim.errors import ParseError
from diffdim.expsets import parse_exponent_set
from diffdim.lindiff import parse_system

HEAD = "m = 1\nn = 1\n"

# a number one digit past the interpreter's integer-string limit, where it
# has one (Python 3.11 on), on which int() raises a bare ValueError
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (_LIMIT + 1)


def long_number(name, *values):
    skip = pytest.mark.skipif(not _LIMIT, reason="no integer-string limit")
    return pytest.param(*values, id=f"long {name}", marks=skip)


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
    (parse_system, "m = 0\nn = 1\n"),
    (parse_system, "m = 1\nm = 2\nn = 1\n"),
    (parse_system, "m = 2\neq: 1*x1\n"),  # an equation before the n header
    (parse_system, "nonsense\n"),
    # single monomials
    (parse_monomial, "x²"),
    (parse_monomial, "x٣"),
    (parse_monomial, "x1_0"),
    (parse_monomial, "d[²]x1"),
    (parse_monomial, "d[1_0]x1"),
    (parse_monomial, "d[+3]x1"),
    (parse_monomial, "d[1"),
    (parse_monomial, "*x1"),
    # numbers past the integer-string limit, in every reader
    long_number("exponent-set entry", parse_exponent_set, f"1, {LONG}\n"),
    long_number("profile index", parse_leader_profile, f"{LONG}: 1, 0\n"),
    long_number("profile entry", parse_leader_profile, f"1: {LONG}, 0\n"),
    long_number("header", parse_system, f"m = {LONG}\nn = 1\n"),
    long_number("monomial index", parse_monomial, f"x{LONG}"),
    long_number("monomial exponent", parse_monomial, f"d[{LONG}]x1"),
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
    long_number("coefficient", f"eq: {LONG}*x1"),
    long_number("denominator", f"eq: 1/{LONG}*x1"),
    long_number("exponent", f"eq: 1*d[{LONG}]x1"),
    long_number("unknown index", f"eq: 1*x{LONG}"),
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
    # each error at its column, with a fragment of its message
    cases = {
        "eq: 1*x1 x1": (10, "expected '+' or '-'"),  # second term without a sign
        "eq: 1*x1 * x1": (10, "got '*'"),
        "eq: 0*x1": (5, "zero coefficient"),  # at the number
        "eq: 3/0*x1": (5, "zero denominator"),
        "eq: 1*x1 + 3": (13, "constant"),  # where '*' was expected
        "eq: 1*x1 +": (11, "expected a monomial"),  # after a trailing sign
        "  eq :  1*d[1]x2": (11, "unknown x2"),  # out of range, at the monomial
        "eq: 1*d[1,0]x1": (7, "exponent list has 2 entries"),
        "eq: 1*d[1]x1 + 2*d[1]x1": (18, "duplicate monomial"),  # at the second
        # the same monomial spelled twice, or past m = 1's first layout (fields
        # below 512), so that the parse starts over: found by its packed key
        "eq: 1*d[600]x1 + 2*d[600]x1": (20, "duplicate monomial"),
        "eq: 1*d[0]x1 + 2*x1": (18, "duplicate monomial"),
        "eq: 1*d[01]x1 + 2*d[1]x1": (19, "duplicate monomial"),
        "eq:": (4, "empty equation"),
    }
    for line, (column, fragment) in cases.items():
        with pytest.raises(ParseError) as info:
            parse_system(HEAD + line + "\n")
        assert (info.value.line, info.value.column) == (3, column), line
        assert fragment in str(info.value), line


def test_a_missing_header_raises_with_no_line():
    # the header is missing from the whole text, not from one of its lines
    with pytest.raises(ParseError, match="missing m or n header") as info:
        parse_system("m = 1\n")
    assert info.value.line is None
