"""Property tests: the power basis, interpolation and eventual comparison
all agree with plain evaluation of a numerical polynomial."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.bounds import bound_report  # noqa: E402
from diffdim.numpoly import (  # noqa: E402
    EQUAL,
    GREATER,
    LESS,
    NumericalPolynomial,
    _power_coeffs,
    compare_eventual,
    interpolate,
)

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)

polynomials = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).map(
    NumericalPolynomial.from_coeffs
)

# (r, m, n) shapes whose comparison level is small enough to evaluate at
SHAPES = ((1, 1, 1), (3, 1, 2), (1, 2, 1), (1, 2, 2), (1, 3, 1))


@st.composite
def bounded_pairs(draw):
    """A bound report and two polynomials of degree at most m whose
    standard coefficients lie within its coefficient bound."""
    report = bound_report(*draw(st.sampled_from(SHAPES)))
    cap = report.coeff_bound
    coeffs = st.lists(st.integers(-cap, cap), min_size=report.m + 1, max_size=report.m + 1)
    return report, NumericalPolynomial.from_coeffs(draw(coeffs)), NumericalPolynomial.from_coeffs(draw(coeffs))


@SETTINGS
@hypothesis.given(polynomials, st.integers(0, 50))
def test_power_coeffs_evaluate_like_the_polynomial(p, s):
    powers = reversed(_power_coeffs(p))  # b_0, b_1, ..., b_m
    assert sum(b * Fraction(s) ** k for k, b in enumerate(powers)) == p.evaluate(s)


@SETTINGS
@hypothesis.given(polynomials, st.integers(0, 40))
def test_interpolation_inverts_evaluation(p, start):
    m = p.degree_bound
    values = [p.evaluate(s) for s in range(start, start + m + 1)]
    assert interpolate(values, start) == p


@SETTINGS
@hypothesis.given(bounded_pairs())
def test_compare_eventual_is_decided_at_the_comparison_level(case):
    report, p, q = case
    diff = p.evaluate(report.comparison_level) - q.evaluate(report.comparison_level)
    expected = GREATER if diff > 0 else LESS if diff < 0 else EQUAL
    assert compare_eventual(p, q) == expected
