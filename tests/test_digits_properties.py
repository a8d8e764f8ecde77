"""Property tests: ``errors.over`` is the exact digit test, and ``brief``
states a long number's exact count of digits."""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.errors import brief, over  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None)


@st.composite
def near_powers(draw):
    """A natural number within 3 of 10^k or 2^b, where a count of digits read
    off the bit length is most often wrong, and a count within 2 of its own."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 5000))
        base, count = 10**k, k
    else:
        b = draw(st.integers(0, 16000))
        base, count = 2**b, b * 30103 // 100000
    return max(0, base + draw(st.integers(-3, 3))), max(0, count + draw(st.integers(-2, 2)))


@SETTINGS
@hypothesis.given(near_powers(), st.one_of(st.none(), st.integers(0, 6000)))
def test_over_is_the_exact_digit_test(near, digits):
    value, count = near
    digits = count if digits is None else digits
    assert over(value, digits) == (value >= 10**digits)


@SETTINGS
@hypothesis.given(near_powers())
def test_brief_states_the_exact_count_of_digits(near):
    value, _ = near
    text = brief(value)
    stated = re.fullmatch(r"a ([0-9]+)-digit number", text)
    if stated is None:
        assert text == str(value) and value < 10**30
    else:
        digits = int(stated[1])
        assert 10 ** (digits - 1) <= value < 10**digits and digits > 30
