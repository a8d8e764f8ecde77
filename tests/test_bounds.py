import pytest

from diffdim import bounds
from diffdim.bounds import (
    ackermann,
    bound_report,
    char_order_bound,
    regularity_bound,
)
from diffdim.errors import ResourceLimit


def ackermann_reference(i, x, _memo={}):
    """Straight off the recursion, memoised; fine for tiny arguments."""
    key = (i, x)
    if key in _memo:
        return _memo[key]
    if i == 0:
        value = x + 1
    elif x == 0:
        value = ackermann_reference(i - 1, 1)
    else:
        value = ackermann_reference(i - 1, ackermann_reference(i, x - 1))
    _memo[key] = value
    return value


def test_ackermann_against_reference():
    for i in range(4):
        for x in range(6):
            assert ackermann(i, x) == ackermann_reference(i, x)
    assert ackermann(3, 3) == ackermann_reference(3, 3) == 61


def test_ackermann_closed_rows():
    assert ackermann(0, 41) == 42
    assert ackermann(1, 41) == 43
    assert ackermann(2, 41) == 85
    assert ackermann(3, 5) == 2**8 - 3


def test_ackermann_row_four():
    assert ackermann(4, 0) == 13
    assert ackermann(4, 1) == 65533
    assert ackermann(4, 2) == 2**65536 - 3


def test_ackermann_rejects_negative():
    with pytest.raises(ValueError):
        ackermann(-1, 0)
    with pytest.raises(ValueError):
        ackermann(0, -1)


def test_ackermann_digit_cap():
    with pytest.raises(ResourceLimit):
        ackermann(4, 3)
    with pytest.raises(ResourceLimit):
        ackermann(3, 10**6, digit_cap=1000)


@pytest.mark.parametrize(
    "r, n, message",
    [
        (1, 3, "order sum bound exceeds 1 decimal digits"),
        (1, 2, r"comparison level needs D\^2 with D of 5 bits, past 1 decimal digits"),
    ],
)
def test_bound_report_digit_cap_names_the_bound(r, n, message):
    with pytest.raises(ResourceLimit, match=message):
        bound_report(r, 2, n, digit_cap=1)


def test_char_order_bound_small_table():
    assert char_order_bound(5, 1, 7) == 5
    assert char_order_bound(3, 2, 2) == 12
    assert char_order_bound(2, 3, 1) == 9


def test_char_order_bound_four_derivations():
    # A(3, .) applied three times starting from 0: 5, 253, 2^256 - 3
    assert char_order_bound(3, 4, 1) == 2**256 - 3
    with pytest.raises(ResourceLimit):
        char_order_bound(4, 4, 1)


def test_char_order_bound_validation():
    with pytest.raises(ValueError):
        char_order_bound(1, 0, 1)
    with pytest.raises(ValueError):
        char_order_bound(-1, 1, 1)


def test_regularity_bound_examples():
    assert regularity_bound(0, 1, 1) == 0
    assert regularity_bound(4, 1, 3) == 3
    assert regularity_bound(1, 2, 1) == 10
    assert regularity_bound(0, 2, 2) == 0
    assert regularity_bound(2, 2, 1) == 38


def test_bound_report_values():
    report = bound_report(1, 2, 1)
    assert report.char_order == 2
    assert report.order_sum == 6
    assert report.regularity == 10
    assert report.coeff_bound == 36
    assert report.comparison_level == 1 * 2**3 * 2 * 36 + 1 == 577


def test_bound_report_pair_of_unknowns():
    report = bound_report(1, 2, 2)
    assert report.char_order == 4
    assert report.order_sum == 20
    assert report.regularity == 38
    assert report.coeff_bound == 800
    assert report.comparison_level == 12801


def test_bound_report_degenerate_order():
    report = bound_report(0, 2, 2)
    assert report.char_order == 0
    assert report.order_sum == 0
    assert report.regularity == 0
    # D = 0, yet the free module on two unknowns has the coefficient 2
    assert report.coeff_bound == 2
    assert report.comparison_level == 1


def test_bound_report_all_nonnegative_and_consistent():
    for r in range(4):
        for m in range(1, 4):
            for n in range(1, 4):
                if m == 3 and n == 3 and r >= 3:
                    continue  # genuinely beyond the default step budget
                report = bound_report(r, m, n)
                assert 0 <= report.regularity
                assert report.comparison_level >= 1
                assert report.coeff_bound >= 0
                assert report.regularity == regularity_bound(r, m, n)
                assert report.char_order == char_order_bound(r, m, n)


def test_bound_report_triple_exponential_corner():
    # three unknowns in three derivations at order 3 wants 6.3 million
    # Ackermann iterations in the last pass; the budget refuses
    assert char_order_bound(3, 3, 2) == 3 * (2**21 - 1)
    with pytest.raises(ResourceLimit):
        char_order_bound(3, 3, 3)


def test_bounds_monotone_in_order():
    previous = -1
    for r in range(8):
        current = char_order_bound(r, 2, 2)
        assert current > previous or (r == 0 and current == 0)
        previous = current


def test_step_budget_guard(monkeypatch):
    # forcing a tiny budget trips the iteration count check
    monkeypatch.setattr(bounds, "DEFAULT_STEP_BUDGET", 10)
    with pytest.raises(ResourceLimit):
        char_order_bound(12, 2, 3)


BOUND_CALLS = {
    "ackermann": lambda **caps: ackermann(2, 3, **caps),
    "char_order_bound": lambda **caps: char_order_bound(2, 2, 1, **caps),
    "regularity_bound": lambda **caps: regularity_bound(2, 2, 1, **caps),
    "bound_report": lambda **caps: bound_report(2, 2, 1, **caps),
}


@pytest.mark.parametrize("cap", ["digit_cap"])
@pytest.mark.parametrize("value", [0, -1, 2.5, True])
@pytest.mark.parametrize("name", sorted(BOUND_CALLS))
def test_caps_must_be_positive_integers(name, value, cap):
    with pytest.raises(ValueError, match=cap):
        BOUND_CALLS[name](**{cap: value})


BUDGET_CALLS = {
    # each needs more than one step of DEFAULT_STEP_BUDGET
    "ackermann": lambda: ackermann(4, 0),
    "char_order_bound": lambda: char_order_bound(2, 2, 1),
    "regularity_bound": lambda: regularity_bound(2, 2, 1),
    "bound_report": lambda: bound_report(2, 2, 1),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CALLS))
def test_step_budget_is_read_at_call_time(name, monkeypatch):
    BUDGET_CALLS[name]()
    monkeypatch.setattr(bounds, "DEFAULT_STEP_BUDGET", 1)
    with pytest.raises(ResourceLimit, match=r"exceeded 1 evaluation steps|budget 1\)"):
        BUDGET_CALLS[name]()


@pytest.mark.parametrize("name", sorted(BOUND_CALLS))
def test_step_budget_keyword_is_rejected(name):
    # the budget is no longer a per-call option; an old call fails loudly
    with pytest.raises(TypeError, match="step_budget"):
        BOUND_CALLS[name](step_budget=10)
