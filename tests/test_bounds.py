import re
import subprocess
import sys

import pytest

from diffdim import bounds
from diffdim.bounds import (
    ackermann,
    bound_report,
    char_order_bound,
    regularity_bound,
)
from diffdim.errors import ResourceLimit
from test_cli import IMPORT_ROOT


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
    # an argument longer than the interpreter's default integer-string limit
    # is named in a message by its size, and only when a cap is hit
    assert ackermann(1, 10**5000) == 10**5000 + 2
    with pytest.raises(ResourceLimit, match=r"^ackermann\(1, a 5001-digit number\) exceeds 4999 "):
        ackermann(1, 10**5000, digit_cap=4999)


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
    "r, n, cap, message",
    [
        (1, 3, 1, "order sum bound exceeds 1 decimal digits"),
        # D = 72 fits, and D^2 >= 2^12 does not
        (1, 3, 2, r"comparison level needs D\^2 with D of 7 bits, past 2 decimal digits"),
    ],
)
def test_bound_report_digit_cap_names_the_bound(r, n, cap, message):
    with pytest.raises(ResourceLimit, match=message):
        bound_report(r, 2, n, digit_cap=cap)


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


def report(r, m, n):
    def call(cap):
        return bound_report(r, m, n, digit_cap=cap)
    return call


BOUND_FIELDS = ("char_order", "order_sum", "regularity", "comparison_level", "coeff_bound")
# each row: a call of the cap, a cap, what the call gives at that cap (a value
# of exactly that many digits, a report whose widest bound has them, or the
# message of a later check), and the message it raises at one digit less
BOUNDARY = {
    "ackermann-row-0": (lambda cap: ackermann(0, 99, cap), 3, 100,
                        r"ackermann\(0, 99\) exceeds 2 decimal digits"),
    "ackermann-row-1": (lambda cap: ackermann(1, 9998, cap), 5, 10000,
                        r"ackermann\(1, 9998\) exceeds 4 decimal digits"),
    "ackermann-row-2": (lambda cap: ackermann(2, 49998, cap), 5, 99999,
                        r"ackermann\(2, 49998\) exceeds 4 decimal digits"),
    # the row-3 pre-test: 2^(x+3) - 3 >= 2^(x+2), here 128 >= 10^2
    "ackermann-row-3": (lambda cap: ackermann(3, 5, cap), 3, 253,
                        r"ackermann row 3 would produce 2\^8 - 3, more than 2 decimal digits"),
    # 2^13301 - 3 has exactly 4,004 digits, within a bit of 10^4004
    "ackermann-row-3-4004": (lambda cap: ackermann(3, 13298, cap), 4004, 2**13301 - 3,
                             r"ackermann row 3 would produce 2\^13301 - 3, "
                             r"more than 4003 decimal digits"),
    "ackermann-row-4": (lambda cap: ackermann(4, 1, cap), 5, 65533,
                        r"ackermann row 3 would produce 2\^16 - 3, more than 4 decimal digits"),
    "ackermann-row-4-19729": (lambda cap: ackermann(4, 2, cap), 19729, 2**65536 - 3,
                              r"ackermann row 3 would produce 2\^65536 - 3, "
                              r"more than 19728 decimal digits"),
    # the return check, after the pre-test let 2^255 (77 digits) pass
    "char_order_bound": (lambda cap: char_order_bound(3, 4, 1, cap), 78, 2**256 - 3,
                         r"ackermann\(3, 253\) exceeds 77 decimal digits"),
    "regularity_bound": (lambda cap: regularity_bound(1, 2, 3, cap), 3, 142,
                         r"regularity bound exceeds 2 decimal digits"),
    # C = D = 10, comparison level 41
    "report-char_order": (report(10, 1, 1), 2, bound_report(10, 1, 1),
                          r"ackermann\(0, 9\) exceeds 1 decimal digits"),
    # D = 20: at cap 2 the D^2 pre-test refuses, at cap 1 D itself
    "report-order_sum": (report(1, 2, 2), 2, r"comparison level needs D\^2 with D of 5 bits, ",
                         r"order sum bound exceeds 1 decimal digits"),
    # the D^2 pre-test: D = 72 and D^2 >= 2^12 = 4096; at cap 4 it passes
    "report-D^m": (report(1, 2, 3), 4, r"comparison level exceeds 4 decimal digits",
                   r"comparison level needs D\^2 with D of 7 bits, past 3 decimal digits"),
    "report-comparison_level": (report(1, 2, 1), 3, bound_report(1, 2, 1),
                                r"comparison level exceeds 2 decimal digits"),
    "report-coeff_bound": (report(0, 1, 10**6), 7, bound_report(0, 1, 10**6),
                           r"coefficient bound exceeds 6 decimal digits"),
    # the regularity field, m*(D - 1), is at most the D^m pre-test's 2^((bits-1)*m),
    # so its check never fires first in bound_report: regularity_bound covers it
}


@pytest.mark.parametrize("call, cap, at_cap, below", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_each_bound_is_returned_at_its_digits_and_refused_one_below(call, cap, at_cap, below):
    if isinstance(at_cap, str):
        with pytest.raises(ResourceLimit, match=at_cap):
            call(cap)
    else:
        value = call(cap)
        assert value == at_cap
        if isinstance(value, bounds.BoundReport):
            value = max(getattr(value, field) for field in BOUND_FIELDS)
        assert 10 ** (cap - 1) <= value < 10**cap
    with pytest.raises(ResourceLimit) as info:
        call(cap - 1)
    assert re.fullmatch(below, info.value.description)


def test_comparison_level_at_d_zero_builds_no_factorial(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "factorial", lambda m: calls.append(m) or 1)
    assert bound_report(0, 10**6, 1).comparison_level == 1
    assert calls == []


def test_char_order_bound_stops_at_a_fixed_point():
    # a pass that returns its own input (r = 0, or m = 1 where A(0, t) = t + 1)
    # ends the iteration; a child under a CPU limit makes one that runs all
    # n passes fail rather than hang
    resource = pytest.importorskip("resource")
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from diffdim.bounds import char_order_bound; "
        "print(char_order_bound(0, 1, 10**30), char_order_bound(5, 1, 10**12), "
        "char_order_bound(0, 4, 10**30))"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, IMPORT_ROOT], capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (10, 10)),
    )
    assert (done.returncode, done.stdout) == (0, "0 5 0\n"), done.stderr
