"""The paper's effective bounds, held against systems the code solves.

``diffdim.bounds`` encodes the paper's bounds for a system of order r in n
unknowns over m derivations, and ``bound_report`` gives them all.  The tests
here read them off computed answers: the fixtures, the classical corpus of
``tests/test_classical.py`` and systems drawn by the property tests' own
strategy, wherever ``bound_report`` answers under its digit cap and step
budget.  On the corpus that leaves out probe4.sys, Killing's and the
conformal Killing equations for m >= 4, Laplace's equation in R^6,
Cauchy-Riemann in C^2 and Maxwell.

The bounds on orders speak of a characteristic set, and the tests read the
reduced Groebner basis.  For a linear module the two have the same leaders:
every element of the module reduces to zero by a characteristic set A, so
A's leaders generate the module's leading derivatives; A is autoreduced, so
they are the minimal generators, and so are the reduced basis's leaders.
"""

from itertools import combinations
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.bounds import bound_report  # noqa: E402
from diffdim.errors import ResourceLimit  # noqa: E402
from diffdim.expsets import stabilisation_level  # noqa: E402
from diffdim.lindiff import (  # noqa: E402
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    parse_system,
)
from diffdim.numpoly import compare_eventual  # noqa: E402
from test_classical import CLASSICAL, maxwell  # noqa: E402
from test_prolongation_properties import systems  # noqa: E402

DATA = Path(__file__).parent / "data"

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)

# found by a seeded random_system search at m = 2, n = 1: r = 3, and the
# basis leaders are d[0,5], d[1,3], d[3,0] and d[2,1], so the largest leader
# order is 5 = 2r - 1, one below C = 2r = 6
NEAR_SHARP = """m = 2
n = 1
eq: -8*d[2,1]x1 + 8*d[1,0]x1 - 8*d[3,0]x1 + 7*d[0,0]x1
eq: -7*d[0,3]x1 - 3*d[0,0]x1 + 3*d[0,2]x1 - 6*d[3,0]x1
"""


def report(system):
    """``bound_report`` for the system's (r, m, n), or None past its caps."""
    try:
        return bound_report(system.order, system.m, system.n)
    except ResourceLimit:
        return None


def _corpus():
    yield from ((path.name, path.read_text()) for path in sorted(DATA.glob("*.sys")))
    yield from ((name, text) for name, (text, _) in CLASSICAL.items())
    yield "maxwell", maxwell()
    yield "near-sharp", NEAR_SHARP


CORPUS = {
    name: (system, bounds)
    for name, text in _corpus()
    if (bounds := report(system := parse_system(text))) is not None
}


def assert_leader_order_within_char_order(system, bounds):
    """The paper's order bound: a characteristic set of a system of order r
    has order at most C = ``char_order_bound(r, m, n)``.  Its leaders are
    the reduced basis's (see the module docstring), so no basis element's
    leader has order above C."""
    gb = module_groebner(system)
    assert max((eq.order for eq in gb.equations), default=0) <= bounds.char_order


def assert_floor_within_regularity(system, bounds):
    """The paper's regularity bound: the count of s-jets is polynomial from
    s = ``regularity_bound(r, m, n)`` on.  The count is read off the leader
    sets of the reduced basis, a characteristic set's (see the module
    docstring), and each set's count is polynomial from its
    ``stabilisation_level``: floor, their largest, is at most the bound."""
    sets = leader_profile(module_groebner(system)).sets
    assert max((stabilisation_level(es) for _, es in sets), default=0) <= bounds.regularity


def assert_coefficients_within_bound(system, bounds):
    """The paper's coefficient bound: the Kolchin polynomial's coefficients
    are at most ``coeff_bound`` = n * max(D, 1)^m in absolute value.  The ones
    checked are the standard coefficients a_i of sum a_i * C(s + i, i).
    The polynomial is read off the reduced basis's leaders, a characteristic
    set's (see the module docstring)."""
    omega = kolchin_polynomial(system)
    assert all(abs(a) <= bounds.coeff_bound for a in omega.standard_coeffs)


def assert_comparison_level_decides(a, b, bounds):
    """The paper's comparison level: two Kolchin polynomials of systems of
    the same (r, m, n), whose coefficients are bounded as above, compare at
    ``comparison_level`` as they do eventually.  Both are read off the
    reduced bases' leaders, characteristic sets' (see the module
    docstring)."""
    p, q = kolchin_polynomial(a), kolchin_polynomial(b)
    level = bounds.comparison_level
    diff = p.evaluate(level) - q.evaluate(level)
    assert (diff > 0) - (diff < 0) == compare_eventual(p, q)


STATEMENTS = {
    "char-order": assert_leader_order_within_char_order,
    "regularity": assert_floor_within_regularity,
    "coefficients": assert_coefficients_within_bound,
}


@pytest.mark.parametrize("name, statement", [
    (name, statement) for name in sorted(CORPUS) for statement in STATEMENTS
])
def test_bound_holds_on_the_corpus(name, statement):
    STATEMENTS[statement](*CORPUS[name])


@SETTINGS
@hypothesis.given(systems())
def test_bounds_hold_on_drawn_systems(system):
    bounds = report(system)
    hypothesis.assume(bounds is not None)
    assert_leader_order_within_char_order(system, bounds)
    assert_floor_within_regularity(system, bounds)
    assert_coefficients_within_bound(system, bounds)


@pytest.mark.parametrize("a, b", [
    pytest.param(a, b, id=f"{a}-{b}") for a, b in combinations(sorted(CORPUS), 2)
    if (CORPUS[a][1].r, CORPUS[a][1].m, CORPUS[a][1].n)
    == (CORPUS[b][1].r, CORPUS[b][1].m, CORPUS[b][1].n)
])
def test_comparison_level_decides_on_the_corpus(a, b):
    assert_comparison_level_decides(CORPUS[a][0], CORPUS[b][0], CORPUS[a][1])


@st.composite
def same_shape_pairs(draw):
    a = draw(systems())
    return a, draw(systems(a.m, a.n, a.order))


@SETTINGS
@hypothesis.given(same_shape_pairs())
def test_comparison_level_decides_on_drawn_pairs(pair):
    a, b = pair
    assert a.order == b.order
    bounds = report(a)
    hypothesis.assume(bounds is not None)
    assert_comparison_level_decides(a, b, bounds)


def test_near_sharp_system():
    # the largest leader order is 2r - 1 = 5, one below C: a C read one too
    # low at m = 2 fails here
    system = parse_system(NEAR_SHARP)
    bounds = report(system)
    gb = module_groebner(system)
    assert (system.order, bounds.char_order) == (3, 6)
    assert [(eq.leader.exponents, eq.order) for eq in gb.equations] == [
        ((0, 5), 5), ((1, 3), 4), ((3, 0), 3), ((2, 1), 3)
    ]
    sets = leader_profile(gb).variable_sets
    assert (max(stabilisation_level(es) for es in sets), bounds.regularity) == (4, 82)
    assert kolchin_polynomial(system).standard_coeffs == (0, 0, 9)
    assert kolchin_via_prolongation(system).standard_coeffs == (0, 0, 9)
