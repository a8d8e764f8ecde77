"""Property tests: the system grammar reads back every system it can render,
whatever whitespace and comments surround the tokens, and reads a monomial
the way parse_monomial does.  The expected equations are built from the
drawn terms alone, with no parse."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.diffrank import DifferentialMonomial, parse_monomial, rank_key  # noqa: E402
from diffdim.lindiff import parse_system  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)

# whitespace where the grammar allows it: around '=', ':', signs, '*' and
# the exponent entries, and at the ends of a line
gaps = st.sampled_from(["", " ", "  ", "\t"])
coefficients = st.fractions(-12, 12, max_denominator=5).filter(bool)


@st.composite
def monomial_texts(draw, m, n):
    """(text, exponents, unknown); the shorthand 'x<i>' for order zero."""
    xi = draw(st.tuples(*[st.integers(0, 3)] * m))
    unknown = draw(st.integers(1, n))
    if not any(xi) and draw(st.booleans()):
        return f"x{unknown}", xi, unknown
    entries = ",".join(f"{draw(gaps)}{e}{draw(gaps)}" for e in xi)
    return f"d[{entries}]x{unknown}", xi, unknown


@st.composite
def term_texts(draw, m, n, first):
    mono, xi, unknown = draw(monomial_texts(m, n))
    coeff = draw(coefficients)
    sign = "-" if coeff < 0 else ("+" if not first or draw(st.booleans()) else "")
    size = abs(coeff)
    if size == 1 and draw(st.booleans()):
        body = mono
    else:
        den = f"/{size.denominator}" if size.denominator > 1 or draw(st.booleans()) else ""
        body = f"{size.numerator}{den}{draw(gaps)}*{draw(gaps)}{mono}"
    return f"{sign}{draw(gaps)}{body}", (xi, unknown), coeff


@st.composite
def systems(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [f"{draw(gaps)}m{draw(gaps)}={draw(gaps)}{m}", f"n{draw(gaps)}={draw(gaps)}{n}"]
    equations = []
    for _ in range(draw(st.integers(0, 3))):
        terms = {}
        pieces = []
        for _ in range(draw(st.integers(1, 4))):
            text, key, coeff = draw(term_texts(m, n, first=not pieces))
            if key not in terms:
                terms[key] = coeff
                pieces.append(text)
        # the terms an equation reads back: by descending rank
        ranked = sorted(terms.items(), key=lambda term: rank_key(term[0]), reverse=True)
        equations.append(tuple((coeff, DifferentialMonomial(*key)) for key, coeff in ranked))
        body = draw(gaps).join(pieces)
        lines.append(f"{draw(gaps)}eq{draw(gaps)}:{draw(gaps)}{body}{draw(gaps)}")
    noisy = []
    for line in lines:
        noisy.append(line + draw(st.sampled_from(["", " # note", "#x1 = 2"])))
        noisy.extend(draw(st.lists(st.sampled_from(["", "  ", "# comment"]), max_size=2)))
    return "\n".join(noisy) + "\n", m, n, equations


@SETTINGS
@hypothesis.given(systems())
def test_parse_system_reads_back_rendered_systems(case):
    text, m, n, expected = case
    system = parse_system(text)
    assert (system.m, system.n) == (m, n)
    assert [eq.terms for eq in system.equations] == expected


@SETTINGS
@hypothesis.given(st.integers(1, 3).flatmap(lambda m: monomial_texts(m, 3)), gaps, gaps)
def test_parse_monomial_agrees_with_parse_system(case, before, after):
    text, xi, unknown = case
    hypothesis.assume(text.startswith("d["))  # the shorthand's width differs by design
    system = parse_system(f"m = {len(xi)}\nn = 3\neq: {text}\n")
    mono = system.equations[0].terms[0][1]
    assert mono == DifferentialMonomial(xi, unknown)
    assert parse_monomial(before + text + after) == mono
