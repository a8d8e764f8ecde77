"""Property tests: the reduced Groebner basis depends only on the submodule
the equations generate, not on how the equations are written down."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from diffdim.lindiff import LinearDiffSystem, LinearEquation, module_groebner  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=30, deadline=None)

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
coefficients = st.fractions(-6, 6, max_denominator=3).filter(bool)
equations = st.dictionaries(
    st.tuples(exponents, st.integers(1, 2)), coefficients, min_size=1, max_size=4
).map(LinearEquation.from_terms)
systems = st.lists(equations, min_size=1, max_size=3).map(
    lambda eqs: LinearDiffSystem(2, 2, tuple(eqs))
)


def with_equations(system, eqs):
    return LinearDiffSystem(system.m, system.n, tuple(eqs))


@SETTINGS
@hypothesis.given(systems, st.randoms(use_true_random=False))
def test_groebner_unchanged_by_permuting_equations(system, rng):
    eqs = list(system.equations)
    rng.shuffle(eqs)
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


@SETTINGS
@hypothesis.given(systems, st.data())
def test_groebner_unchanged_by_scaling_an_equation(system, data):
    k = data.draw(st.integers(0, len(system.equations) - 1))
    factor = data.draw(coefficients)
    eqs = list(system.equations)
    eqs[k] = LinearEquation(tuple((factor * c, mono) for c, mono in eqs[k].terms))
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)


@SETTINGS
@hypothesis.given(systems, st.data())
def test_groebner_unchanged_by_appending_derived_equation(system, data):
    # theta * e_i + c * e_j lies in the submodule already
    count = len(system.equations)
    i, j = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
    theta, c = data.draw(exponents), data.draw(st.fractions(-6, 6, max_denominator=3))
    derived: dict = {}
    for scale, shift, eq in ((Fraction(1), theta, system.equations[i]),
                             (c, (0, 0), system.equations[j])):
        for coeff, mono in eq.terms:
            key = (tuple(a + b for a, b in zip(mono.exponents, shift)), mono.var_index)
            derived[key] = derived.get(key, 0) + scale * coeff
    derived = {key: v for key, v in derived.items() if v}
    hypothesis.assume(derived)
    eqs = system.equations + (LinearEquation.from_terms(derived),)
    assert module_groebner(with_equations(system, eqs)) == module_groebner(system)
