import random
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from diffdim import lindiff
from diffdim.cli import main
from diffdim.diffrank import DifferentialMonomial
from diffdim.errors import DiffdimError, ParseError, ResourceLimit
from diffdim.expsets import stabilisation_level
from diffdim.lindiff import (
    DEFAULT_GB_STEP_CAP,
    DEFAULT_MATRIX_CELL_CAP,
    LinearDiffSystem,
    LinearEquation,
    _groebner_with_margin,
    _pivot_orders,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    omega_at_least,
    omega_equals,
    parse_system,
    prolongation_dimension,
)
from diffdim.numpoly import NumericalPolynomial

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_system((DATA / name).read_text())


def equation(*terms):
    return LinearEquation(
        tuple((Fraction(c), DifferentialMonomial(xi, i)) for c, xi, i in terms)
    )


# ---------------------------------------------------------------- parsing


def test_parse_heat_system():
    system = load("heat.sys")
    assert system.m == 2 and system.n == 1
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.leader == DifferentialMonomial((0, 2), 1)
    assert eq.order == 2


def test_parse_accepts_shorthand_and_fractions():
    system = parse_system("m = 2\nn = 1\neq: 1/2*d[1,0]x1 + x1\n")
    eq = system.equations[0]
    assert eq.terms[0][0] == Fraction(1, 2)
    assert eq.terms[1][1] == DifferentialMonomial((0, 0), 1)
    assert eq.terms[1][0] == Fraction(1)


def test_parse_bare_and_signed_monomials():
    system = parse_system("m = 1\nn = 2\neq: -d[1]x2 + 3*x1\n")
    eq = system.equations[0]
    assert eq.terms[0][0] == Fraction(-1)
    assert eq.terms[0][1] == DifferentialMonomial((1,), 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_system("m = 2\nn = 1\neq: 1*d[1,0]x1 * d[0,1]x1\n")
    assert info.value.line == 3
    assert info.value.column is not None
    with pytest.raises(ParseError) as info:
        parse_system("m = 2\nn = 1\neq: 1*d[1,0]x1 + 5\n")
    assert "constant" in str(info.value)


def test_parse_rejects_bad_shapes():
    with pytest.raises(ParseError):
        parse_system("m = 2\neq: 1*x1\n")  # n missing before equations
    with pytest.raises(ParseError):
        parse_system("m = 2\nn = 1\neq: 1*d[1]x1\n")  # wrong exponent width
    with pytest.raises(ParseError):
        parse_system("m = 1\nn = 1\neq: 1*d[1]x2\n")  # unknown out of range
    with pytest.raises(ParseError):
        parse_system("m = 1\nn = 1\neq: 0*d[1]x1\n")  # zero coefficient
    with pytest.raises(ParseError):
        parse_system("m = 1\nn = 1\neq: 1/0*d[1]x1\n")  # zero denominator
    with pytest.raises(ParseError):
        parse_system("m = 1\nn = 1\neq: 1*d[1]x1 + 2*d[1]x1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_system("m = 1\nn = 1\neq:\n")  # empty equation
    with pytest.raises(ParseError):
        parse_system("m = 1\nm = 2\nn = 1\n")  # duplicate header
    with pytest.raises(ParseError):
        parse_system("nonsense\n")
    with pytest.raises(ParseError):
        parse_system("m = 1\n")  # n never declared


def test_equation_sorted_by_descending_rank():
    eq = equation((1, (1, 0), 1), (2, (0, 2), 1), (3, (0, 0), 1))
    ranks = [(mono.order, mono.var_index, mono.exponents) for _, mono in eq.terms]
    assert ranks == sorted(ranks, reverse=True)
    assert eq.leader.exponents == (0, 2)


# ---------------------------------------------------------------- groebner


def test_groebner_of_heat_is_itself():
    gb = module_groebner(load("heat.sys"))
    assert len(gb.equations) == 1
    eq = gb.equations[0]
    assert eq.terms[0][0] == 1  # monic
    assert eq.leader == DifferentialMonomial((0, 2), 1)


def test_groebner_cauchy_riemann_adds_laplacian():
    gb = module_groebner(load("cauchy_riemann.sys"))
    leaders = {(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations}
    assert leaders == {((2, 0), 1), ((1, 0), 2), ((0, 1), 2)}
    laplacian = [eq for eq in gb.equations if eq.leader.var_index == 1][0]
    assert {(mono.exponents, str(c)) for c, mono in laplacian.terms} == {
        ((2, 0), "1"),
        ((0, 2), "1"),
    }


def test_groebner_single_component_pair_needs_spair():
    # leaders d1 x1 and d2 x1 with cross terms in x2: the S-pair survives
    system = LinearDiffSystem(
        2,
        2,
        (
            equation((1, (1, 0), 1), (1, (0, 0), 2)),
            equation((1, (0, 1), 1), (1, (0, 0), 2)),
        ),
    )
    gb = module_groebner(system)
    leaders = {(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations}
    # d1 x2 - d2 x2 comes out of the pair (up to sign), with leader d1 x2
    assert ((1, 0), 2) in leaders


def test_groebner_is_reduced():
    gb = module_groebner(load("cauchy_riemann.sys"))
    leads = [(eq.leader.exponents, eq.leader.var_index) for eq in gb.equations]
    for eq in gb.equations:
        assert eq.terms[0][0] == 1
        for _, mono in eq.terms[1:]:
            for lxi, lvar in leads:
                divisible = lvar == mono.var_index and all(
                    a <= b for a, b in zip(lxi, mono.exponents)
                )
                assert not divisible
    # leaders pairwise incomparable
    for i, (xi_a, var_a) in enumerate(leads):
        for j, (xi_b, var_b) in enumerate(leads):
            if i != j and var_a == var_b:
                assert not all(a <= b for a, b in zip(xi_a, xi_b))


def test_groebner_deterministic_under_input_order():
    text_a = "m = 2\nn = 2\neq: 1*d[0,1]x2 - 1*d[1,0]x1\neq: 1*d[1,0]x2 + 1*d[0,1]x1\n"
    text_b = "m = 2\nn = 2\neq: 1*d[1,0]x2 + 1*d[0,1]x1\neq: 1*d[0,1]x2 - 1*d[1,0]x1\n"
    assert module_groebner(parse_system(text_a)) == module_groebner(parse_system(text_b))


PINNED_BASES = {
    # system: (margin, basis as "coefficient*exponents x unknown" lines)
    "cauchy_riemann.sys": (0, ["1*(2, 0)x1 1*(0, 2)x1", "1*(1, 0)x2 1*(0, 1)x1",
                               "1*(0, 1)x2 -1*(1, 0)x1"]),
    "free2.sys": (0, []),
    "heat.sys": (0, ["1*(0, 2)x1 -1*(1, 0)x1"]),
    "laplace.sys": (0, ["1*(2, 0)x1 1*(0, 2)x1"]),
    "n300.sys": (0, ["1*(2,)x1 1*(0,)x300", "1*(1,)x300 1*(0,)x1"]),
    "ode2.sys": (0, ["1*(2,)x1"]),
    "wave.sys": (0, ["1*(2, 0)x1 -1*(0, 2)x1"]),
    "unit-ideal": (4, ["1*(0, 0)x1"]),
    "unit-x1": (1, ["1*(2, 0)x2 1*(0, 1)x2", "1*(1, 1)x2 1*(0, 0)x2",
                    "1*(0, 2)x2 -1*(1, 0)x2", "1*(0, 0)x1"]),
    "monomials-6": (0, [f"1*({i}, {5 - i})x1" for i in range(5, -1, -1)]),
    "monomials-binomial": (2, ["1*(0, 2)x1", "1*(1, 0)x1"]),
}
# the unit ideal, reached only two levels past the equations' order
UNIT_IDEAL = (
    "m = 2\nn = 1\n"
    "eq: -3*d[2,0]x1 - 6*d[1,0]x1 + 9*d[0,0]x1 - 2*d[0,1]x1\n"
    "eq: -6*d[0,2]x1 - 3*d[1,1]x1 + 7*d[0,0]x1 - 5*d[0,1]x1\n"
    "eq: -9*d[1,1]x1 + 3*d[2,0]x1 + 1*d[0,1]x1 - 3*d[0,0]x1\n"
)
# x1 is a leader from the start, and x2's S-pair adds d[0,2]x2 - d[1,0]x2
# after it: completion may stop only once every unknown is a leader
UNIT_X1 = "m = 2\nn = 2\neq: x1\neq: d[2,0]x2 + d[0,1]x2\neq: d[1,1]x2 + x2\n"
# six monomials of order 5: none of their 15 S-pairs is made
MONOMIALS_6 = "m = 2\nn = 1\n" + "".join(f"eq: d[{i},{5 - i}]x1\n" for i in range(6))
# the pairs of the binomial with each monomial are still made, and they
# reach d[1,0]x1 only at level 3, two above its order: margin 2
MONOMIALS_BINOMIAL = "m = 2\nn = 1\neq: d[2,0]x1\neq: d[0,2]x1\neq: d[1,1]x1 + d[1,0]x1\n"
INLINE_SYSTEMS = {
    "unit-ideal": UNIT_IDEAL,
    "unit-x1": UNIT_X1,
    "monomials-6": MONOMIALS_6,
    "monomials-binomial": MONOMIALS_BINOMIAL,
}


def basis_lines(gb):
    return [
        " ".join(f"{c}*{mono.exponents}x{mono.var_index}" for c, mono in eq.terms)
        for eq in gb.equations
    ]


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_groebner_basis_and_certified_margin_pinned(name):
    # --check takes its prolongation margin from here
    system = parse_system(INLINE_SYSTEMS[name]) if name in INLINE_SYSTEMS else load(name)
    gb, margin = _groebner_with_margin(system)
    assert (margin, basis_lines(gb)) == PINNED_BASES[name]


def test_completion_stops_once_every_unknown_is_a_leader():
    # x1 is a leader after the third S-pair reduction; running the pairs
    # out takes three more, each ending in zero
    system = parse_system(UNIT_IDEAL)
    gb, margin = _groebner_with_margin(system, gb_step_cap=3)
    assert (margin, basis_lines(gb)) == PINNED_BASES["unit-ideal"]
    with pytest.raises(ResourceLimit, match=r"after 2 S-pair reductions"):
        _groebner_with_margin(system, gb_step_cap=2)


def test_completion_makes_no_pair_of_two_monomials():
    # the chain criterion alone would leave five of the 15 pairs to reduce
    gb, margin = _groebner_with_margin(parse_system(MONOMIALS_6), gb_step_cap=1)
    assert (margin, basis_lines(gb)) == PINNED_BASES["monomials-6"]
    system = parse_system(MONOMIALS_BINOMIAL)
    gb, margin = _groebner_with_margin(system, gb_step_cap=3)
    assert (margin, basis_lines(gb)) == PINNED_BASES["monomials-binomial"]
    with pytest.raises(ResourceLimit, match=r"after 2 S-pair reductions"):
        _groebner_with_margin(system, gb_step_cap=2)


def _margin_systems():
    """The fixtures, the unit ideal and seeded random systems with m <= 3,
    n <= 2 and order <= 3."""
    for path in sorted(DATA.glob("*.sys")):
        yield path.name, parse_system(path.read_text())
    for name, text in INLINE_SYSTEMS.items():
        yield name, parse_system(text)
    rng = random.Random(1618)
    for k in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
        eqs = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                (rng.choice(vectors), rng.randint(1, n)): Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)
                )
                for _ in range(rng.randint(1, 4))
            }
            eqs.append(LinearEquation.from_terms(terms))
        yield f"random-{k}", LinearDiffSystem(m, n, tuple(eqs))


@pytest.mark.parametrize(
    "system", [pytest.param(system, id=name) for name, system in _margin_systems()]
)
def test_certified_margin_counts_as_margin_plus_three(system):
    # the margin max(rep - ord) is meant to be exact: three more levels of
    # prolongation must not find a single further pivot of order <= s
    gb, margin = _groebner_with_margin(system)
    top = max(stabilisation_level(es) for es in leader_profile(gb).variable_sets) + system.m
    pivots = _pivot_orders(system, top + margin + 3, DEFAULT_MATRIX_CELL_CAP)

    def low(level, s):  # pivots of order <= s after level
        return sum(at <= level and order <= s for at, order in pivots)

    for s in range(top + 1):
        assert low(s + margin, s) == low(s + margin + 3, s), s


def test_unit_ideal_margin_is_tight():
    # x1 is reached only at level 4, so margin 3 still leaves it free at s = 0
    system = parse_system(UNIT_IDEAL)
    assert prolongation_dimension(system, 0, 3) == 1
    assert prolongation_dimension(system, 0, 4) == 0


def test_understated_margin_fails_the_self_check(monkeypatch, tmp_path, capsys):
    system = parse_system(UNIT_IDEAL)
    gb, _ = _groebner_with_margin(system)
    monkeypatch.setattr(lindiff, "_groebner_with_margin", lambda _system, _cap: (gb, 3))
    with pytest.raises(DiffdimError, match="t = 0: 0 pivots .* 1 at margin 4"):
        kolchin_via_prolongation(system)
    path = tmp_path / "unit.sys"
    path.write_text(UNIT_IDEAL)
    assert main(["kolchin", "--system", str(path), "--check"]) == 1
    assert "self-check" in capsys.readouterr().err


def test_probe4_both_routes_agree():
    # m = n = 3, four equations of order 3: completion in FIFO pair order
    # ran past 60 s of CPU here
    system = load("probe4.sys")
    expected = NumericalPolynomial.from_coeffs((0, 0, 53, -206))
    assert kolchin_polynomial(system) == expected
    assert kolchin_via_prolongation(system) == expected


@pytest.mark.parametrize("cap", [1, 5])
def test_groebner_step_cap_names_reductions_and_basis(cap):
    with pytest.raises(
        ResourceLimit, match=rf"after {cap} S-pair reductions with \d+ basis elements \(cap {cap}\)"
    ):
        _groebner_with_margin(load("probe4.sys"), gb_step_cap=cap)


HEAT_OMEGA = NumericalPolynomial.from_coeffs((0, 2, -1))
COMPLETION_ENTRIES = {
    "_groebner_with_margin": _groebner_with_margin,
    "module_groebner": module_groebner,
    "kolchin_polynomial": kolchin_polynomial,
    "kolchin_via_prolongation": kolchin_via_prolongation,
    "omega_at_least": lambda system, **cap: omega_at_least(system, HEAT_OMEGA, **cap),
    "omega_equals": lambda system, **cap: omega_equals(system, HEAT_OMEGA, **cap),
}


@pytest.mark.parametrize("entry", sorted(COMPLETION_ENTRIES))
def test_completion_entries_take_the_step_cap(entry):
    heat = load("heat.sys")
    assert COMPLETION_ENTRIES[entry](heat, gb_step_cap=DEFAULT_GB_STEP_CAP)
    with pytest.raises(ResourceLimit, match="S-pair reductions"):
        COMPLETION_ENTRIES[entry](load("probe4.sys"), gb_step_cap=1)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
@pytest.mark.parametrize("entry", sorted(COMPLETION_ENTRIES))
def test_completion_entries_reject_step_cap_that_is_not_positive_int(entry, cap):
    with pytest.raises(ValueError, match="gb_step_cap"):
        COMPLETION_ENTRIES[entry](load("heat.sys"), gb_step_cap=cap)


def test_groebner_handles_redundant_equations():
    system = parse_system(
        "m = 2\nn = 1\n"
        "eq: 1*d[1,0]x1 - 1*d[0,2]x1\n"
        "eq: 2*d[1,0]x1 - 2*d[0,2]x1\n"
        "eq: 1*d[2,0]x1 - 1*d[1,2]x1\n"  # a derivative of the first
    )
    gb = module_groebner(system)
    assert len(gb.equations) == 1


def _random_one_unknown_systems(seed, count):
    """Systems in one unknown over m = 2 and 3 of order <= 3; about a third
    of the coefficients are fractions."""
    rng = random.Random(seed)
    for k in range(count):
        m = 2 + k % 2
        vectors = [xi for xi in product(range(4), repeat=m) if sum(xi) <= 3]
        eqs = []
        for _ in range(rng.randint(2, 3)):
            terms = {
                (rng.choice(vectors), 1): Fraction(
                    rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 1, 2, 3])
                )
                for _ in range(rng.randint(2, 4))
            }
            eqs.append(LinearEquation.from_terms(terms))
        yield LinearDiffSystem(m, 1, tuple(eqs))


def test_groebner_leaders_match_sympy():
    # one unknown: the operator ring is Q[d1..dm] and the orderly ranking is
    # grlex with d1 > d2 > ..., so sympy's reduced basis has the same leaders
    sympy = pytest.importorskip("sympy")
    fixtures = [load(name) for name in ("heat.sys", "laplace.sys", "ode2.sys", "wave.sys")]
    for system in fixtures + list(_random_one_unknown_systems(31, 40)):
        gens = sympy.symbols(f"d1:{system.m + 1}")
        polys = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g**e for g, e in zip(gens, mono.exponents)])
                for c, mono in eq.terms
            )
            for eq in system.equations
        ]
        expected = sorted(
            p.monoms(order="grlex")[0]
            for p in sympy.groebner(polys, *gens, order="grlex").polys
        )
        leaders = sorted(eq.leader.exponents for eq in module_groebner(system).equations)
        assert leaders == expected, system


# -------------------------------------------------------------- pipelines


CORPUS_EXPECTED = {
    "heat.sys": (0, 2, -1),
    "wave.sys": (0, 2, -1),
    "laplace.sys": (0, 2, -1),
    "cauchy_riemann.sys": (0, 2, 0),
    "ode2.sys": (0, 2),
    "free2.sys": (2, 0),
}


@pytest.mark.parametrize("name,expected", sorted(CORPUS_EXPECTED.items()))
def test_corpus_kolchin_both_routes(name, expected):
    system = load(name)
    assert kolchin_polynomial(system).standard_coeffs == expected
    assert kolchin_via_prolongation(system) == NumericalPolynomial.from_coeffs(expected)


def test_prolongation_dimension_heat_counts():
    system = load("heat.sys")
    # at level s the surviving derivatives are the pure space column plus
    # one mixed stick: 2s+1 of them once s >= 0 and margin catches all rows
    assert prolongation_dimension(system, 2, 0) == 5
    assert prolongation_dimension(system, 2, 2) == 5
    assert prolongation_dimension(system, 0, 0) == 1
    assert prolongation_dimension(system, 0, 2) == 1


def test_prolongation_dimension_free_system():
    system = load("free2.sys")
    for s in range(4):
        assert prolongation_dimension(system, s, 0) == 2 * (s + 1)


def test_prolongation_dimension_monotone_in_margin():
    system = load("cauchy_riemann.sys")
    for s in range(4):
        dims = [prolongation_dimension(system, s, mg) for mg in range(4)]
        assert dims == sorted(dims, reverse=True)


def test_prolongation_respects_cell_cap():
    system = load("heat.sys")
    with pytest.raises(ResourceLimit):
        prolongation_dimension(system, 30, 0, matrix_cell_cap=100)


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.sys")))
def test_pivot_orders_checks_the_cell_cap_once_at_the_stated_top(name, monkeypatch):
    # the cap is met exactly by level top's rows times its columns, and a
    # cap one short raises before any row is built
    system, top = load(name), 4
    m, n = system.m, system.n
    rows = sum(comb(top - eq.order + m, m) for eq in system.equations if eq.order <= top)
    cells = rows * n * comb(m + top, m)
    higher = _pivot_orders(system, top + 2, DEFAULT_MATRIX_CELL_CAP)
    assert _pivot_orders(system, top, cells) == [
        (level, order) for level, order in higher if level <= top
    ]

    def no_row_is_built(*args):
        raise AssertionError("a row was built past the cap")

    monkeypatch.setattr(lindiff, "_repack", no_row_is_built)
    with pytest.raises(ResourceLimit, match=rf"level {top} would hold {cells} cells"):
        _pivot_orders(system, top, cells - 1)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
def test_prolongation_dimension_rejects_cap_that_is_not_positive_int(cap):
    with pytest.raises(ValueError, match="matrix_cell_cap"):
        prolongation_dimension(load("heat.sys"), 2, 0, matrix_cell_cap=cap)


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10", True, None])
def test_kolchin_via_prolongation_rejects_cap_that_is_not_positive_int(cap):
    with pytest.raises(ValueError, match="matrix_cell_cap"):
        kolchin_via_prolongation(load("heat.sys"), matrix_cell_cap=cap)


def _dense_prolongation(system, level):
    """Columns and Fraction rows of the prolongation matrix up to ``level``."""
    vectors = [xi for xi in product(range(level + 1), repeat=system.m) if sum(xi) <= level]
    columns = [(xi, i) for xi in vectors for i in range(1, system.n + 1)]
    index = {col: k for k, col in enumerate(columns)}
    matrix = []
    for eq in system.equations:
        for theta in vectors:
            if sum(theta) + eq.order > level:
                continue
            row = [Fraction(0)] * len(columns)
            for c, mono in eq.terms:
                shifted = tuple(a + b for a, b in zip(mono.exponents, theta))
                row[index[(shifted, mono.var_index)]] = c
            matrix.append(row)
    return columns, matrix


def _rank(matrix):
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_systems():
    for path in sorted(DATA.glob("*.sys")):
        yield path.name, parse_system(path.read_text())
    rng = random.Random(2718)
    for k in range(8):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                xi = tuple(rng.randint(0, 2) for _ in range(m))
                if sum(xi) <= 2:
                    coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                    terms[(xi, rng.randint(1, n))] = coeff
            if terms:
                eqs.append(LinearEquation.from_terms(terms))
        yield f"random-{k}", LinearDiffSystem(m, n, tuple(eqs))


@pytest.mark.parametrize(
    "system", [pytest.param(system, id=name) for name, system in _oracle_systems()]
)
def test_prolongation_dimension_matches_dense_rank(system):
    # dim(s, margin) = n*C(m+s, m) - rank(M) + rank(M restricted to order > s)
    m, n = system.m, system.n
    for level in range(5):
        columns, matrix = _dense_prolongation(system, level)
        full = _rank(matrix)
        for s in range(level + 1):
            high = [k for k, (xi, _) in enumerate(columns) if sum(xi) > s]
            high_rank = _rank([[row[k] for k in high] for row in matrix])
            expected = n * comb(m + s, m) - full + high_rank
            assert prolongation_dimension(system, s, level - s) == expected, (s, level)


def test_adding_equations_cannot_raise_dimension():
    base = parse_system("m = 2\nn = 1\neq: 1*d[1,0]x1 - 1*d[0,2]x1\n")
    richer = parse_system(
        "m = 2\nn = 1\neq: 1*d[1,0]x1 - 1*d[0,2]x1\neq: 1*d[2,0]x1\n"
    )
    for s in range(4):
        assert prolongation_dimension(richer, s, 2) <= prolongation_dimension(
            base, s, 2
        )


def test_regularity_window_on_ode():
    system = load("ode2.sys")
    omega = kolchin_polynomial(system)
    for s in range(1, 7):
        assert omega.evaluate(s) == prolongation_dimension(system, s, 2)


def test_dual_routes_agree_on_random_systems():
    rng = random.Random(4242)
    for _ in range(25):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(0, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                xi = tuple(rng.randint(0, 2) for _ in range(m))
                if sum(xi) > 2:
                    continue
                coeff = rng.choice([-3, -2, -1, 1, 2, 3])
                terms[(xi, rng.randint(1, n))] = Fraction(coeff)
            if terms:
                eqs.append(LinearEquation.from_terms(terms))
        system = LinearDiffSystem(m, n, tuple(eqs))
        assert kolchin_polynomial(system) == kolchin_via_prolongation(system)


def test_omega_predicates():
    heat = load("heat.sys")
    assert omega_equals(heat, NumericalPolynomial.from_coeffs((0, 2, -1)))
    assert not omega_equals(heat, NumericalPolynomial.from_coeffs((0, 2, 0)))
    assert omega_at_least(heat, NumericalPolynomial.from_coeffs((0, 2, -1)))
    assert omega_at_least(heat, NumericalPolynomial.from_coeffs((0, 1, 5)))
    assert not omega_at_least(heat, NumericalPolynomial.from_coeffs((1, 0, 0)))


def test_kolchin_counts_lattice_for_free_system():
    system = parse_system("m = 3\nn = 1\n")
    omega = kolchin_polynomial(system)
    for s in range(5):
        assert omega.evaluate(s) == comb(s + 3, 3)


def test_system_validation():
    with pytest.raises(ValueError):
        LinearDiffSystem(0, 1, ())
    with pytest.raises(ValueError):
        LinearDiffSystem(
            1, 1, (equation((1, (1,), 2)),)
        )  # unknown index past n
    with pytest.raises(ValueError):
        LinearEquation(())
