"""End-to-end acceptance checks.

Each test covers one acceptance criterion, asserts exact equality (no
tolerances anywhere), and prints a single [criterion N] PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py -v` to see them.
"""

import random
import time
from fractions import Fraction
from math import comb

from diffdim.bounds import bound_report, char_order_bound, regularity_bound
from diffdim.expsets import (
    ExponentSet,
    dimension_polynomial,
    stability_bound,
    volume,
    volume_ie,
)
from diffdim.lindiff import (
    LinearDiffSystem,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    prolongation_dimension,
)
from diffdim.numpoly import (
    NumericalPolynomial,
    compare_eventual,
    interpolate,
)
from parsed import equation
from test_lindiff import load

CORPUS = ("heat.sys", "wave.sys", "laplace.sys", "cauchy_riemann.sys")
FULL_CORPUS = CORPUS + ("ode2.sys", "free2.sys")
# the prolongation route holds at most 55 entries on criterion 3's systems,
# so a wrong basis ends at this cap, not climbing towards the default 5 * 10^6
CELL_CAP = 10**4


def _report(number, name, body):
    try:
        body()
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


def _random_exponent_set(rng):
    """Draw within the stated ranges, keeping enumeration workloads sane.

    Half the draws take generator orders uniformly in 0..8, half bias them
    low so that the wide-ambient cases stay enumerable.  Sets whose
    stability window would need more candidates than the budget are
    redrawn; every m in 1..4, up to 6 generators and orders up to 8 remain
    reachable.
    """
    budget = 250_000
    while True:
        m = rng.randint(1, 4)
        flat = rng.random() < 0.5
        gens = []
        for _ in range(rng.randint(0, 6)):
            total = (
                rng.randint(0, 8) if flat
                else min(rng.randint(0, 8), rng.randint(0, 8))
            )
            vec = [0] * m
            for _ in range(total):
                vec[rng.randrange(m)] += 1
            gens.append(tuple(vec))
        exp_set = ExponentSet(m, tuple(gens))
        top = stability_bound(exp_set) + 10
        if comb(top + m, m) <= budget:
            return exp_set


def test_criterion_1_volume_routes_agree_on_random_sets():
    def body():
        started = time.perf_counter()
        rng = random.Random(20230405)
        for _ in range(200):
            exp_set = _random_exponent_set(rng)
            omega = dimension_polynomial(exp_set)
            base = stability_bound(exp_set)
            for s in range(base, base + 11):
                direct = volume(exp_set, s)
                assert direct == volume_ie(exp_set, s)
                assert direct == omega.evaluate(s)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"

    _report(1, "volume, inclusion-exclusion and polynomial agree", body)


def test_criterion_2_order_bound_closed_forms():
    def body():
        started = time.perf_counter()
        for r in range(13):
            for n in range(1, 5):
                assert char_order_bound(r, 1, n) == r
                assert char_order_bound(r, 2, n) == 2**n * r
            assert char_order_bound(r, 3, 1) == 3 * (2**r - 1)
        for r in range(1, 21):
            for n in range(1, 5):
                assert regularity_bound(r, 1, n) == r - 1
        elapsed = time.perf_counter() - started
        assert elapsed < 1, f"took {elapsed:.2f}s"

    _report(2, "closed forms of the order and regularity bounds", body)


def _random_system(rng):
    m = rng.randint(1, 2)
    n = rng.randint(1, 2)
    equations = []
    for _ in range(rng.randint(0, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            order = rng.randint(0, 2)
            vec = [0] * m
            for _ in range(order):
                vec[rng.randrange(m)] += 1
            key = (tuple(vec), rng.randint(1, n))
            if key in terms:
                continue
            terms[key] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        equations.append(equation(terms))
    return LinearDiffSystem(m, n, tuple(equations))


def test_criterion_3_dual_pipelines_agree():
    def body():
        started = time.perf_counter()
        expected = {
            "heat.sys": (0, 2, -1),
            "wave.sys": (0, 2, -1),
            "laplace.sys": (0, 2, -1),
            "cauchy_riemann.sys": (0, 2, 0),
        }
        for name in CORPUS:
            system = load(name)
            via_gb = kolchin_polynomial(system)
            via_ranks = kolchin_via_prolongation(system, CELL_CAP)
            assert via_gb == via_ranks
            assert via_gb.standard_coeffs == expected[name]
        rng = random.Random(77001)
        for _ in range(100):
            system = _random_system(rng)
            assert kolchin_polynomial(system) == kolchin_via_prolongation(system, CELL_CAP)
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"

    _report(3, "groebner and prolongation pipelines agree", body)


def test_criterion_4_regularity_bound_window():
    def body():
        for name in FULL_CORPUS:
            system = load(name)
            gb = module_groebner(system)
            margin = gb.order
            omega = kolchin_polynomial(system)
            level = regularity_bound(system.order, system.m, system.n)
            for s in range(level, level + 6):
                stabilised = prolongation_dimension(system, s, margin)
                assert stabilised == prolongation_dimension(system, s, margin + 1)
                assert omega.evaluate(s) == stabilised

    _report(4, "dimension counts are polynomial past the regularity bound", body)


def test_criterion_5_comparison_level_decides_domination():
    def body():
        report = bound_report(1, 2, 2)
        cap = report.coeff_bound
        assert cap == 800
        probe = report.comparison_level + 1
        rng = random.Random(55110)
        for _ in range(500):
            p = NumericalPolynomial.from_coeffs(
                tuple(rng.randint(-cap, cap) for _ in range(3))
            )
            q = NumericalPolynomial.from_coeffs(
                tuple(rng.randint(-cap, cap) for _ in range(3))
            )
            verdict = compare_eventual(p, q)
            diff = p.evaluate(probe) - q.evaluate(probe)
            if verdict == 0:
                assert diff == 0
            elif verdict > 0:
                assert diff > 0
            else:
                assert diff < 0

    _report(5, "one evaluation past the comparison level settles domination", body)


def test_criterion_6_interpolation_roundtrip():
    def body():
        rng = random.Random(90210)
        for _ in range(1000):
            m = rng.randint(0, 5)
            p = NumericalPolynomial.from_coeffs(
                tuple(rng.randint(-10**6, 10**6) for _ in range(m + 1))
            )
            start = rng.randint(0, 40)
            values = [p.evaluate(s) for s in range(start, start + m + 1)]
            assert interpolate(values, start) == p

    _report(6, "interpolation inverts evaluation", body)


def test_criterion_7_counting_identity():
    def body():
        for name in FULL_CORPUS:
            system = load(name)
            profile = leader_profile(module_groebner(system))
            omega = kolchin_polynomial(system)
            base = max(stability_bound(es) for es in profile.variable_sets)
            for s in range(base, base + 11):
                component_sum = sum(
                    volume(es, s) for es in profile.variable_sets
                )
                assert omega.evaluate(s) == component_sum

    _report(7, "kolchin polynomial counts the leader complements", body)
