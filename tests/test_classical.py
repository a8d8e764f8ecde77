"""Classical systems whose Kolchin polynomials are known from outside the code.

Both routes share parse, the leader profile and the dimension recursion, so
their agreement alone cannot catch a bug in those; each system here is
checked against its textbook answer, on each route separately.
"""

from math import comb

import pytest

from diffdim.lindiff import kolchin_polynomial, kolchin_via_prolongation, parse_system
from diffdim.numpoly import NumericalPolynomial

ROUTES = {"groebner": kolchin_polynomial, "prolongation": kolchin_via_prolongation}


def first_order_system(m, n, equations):
    """The text of a system in n unknowns of m variables whose equations are
    lists of (c, i, u), the term c * d_i x_u, with i and u counted from 1."""

    def term(k, c, i, u):
        xi = ",".join(str(int(j == i)) for j in range(1, m + 1))
        return f"{'-' if c < 0 else '+' if k else ''} {abs(c)}*d[{xi}]x{u}"

    body = "".join("eq: " + " ".join(term(k, *t) for k, t in enumerate(eq)) + "\n"
                   for eq in equations)
    return f"m = {m}\nn = {n}\n{body}"


def killing(m):
    """d_i u_j + d_j u_i = 0 for i <= j: the infinitesimal isometries of R^m."""
    return first_order_system(m, m, [
        [(2, i, i)] if i == j else [(1, i, j), (1, j, i)]
        for i in range(1, m + 1) for j in range(i, m + 1)
    ])


def conformal_killing(m):
    """The trace-free part of d_i u_j + d_j u_i: for i < j as Killing's, and
    m * d_i u_i - div u on the diagonal."""
    return first_order_system(m, m, [
        [(m - 1, i, i)] + [(-1, k, k) for k in range(1, m + 1) if k != i] if i == j
        else [(1, i, j), (1, j, i)]
        for i in range(1, m + 1) for j in range(i, m + 1)
    ])


CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def div_curl():
    """curl u = 0 and div u = 0 in R^3."""
    return first_order_system(
        3, 3, [[(1, b, c), (-1, c, b)] for _, b, c in CYCLIC] + [[(1, k, k) for k in (1, 2, 3)]]
    )


def laplace(m):
    """The sum of d_i^2 u over i = 1..m."""
    return f"m = {m}\nn = 1\neq: " + " + ".join(
        "d[" + ",".join(str(2 * (j == i)) for j in range(m)) + "]x1" for i in range(m)
    ) + "\n"


def cauchy_riemann_c2():
    """u + i v holomorphic in z_k = x_k + i y_k, the variables (x1, y1, x2, y2)."""
    return first_order_system(4, 2, [
        eq for x, y in ((1, 2), (3, 4)) for eq in ([(1, x, 1), (-1, y, 2)], [(1, y, 1), (1, x, 2)])
    ])


def maxwell():
    """Maxwell's equations in vacuum over (t, x, y, z), unknowns E1..E3 and
    B1..B3: d_t E = curl B, d_t B = -curl E, div E = 0, div B = 0."""
    return first_order_system(
        4,
        6,
        [[(1, 1, a), (-1, b + 1, 3 + c), (1, c + 1, 3 + b)] for a, b, c in CYCLIC]
        + [[(1, 1, 3 + a), (1, b + 1, c), (-1, c + 1, b)] for a, b, c in CYCLIC]
        + [[(1, k + 1, k) for k in (1, 2, 3)], [(1, k + 1, 3 + k) for k in (1, 2, 3)]],
    )


# (text, s -> the classical dimension of the solutions' s-jets)
CLASSICAL = {
    # the Euclidean motions of R^m; floor 1, type 0 and margin 0, so the
    # prolongation route builds to level 2, and holds 726 entries at m = 9
    **{f"killing-m{m}": (killing(m), lambda s, m=m: m * (m + 1) // 2) for m in range(2, 10)},
    # the conformal group of R^m, m >= 3, by Liouville's theorem
    **{f"conformal-killing-m{m}": (conformal_killing(m), lambda s, m=m: (m + 1) * (m + 2) // 2)
       for m in range(3, 8)},
    # u = grad phi with phi harmonic: 2k + 1 harmonic polynomials of degree k
    # in R^3, for the k = 1..s + 1 whose gradients are s-jets; s^2 + 4s + 3,
    # standard coefficients (0, 2, 1, 0)
    "div-curl": (div_curl(), lambda s: sum(2 * k + 1 for k in range(1, s + 2))),
    # the harmonic polynomials of degree <= s in R^6: C(s + 6, 6) - C(s + 4, 6),
    # standard coefficients (0, 2, -1, 0, 0, 0, 0).  The parse packs 3-bit
    # fields, which hold levels up to 3, so the route's echelon starts over
    # at double width at level 4
    "laplace-m6": (laplace(6), lambda s: comb(s + 6, 6) - comb(s + 4, 6)),
    # the holomorphic jets in two complex variables: s^2 + 3s + 2, standard
    # coefficients (0, 0, 2, 0, 0)
    "cauchy-riemann-c2": (cauchy_riemann_c2(), lambda s: 2 * comb(s + 2, 2)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_classical_system_has_its_textbook_polynomial(name, route):
    # twelve values fix a polynomial of degree at most m <= 9
    text, classical = CLASSICAL[name]
    omega = ROUTES[route](parse_system(text))
    assert [omega.evaluate(s) for s in range(12)] == [classical(s) for s in range(12)]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_maxwell_in_vacuum_has_type_three_and_typical_dimension_four(route):
    # only the type 3 and the leading coefficient 4 (six fields less the two
    # divergence constraints) come from outside the code; the lower
    # coefficients are pinned from the code's own answer
    omega = ROUTES[route](parse_system(maxwell()))
    assert omega.differential_type() == 3
    assert omega.padded(4).standard_coeffs[1] == 4
    assert omega == NumericalPolynomial.from_coeffs((0, 4, 2, 0, 0))
