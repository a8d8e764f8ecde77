"""Linear differential systems with constant rational coefficients.

A system in n unknown functions of m independent variables is a finite set
of homogeneous linear equations in derivative symbols.  Two independent
routes to its Kolchin polynomial live here: a Groebner basis of the
generated submodule (leaders feed the combinatorial recursion) and exact
rank computations on prolongation matrices followed by interpolation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm
from operator import add, le, neg, sub

from .diffrank import (
    _MONOMIAL,
    DifferentialMonomial,
    LeaderProfile,
    TermKey,
    _monomial_key,
    kolchin_from_leaders,
    rank_key,
)
from .errors import AmbientMismatch, DiffdimError, ParseError, ResourceLimit, check_cap
from .expsets import ExponentSet, ExponentVector, _lines, _naturals, stabilisation_level
from .numpoly import NumericalPolynomial, compare_eventual, interpolate

DEFAULT_MATRIX_CELL_CAP = 10**8
DEFAULT_GB_STEP_CAP = 10_000


@dataclass(frozen=True)
class LinearEquation:
    """Terms (coefficient, monomial), sorted by descending rank."""

    terms: tuple[tuple[Fraction, DifferentialMonomial], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("equation needs at least one term")
        fixed = []
        seen = set()
        width = None
        for coeff, mono in self.terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                raise ValueError("zero coefficient in equation")
            if width is None:
                width = mono.m
            elif mono.m != width:
                raise AmbientMismatch("mixed derivation counts in one equation")
            key = (mono.exponents, mono.var_index)
            if key in seen:
                raise ValueError(f"duplicate monomial {key} in equation")
            seen.add(key)
            fixed.append((coeff, mono))
        fixed.sort(key=lambda t: rank_key((t[1].exponents, t[1].var_index)), reverse=True)
        object.__setattr__(self, "terms", tuple(fixed))

    @classmethod
    def from_terms(cls, mapping: dict[TermKey, Fraction]) -> "LinearEquation":
        return cls(
            tuple(
                (c, DifferentialMonomial(xi, i)) for (xi, i), c in mapping.items()
            )
        )

    @property
    def leader(self) -> DifferentialMonomial:
        return self.terms[0][1]

    @property
    def order(self) -> int:
        return self.leader.order


@dataclass(frozen=True)
class LinearDiffSystem:
    """A finite system over m derivations and n unknowns."""

    m: int
    n: int
    equations: tuple[LinearEquation, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one derivation and one unknown")
        eqs = tuple(self.equations)
        for eq in eqs:
            for _, mono in eq.terms:
                if mono.m != self.m:
                    raise AmbientMismatch(
                        f"monomial over {mono.m} derivations in a system over {self.m}"
                    )
                if mono.var_index > self.n:
                    raise ValueError(
                        f"unknown x{mono.var_index} outside 1..{self.n}"
                    )
        object.__setattr__(self, "equations", eqs)

    @property
    def order(self) -> int:
        return max((eq.order for eq in self.equations), default=0)


# ---------------------------------------------------------------------------
# parsing


_HEADER = re.compile(r"\s*([mn])\s*=(.*)")
_EQUATION = re.compile(r"\s*eq\s*:")
# [+|-] [p[/q] *] monomial with every part optional, so that the part
# that is missing gets its own message and column
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?\s*(?P<star>\*?)\s*)?"
    rf"(?P<mono>{_MONOMIAL.pattern})?\s*"
)


def parse_system(text: str) -> LinearDiffSystem:
    """Parse the plain text system format.

    Header lines 'm = <int>' and 'n = <int>' must appear before the first
    equation.  Each equation line reads 'eq: <term> (+|- <term>)*' where a
    term is an optional rational coefficient 'p' or 'p/q' joined with '*'
    to a monomial 'd[u1,...,um]x<i>' or its order-zero shorthand 'x<i>'.
    Blank lines and '#' comments are ignored.
    """
    shape: dict[str, int] = {}
    equations = []
    for lineno, line in _lines(text):
        if header := _HEADER.fullmatch(line):
            name = header[1]
            if name in shape:
                raise ParseError(f"duplicate {name} header", line=lineno)
            (shape[name],) = _naturals(header[2], lineno, 1)
            if shape[name] < 1:
                raise ParseError(f"{name} must be at least 1", line=lineno)
        elif eq := _EQUATION.match(line):
            if len(shape) < 2:
                raise ParseError("m and n must be declared before equations", line=lineno)
            equations.append(_parse_equation(line, eq.end(), lineno, shape["m"], shape["n"]))
        else:
            raise ParseError(f"unrecognised line {line.strip()!r}", line=lineno)
    if len(shape) < 2:
        raise ParseError("missing m or n header")
    return LinearDiffSystem(shape["m"], shape["n"], tuple(equations))


def _parse_equation(line: str, pos: int, lineno: int, m: int, n: int) -> LinearEquation:
    """The terms of an 'eq:' line read from ``pos`` on; error columns are
    1-based within ``line``."""
    terms: dict[TermKey, Fraction] = {}
    if not line[pos:].strip():
        raise ParseError("empty equation", line=lineno, column=len(line) + 1)
    while pos < len(line):
        term = _TERM.match(line, pos)
        if not term["sign"] and terms:
            at = term.start("sign")
            raise ParseError(f"expected '+' or '-', got {line[at]!r}", line=lineno, column=at + 1)
        num, den = 1, 1
        if term["num"]:
            num, den = int(term["num"]), int(term["den"] or 1)
            if den == 0:
                raise ParseError("zero denominator", line=lineno, column=term.start("num") + 1)
            if num == 0:
                raise ParseError("zero coefficient", line=lineno, column=term.start("num") + 1)
            if not term["star"]:
                raise ParseError(
                    "constant terms are not allowed; expected '*' and a monomial",
                    line=lineno,
                    column=term.start("star") + 1,
                )
        coeff = Fraction(-num if term["sign"] == "-" else num, den)
        if not term["mono"]:
            raise ParseError("expected a monomial", line=lineno, column=term.end() + 1)
        column = term.start("mono") + 1
        xi, idx = _monomial_key(term, m)
        if len(xi) != m:
            raise ParseError(
                f"exponent list has {len(xi)} entries, expected {m}", line=lineno, column=column
            )
        if not 1 <= idx <= n:
            raise ParseError(f"unknown x{idx} outside 1..{n}", line=lineno, column=column)
        if (xi, idx) in terms:
            raise ParseError("duplicate monomial in equation", line=lineno, column=column)
        terms[xi, idx] = coeff
        pos = term.end()
    return LinearEquation.from_terms(terms)


# ---------------------------------------------------------------------------
# Groebner bases for submodules of the free module over the operator ring


def _integer_row(eq: LinearEquation) -> dict[tuple[int, ...], int]:
    """The equation times the lcm of its denominators, as a sparse integer
    row keyed by ``rank_key``, so the row's leader is ``max(row)``."""
    scale = lcm(*(c.denominator for c, _ in eq.terms))
    return {rank_key((mono.exponents, mono.var_index)): int(c * scale) for c, mono in eq.terms}


def _shift(key: tuple[int, ...], order: int, theta: ExponentVector) -> tuple[int, ...]:
    """The rank key of theta applied to a key, for theta of the given order."""
    return (key[0] + order, key[1]) + tuple(map(add, key[2:], theta))


def _normal_form(row, rep, index):
    """Fully reduce an integer row, fraction-free; its content is removed
    once, at the end.  Terms are visited in descending rank from a heap;
    ``index`` maps an unknown to its basis entries (row, leader, rep), and
    the first one whose leader divides a term reduces it.

    ``rep`` bounds the prolongation level at which the element is available
    as a combination of the original equations; every reduction step lifts
    it by the reducer's availability, so the returned pair keeps the bound
    honest.
    """
    row = dict(row)
    heap = [(tuple(map(neg, key)), key) for key in row]
    heapify(heap)
    level = rep
    while heap:
        key = heappop(heap)[1]
        coeff = row.get(key)
        if coeff is None:
            continue
        xi = key[2:]
        for g, glead, grep in index.get(key[1], ()):
            if glead[0] <= key[0] and all(map(le, glead[2:], xi)):
                break
        else:
            continue
        order = key[0] - glead[0]
        theta = tuple(map(sub, xi, glead[2:]))
        level = max(level, order + grep)
        common = gcd(g[glead], coeff)
        scale, factor = g[glead] // common, coeff // common
        if scale != 1:
            for k in row:
                row[k] *= scale
        del row[key]
        for gkey, gc in g.items():
            if gkey == glead:
                continue
            tkey = _shift(gkey, order, theta) if order else gkey
            val = row.get(tkey)
            if val is None:
                row[tkey] = -factor * gc
                heappush(heap, (tuple(map(neg, tkey)), tkey))
            elif val == factor * gc:
                del row[tkey]
            else:
                row[tkey] = val - factor * gc
    if row:
        content = gcd(*row.values())
        row = {k: v // content for k, v in row.items()}
    return row, level


def _groebner_with_margin(system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP):
    """Reduced Groebner basis plus a certified prolongation margin.

    Buchberger completion under the orderly ranking, on integer rows keyed by
    ``rank_key``.  S-pairs exist only between elements whose leaders involve
    the same unknown.  They wait in a heap keyed by (starting rep, join order,
    a, b): the starting rep max(rep(a) + ord theta_a, rep(b) + ord theta_b) is
    the sugar degree of Giovini et al. (ISSAC '91) with the prolongation level
    in the role of the homogenised degree, so pairs are treated level by
    level, least join first within a level.  A pair is skipped by the product
    criterion only when the leader exponents are disjoint and both elements
    involve no other unknown, which is the case that genuinely reduces to the
    one-unknown polynomial ring.  It is skipped by Buchberger's chain
    criterion (Becker and Weispfenning 1993) when another element c of the
    same unknown has a leader dividing the join and neither (a, c) nor (b, c)
    is still pending.  Completion raises ResourceLimit once it would reduce
    more than ``gb_step_cap`` S-pairs.

    Every element g carries rep(g), a prolongation level at which it is
    reachable from the original equations, and the returned margin is
    max(rep(g) - ord g) over the reduced basis.  It is certified: under the
    orderly ranking every f in the module with ord f <= s has a standard
    representation sum c * theta * g with ord(theta * g) <= s, and each
    theta * g lies in the level rep(g) + ord theta <= s + (rep(g) - ord g)
    span.  So the pivots of order <= s at level s + margin count exactly
    the module's elements of order <= s.  The argument reads only each kept
    element's own rep, which every reduction keeps honest, so the pair order
    and the criteria can move the margin but not its certificate.
    """
    check_cap("gb_step_cap", gb_step_cap)
    basis: list[tuple[dict, tuple[int, ...], int]] = []  # (row, leader, rep)
    index: dict[int, list] = {}  # unknown -> basis entries, insertion order
    exponents: dict[int, list] = {}  # unknown -> (position, leader exponents)
    confined: list[bool] = []
    pairs: list[tuple[int, int, int, int]] = []  # heap of (starting rep, join order, a, b)
    pending: set[tuple[int, int]] = set()

    def push(row, rep):
        lead = max(row)
        entry = (row, lead, rep)
        k, xi = len(basis), lead[2:]
        members = exponents.setdefault(lead[1], [])
        for j, jxi in members:
            order = sum(map(max, jxi, xi))
            jlead, jrep = basis[j][1:]
            heappush(pairs, (max(order - jlead[0] + jrep, order - lead[0] + rep), order, j, k))
            pending.add((j, k))
        basis.append(entry)
        index.setdefault(lead[1], []).append(entry)
        members.append((k, xi))
        confined.append(all(key[1] == lead[1] for key in row))

    for eq in system.equations:
        nf, rep = _normal_form(_integer_row(eq), eq.order, index)
        if nf:
            push(nf, rep)
    steps = 0
    while pairs:
        start, _, a, b = heappop(pairs)
        pending.remove((a, b))
        (f, flead, frep), (g, glead, grep) = basis[a], basis[b]
        fxi, gxi = flead[2:], glead[2:]
        if confined[a] and confined[b] and not any(map(min, fxi, gxi)):
            continue
        join = tuple(map(max, fxi, gxi))
        if any(
            c != a and c != b and all(map(le, cxi, join))
            and (min(a, c), max(a, c)) not in pending
            and (min(b, c), max(b, c)) not in pending
            for c, cxi in exponents[flead[1]]
        ):
            continue
        if steps == gb_step_cap:
            raise ResourceLimit(
                f"Groebner completion stopped after {steps} S-pair reductions "
                f"with {len(basis)} basis elements (cap {gb_step_cap})"
            )
        steps += 1
        fshift, gshift = tuple(map(sub, join, fxi)), tuple(map(sub, join, gxi))
        forder, gorder = sum(fshift), sum(gshift)
        common = gcd(f[flead], g[glead])
        fscale, gscale = g[glead] // common, f[flead] // common
        s_row = {_shift(k, forder, fshift): fscale * v for k, v in f.items()}
        for k, v in g.items():
            k = _shift(k, gorder, gshift)
            val = s_row.get(k, 0) - gscale * v
            if val:
                s_row[k] = val
            else:
                s_row.pop(k, None)
        nf, rep = _normal_form(s_row, start, index)
        if nf:
            push(nf, rep)

    # minimalise: drop any element whose lead another element's lead divides
    kept: list[tuple[dict, tuple[int, ...], int]] = []  # ascending leaders
    for entry in sorted(basis, key=lambda e: e[1]):
        lead = entry[1]
        if not any(
            other[1][1] == lead[1] and all(map(le, other[1][2:], lead[2:]))
            for other in kept
        ):
            kept.append(entry)
    # tail-reduce each survivor against the others
    reduced, margin = [], 0
    for entry in kept:
        others: dict[int, list] = {}
        for other in kept:
            if other is not entry:
                others.setdefault(other[1][1], []).append(other)
        nf, rep = _normal_form(entry[0], entry[2], others)
        lead = max(nf)
        margin = max(margin, rep - lead[0])
        reduced.append((lead, nf))
    equations = tuple(
        LinearEquation.from_terms({(k[2:], k[1]): Fraction(v, nf[lead]) for k, v in nf.items()})
        for lead, nf in sorted(reduced, reverse=True)
    )
    return LinearDiffSystem(system.m, system.n, equations), margin


def module_groebner(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> LinearDiffSystem:
    """The reduced Groebner basis of the submodule the equations generate."""
    return _groebner_with_margin(system, gb_step_cap)[0]


def leader_profile(gb: LinearDiffSystem) -> LeaderProfile:
    """Leader exponents of a reduced basis, grouped by unknown."""
    buckets: list[list[ExponentVector]] = [[] for _ in range(gb.n)]
    for eq in gb.equations:
        lead = eq.leader
        buckets[lead.var_index - 1].append(lead.exponents)
    return LeaderProfile(
        gb.m, tuple(ExponentSet(gb.m, tuple(b)) for b in buckets)
    )


def kolchin_polynomial(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> NumericalPolynomial:
    """Kolchin polynomial via the Groebner route."""
    return kolchin_from_leaders(leader_profile(module_groebner(system, gb_step_cap)))


# ---------------------------------------------------------------------------
# prolongation matrices


def _pivot_orders(
    system: LinearDiffSystem, top: int, matrix_cell_cap: int
) -> list[tuple[int, int]]:
    """One echelon form of the prolongation rows, built level by level up
    to level ``top``.  Returns one (level, order) pair per pivot, in the
    order the pivots were made.

    Level L spans the rows theta * equation with ord(theta) + ord(equation)
    == L, but builds them from the level below: this is F4's Simplify
    (Faugere 1999) with Janet's choice of parent (Gerdt and Blinkov 1998).
    Level L starts with the equations of order L, unshifted.  Then each row
    of level L - 1 that did not reduce to zero adds d_j of its reduced row
    for every j >= k, where k (``first``) is the index that row was built
    with and an equation's own row has k = 0; a row that reduced to zero
    has no children.  Rows are sparse integer dicts keyed by ``rank_key``, so a
    row's pivot is its highest-ranked derivative; each new row is reduced
    once, fraction-free with gcd content removal, against the pivot rows so
    far, and what is left is the new pivot row.  The pivot set is the set of
    leading derivatives of the row span: it does not depend on row order
    and only grows with L.  So the pivots of order <= s after level L are
    the pairs with level <= L and order <= s.

    The rows built span all rows.  Let S_L be the span of all rows up to
    level L and T_L that of the rows built; T_L is in S_L.  Suppose
    T_{L-1} = S_{L-1}.  Then S_L = S_{L-1} + sum_j d_j S_{L-1} + (equations
    of order L), and d_j of a pivot from level <= L - 2 lies in S_{L-1}, so
    it suffices that d_j q is in T_L for every pivot q new at level L - 1.
    Induct on j downwards, then on q's position within its level.  An
    equation's own row has every d_j built.  Otherwise q = c * d_k r - v,
    where r is its parent's reduced row and v combines the pivots that
    existed when q was reduced.  If j >= k, d_j q is itself a built row.  If
    j < k, d_j q = c * d_k (d_j r) - d_j v.  d_j r lies in S_{L-1}, which
    the pivots up to level L - 1 span, so its d_k is covered by the outer
    induction (k > j); d_j v is covered by the inner one, since v uses
    earlier pivots.

    The cap is checked once, at ``top``, before any row is built: raises
    ResourceLimit when the rows theta * equation up to level top, a bound on
    the rows built, times level top's n * C(m + top, m) columns exceed
    ``matrix_cell_cap``.  Cells never decrease with the level, so no lower
    level can exceed the cap when level top does not.
    """
    m, n = system.m, system.n
    rows = sum(comb(top - eq.order + m, m) for eq in system.equations if eq.order <= top)
    cells = rows * n * comb(m + top, m)
    if cells > matrix_cell_cap:
        raise ResourceLimit(
            f"prolongation matrix at level {top} would hold {cells} cells "
            f"(cap {matrix_cell_cap})"
        )
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    pivots: dict[tuple[int, ...], dict] = {}
    orders: list[tuple[int, int]] = []
    parents: list[tuple[int, dict]] = []  # (k, reduced row) of the level below
    start = min((eq.order for eq in system.equations), default=top + 1)
    for level in range(start, top + 1):
        previous, parents = parents, []
        new_rows = chain(
            ((0, _integer_row(eq)) for eq in system.equations if eq.order == level),
            (
                (j, {_shift(key, 1, units[j]): c for key, c in row.items()})
                for first, row in previous
                for j in range(first, m)
            ),
        )
        for first, row in new_rows:
            while row:
                lead = max(row)
                piv = pivots.get(lead)
                if piv is None:
                    content = gcd(*row.values())
                    pivots[lead] = row = {k: v // content for k, v in row.items()}
                    orders.append((level, lead[0]))
                    parents.append((first, row))
                    break
                g = gcd(row[lead], piv[lead])
                ma, mb = piv[lead] // g, row[lead] // g
                for k in row:
                    row[k] *= ma
                for k, v in piv.items():
                    v = row.get(k, 0) - mb * v
                    if v:
                        row[k] = v
                    else:
                        del row[k]
    return orders


def prolongation_dimension(
    system: LinearDiffSystem,
    s: int,
    margin: int,
    matrix_cell_cap: int = DEFAULT_MATRIX_CELL_CAP,
) -> int:
    """Dimension of the order <= s projection of the solution space cut to
    order s + margin.

    Rows are all prolongations theta of each equation with
    ord(theta) + ord(equation) <= s + margin; every pivot of order <= s
    kills one of the n * C(m + s, m) low-order degrees of freedom.
    """
    if s < 0 or margin < 0:
        raise ValueError("level and margin must be non-negative")
    check_cap("matrix_cell_cap", matrix_cell_cap)
    pivots = _pivot_orders(system, s + margin, matrix_cell_cap)
    return system.n * comb(system.m + s, system.m) - sum(order <= s for _, order in pivots)


def kolchin_via_prolongation(
    system: LinearDiffSystem,
    matrix_cell_cap: int = DEFAULT_MATRIX_CELL_CAP,
    gb_step_cap: int = DEFAULT_GB_STEP_CAP,
) -> NumericalPolynomial:
    """Kolchin polynomial from exact prolongation ranks plus interpolation.

    At the certified margin of ``_groebner_with_margin`` the dimension at
    level t + margin counts the solutions of order <= t exactly, and the
    leader complements count polynomially from ``floor``, the largest
    ``stabilisation_level`` of the leader sets.  So the m + 1 values on the
    fixed window [floor, floor + m] give the polynomial, read from one
    echelon form built to level floor + m + margin + 1; no other window is
    tried.  Each value must be the same at margin + 1, or DiffdimError is
    raised.
    """
    check_cap("matrix_cell_cap", matrix_cell_cap)
    gb, margin = _groebner_with_margin(system, gb_step_cap)
    return _prolongation_polynomial(system, gb, margin, matrix_cell_cap)


def _prolongation_polynomial(
    system: LinearDiffSystem, gb: LinearDiffSystem, margin: int, matrix_cell_cap: int
) -> NumericalPolynomial:
    """``kolchin_via_prolongation`` from a completion already made: ``gb`` and
    ``margin`` as ``_groebner_with_margin`` returns them for ``system``."""
    floor = max(stabilisation_level(es) for es in leader_profile(gb).variable_sets)
    m, n = system.m, system.n
    pivots = _pivot_orders(system, floor + m + margin + 1, matrix_cell_cap)

    def low(level, s):  # pivots of order <= s after level
        return sum(at <= level and order <= s for at, order in pivots)

    window = range(floor, floor + m + 1)
    for t in window:
        if low(t + margin, t) != low(t + margin + 1, t):
            raise DiffdimError(
                f"prolongation self-check failed at t = {t}: {low(t + margin, t)} pivots of "
                f"order <= t at margin {margin}, {low(t + margin + 1, t)} at margin {margin + 1}"
            )
    return interpolate([n * comb(m + t, m) - low(t + margin, t) for t in window], floor, m)


def omega_at_least(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    """Does the system's Kolchin polynomial eventually dominate p?"""
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) >= 0


def omega_equals(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) == 0
