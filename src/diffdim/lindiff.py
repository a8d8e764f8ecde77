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
from itertools import accumulate, chain
from math import comb, gcd, lcm
from operator import add, le

from .diffrank import (
    _MONOMIAL,
    DifferentialMonomial,
    LeaderProfile,
    TermKey,
    _monomial_key,
    kolchin_from_leaders,
)
from .errors import AmbientMismatch, DiffdimError, ParseError, ResourceLimit, check_cap
from .expsets import ExponentSet, ExponentVector, _lines, _naturals, stabilisation_level
from .numpoly import NumericalPolynomial, compare_eventual, interpolate

DEFAULT_MATRIX_CELL_CAP = 10**8
DEFAULT_GB_STEP_CAP = 10_000


class _Keys:
    """The packed layout of rank keys for m derivations, ``width`` bits a field.

    The derivative theta x_i is one int whose fields, high to low, are
    ord theta, i, theta_1, ..., theta_m, so integer order is ``rank_key``
    order.  Every field stays below ``limit`` = 2^(width - 1), so its top bit
    is a guard bit, 0 in every key.  Then d_j is one addition of
    ``steps[j]``.  When lead divides key (same unknown, every exponent
    <=), key - lead is theta packed with unknown 0, and theta * g has the
    keys gkey + (key - lead).  Otherwise some field of key is below lead's;
    the lowest such field borrows and sets its guard bit.  So lead divides
    key exactly when (key - lead) & ``guards`` == 0, where ``guards`` holds
    every guard bit and the whole unknown field.  These are the packed
    exponent vectors of Monagan and Pearce ("Sparse polynomial division using
    a heap", J. Symbolic Comput. 46, 2011).
    """

    __slots__ = ("m", "width", "limit", "mask", "unknown_shift", "order_shift", "guards", "steps")

    def __init__(self, m: int, width: int):
        self.m, self.width = m, width
        self.limit = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.unknown_shift = width * m
        self.order_shift = width * (m + 1)
        self.guards = sum(self.limit << (width * k) for k in range(m + 2))
        self.guards |= self.mask << self.unknown_shift
        self.steps = tuple((1 << self.order_shift) + (1 << (width * (m - 1 - j))) for j in range(m))

    @classmethod
    def fitting(cls, m: int, bound: int) -> "_Keys":
        """The narrowest layout whose fields hold 0..bound."""
        return cls(m, bound.bit_length() + 1)

    def pack(self, xi: ExponentVector, unknown: int) -> int:
        w = self.width
        key = sum(xi) << w | unknown
        for e in xi:
            key = key << w | e
        return key

    def unpack(self, key: int) -> TermKey:
        """(exponents, unknown) of a packed key."""
        w, mask = self.width, self.mask
        return tuple((key >> (w * k)) & mask for k in range(self.m - 1, -1, -1)), self.unknown(key)

    def unknown(self, key: int) -> int:
        return (key >> self.unknown_shift) & self.mask


def _repack(row: dict[int, int], source: _Keys, target: _Keys) -> dict[int, int]:
    """A new copy of a row, its keys moved from layout ``source`` to
    ``target`` over the same m."""
    if source.width == target.width:
        return dict(row)
    return {target.pack(*source.unpack(key)): c for key, c in row.items()}


def _primitive(terms: dict[TermKey, tuple[int, int]], keys: _Keys):
    """(row, (p, q)) for terms {(exponents, unknown): (num, den)}: the
    primitive integer row packed at ``keys``, and p / q, the factor that
    turns it back into the terms."""
    q = lcm(*(den for _, den in terms.values()))
    row = {keys.pack(xi, i): num * (q // den) for (xi, i), (num, den) in terms.items()}
    p = gcd(*row.values())
    return {key: c // p for key, c in row.items()}, (p, q)


class LinearEquation:
    """One homogeneous linear equation, held as a primitive integer row.

    ``_row`` maps the packed key (layout ``_keys``) of each derivative to
    an integer coefficient, with no common factor, so the leader is
    ``_lead`` = ``max(_row)``; ``_scale`` = (p, q) turns the row back into
    the equation's coefficients, row * p / q.  ``terms``, the public form,
    is the pairs (coefficient, monomial) sorted by descending rank; it is
    built on first use.  The row is shared, never mutated.
    """

    __slots__ = ("_row", "_scale", "_keys", "_lead", "_terms")

    def __init__(self, terms: tuple[tuple[Fraction, DifferentialMonomial], ...]):
        if not terms:
            raise ValueError("equation needs at least one term")
        coeffs: dict[TermKey, tuple[int, int]] = {}
        width = None
        for coeff, mono in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                raise ValueError("zero coefficient in equation")
            if width is None:
                width = mono.m
            elif mono.m != width:
                raise AmbientMismatch("mixed derivation counts in one equation")
            key = (mono.exponents, mono.var_index)
            if key in coeffs:
                raise ValueError(f"duplicate monomial {key} in equation")
            coeffs[key] = coeff.numerator, coeff.denominator
        keys = _Keys.fitting(width, max(max(sum(xi), i) for xi, i in coeffs))
        self._set(*_primitive(coeffs, keys), keys)

    def _set(self, row: dict[int, int], scale: tuple[int, int], keys: _Keys):
        self._row, self._scale, self._keys, self._terms = row, scale, keys, None
        self._lead = max(row)
        return self

    @classmethod
    def _from_row(cls, row: dict[int, int], scale: tuple[int, int], keys: _Keys):
        return object.__new__(cls)._set(row, scale, keys)

    @classmethod
    def from_terms(cls, mapping: dict[TermKey, Fraction]) -> "LinearEquation":
        return cls(
            tuple(
                (c, DifferentialMonomial(xi, i)) for (xi, i), c in mapping.items()
            )
        )

    @property
    def terms(self) -> tuple[tuple[Fraction, DifferentialMonomial], ...]:
        if self._terms is None:
            p, q = self._scale
            self._terms = tuple(
                (Fraction(c * p, q), DifferentialMonomial(*self._keys.unpack(key)))
                for key, c in sorted(self._row.items(), reverse=True)
            )
        return self._terms

    @property
    def leader(self) -> DifferentialMonomial:
        return DifferentialMonomial(*self._keys.unpack(self._lead))

    @property
    def order(self) -> int:
        return self._lead >> self._keys.order_shift

    def __eq__(self, other):
        if not isinstance(other, LinearEquation):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"LinearEquation(terms={self.terms!r})"


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
            if eq._keys.m != self.m:
                raise AmbientMismatch(
                    f"monomial over {eq._keys.m} derivations in a system over {self.m}"
                )
            unknown = max(map(eq._keys.unknown, eq._row))
            if unknown > self.n:
                raise ValueError(f"unknown x{unknown} outside 1..{self.n}")
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
    parsed = []
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
            parsed.append(_parse_equation(line, eq.end(), lineno, shape["m"], shape["n"]))
        else:
            raise ParseError(f"unrecognised line {line.strip()!r}", line=lineno)
    if len(shape) < 2:
        raise ParseError("missing m or n header")
    m, n = shape["m"], shape["n"]
    # the completion's layout, so that it takes the rows as they are
    keys = _Keys.fitting(m, max([n] + [sum(xi) for terms in parsed for xi, _ in terms]))
    return LinearDiffSystem(
        m, n, tuple(LinearEquation._from_row(*_primitive(terms, keys), keys) for terms in parsed)
    )


def _parse_equation(
    line: str, pos: int, lineno: int, m: int, n: int
) -> dict[TermKey, tuple[int, int]]:
    """The terms of an 'eq:' line read from ``pos`` on, as {(exponents,
    unknown): (numerator, denominator)}; error columns are 1-based within
    ``line``."""
    terms: dict[TermKey, tuple[int, int]] = {}
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
        terms[xi, idx] = (-num if term["sign"] == "-" else num), den
        pos = term.end()
    return terms


# ---------------------------------------------------------------------------
# Groebner bases for submodules of the free module over the operator ring


def _eliminate(row, key, g, glead):
    """Cancel ``row``'s term c at ``key`` against theta * g, theta * glead = key,
    in place and fraction-free: with d = gcd(c, lc g), the row becomes
    (lc g / d) * row - (c / d) * theta * g.  Returns the keys it added."""
    theta = key - glead
    common = gcd(g[glead], row[key])
    scale, factor = g[glead] // common, row[key] // common
    if scale != 1:
        for k in row:
            row[k] *= scale
    added = []
    for gkey, gc in g.items():
        tkey = gkey + theta
        val = row.get(tkey)
        if val is None:
            row[tkey] = -factor * gc
            added.append(tkey)
        elif val == factor * gc:
            del row[tkey]
        else:
            row[tkey] = val - factor * gc
    return added


def _normal_form(row, rep, index, keys):
    """Fully reduce an integer row over the layout ``keys`` by ``_eliminate``
    steps; its content is removed once, at the end.  Terms are visited in
    descending rank from a heap, which takes the keys each step adds;
    ``index`` maps an unknown to its basis entries (row, leader, rep), and
    the first one whose leader divides a term reduces it.

    ``rep`` bounds the prolongation level at which the element is available
    as a combination of the original equations; every reduction step lifts
    it by the reducer's availability, so the returned pair keeps the bound
    honest.
    """
    row = dict(row)
    heap = [-key for key in row]
    heapify(heap)
    level = rep
    guards, shift = keys.guards, keys.order_shift
    mask, unknown_shift = keys.mask, keys.unknown_shift
    while heap:
        key = -heappop(heap)
        if key not in row:
            continue
        for g, glead, grep in index.get((key >> unknown_shift) & mask, ()):
            if not (key - glead) & guards:
                break
        else:
            continue
        level = max(level, ((key - glead) >> shift) + grep)
        for tkey in _eliminate(row, key, g, glead):
            heappush(heap, -tkey)
    content = gcd(*row.values())
    return {k: v // content for k, v in row.items()}, level


def _groebner_with_margin(system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP):
    """Reduced Groebner basis plus a certified prolongation margin.

    Buchberger completion under the orderly ranking, on primitive integer
    rows over packed keys (``_Keys``), sized by the larger of the system's
    order and n; each element is kept once, as (row, packed leader, rep).
    S-pairs exist only between elements whose leaders involve the same
    unknown.  They wait in a heap keyed by (starting rep, join order, a, b),
    the join's exponents alongside: the starting rep max(rep(a) + ord
    theta_a, rep(b) + ord theta_b) is the sugar degree of Giovini et al.
    (ISSAC '91) with the prolongation level in the role of the homogenised
    degree, so pairs are treated level by level, least join first within a
    level.  A pair is skipped by the product criterion only when the leader
    exponents are disjoint (the join order is ord a + ord b) and both
    elements involve no other unknown, which is the case that genuinely
    reduces to the one-unknown polynomial ring.  It is skipped by
    Buchberger's chain criterion (Becker and Weispfenning 1993) when another
    element c of the same unknown has a leader dividing the join and neither
    (a, c) nor (b, c) is still pending.  The S-row is theta_a * f with its
    leader cancelled by g in one ``_eliminate`` step.  Completion raises
    ResourceLimit once it would reduce more than ``gb_step_cap`` S-pairs.

    No pair of two monomials is made: their S-row theta_a * x_a -
    theta_b * x_b is identically zero, so it needs no reduction and pushes
    no element.  Such a pair never waits, so the chain criterion reads it
    as done, which is sound because a zero S-row has the trivial standard
    representation; and it counts against no cap.

    Completion stops, with pairs still waiting, once x_u (order 0) is a
    leader for every unknown u: the module is then the whole free module,
    as Buchberger's algorithm stops once 1 is in the ideal.  x_u divides
    every derivative of x_u, so from then on every normal form is zero and
    no waiting pair would push an element.  The final pass therefore sees
    the basis that running the pairs out would leave, and returns the same
    reduced basis and the same margin; the pairs left count against no cap.

    No term of a reduction outranks the S-row's leader, so keys stay
    within the join orders.  Before an S-pair whose join order would not
    fit a field, every row is re-packed at double width: the leaders'
    orders fit, so one doubling fits their join.  One pass in ascending
    leader order then minimalises and tail-reduces: a leader divides only
    derivatives it does not outrank, so only the survivors before an
    element can drop it or reduce its terms.

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
    keys = _Keys.fitting(system.m, max(system.order, system.n))
    basis: list[tuple[dict, int, int]] = []  # (row, leader, rep)
    index: dict[int, list] = {}  # unknown -> basis entries, insertion order
    exponents: dict[int, list] = {}  # unknown -> (position, leader exponents)
    confined: list[bool] = []
    units: set[int] = set()  # unknowns u whose x_u is a leader
    pairs: list[tuple] = []  # heap of (starting rep, join order, a, b, join)
    pending: set[tuple[int, int]] = set()

    def push(row, rep):
        lead = max(row)
        xi, unknown = keys.unpack(lead)
        entry = (row, lead, rep)
        k, order = len(basis), sum(xi)
        if not order:
            units.add(unknown)
        members = exponents.setdefault(unknown, [])
        for j, jxi in members:
            if len(row) == 1 == len(basis[j][0]):
                continue
            join = tuple(map(max, jxi, xi))
            d = sum(join)
            heappush(pairs, (max(d - sum(jxi) + basis[j][2], d - order + rep), d, j, k, join))
            pending.add((j, k))
        basis.append(entry)
        index.setdefault(unknown, []).append(entry)
        members.append((k, xi))
        confined.append(all(keys.unknown(key) == unknown for key in row))

    for eq in system.equations:
        nf, rep = _normal_form(_repack(eq._row, eq._keys, keys), eq.order, index, keys)
        if nf:
            push(nf, rep)
    steps = 0
    while pairs and len(units) < system.n:
        start, order, a, b, join = heappop(pairs)
        pending.remove((a, b))
        alead, blead, shift = basis[a][1], basis[b][1], keys.order_shift
        if confined[a] and confined[b] and order == (alead >> shift) + (blead >> shift):
            continue
        unknown = keys.unknown(alead)
        if any(
            c != a and c != b and all(map(le, cxi, join))
            and (min(a, c), max(a, c)) not in pending
            and (min(b, c), max(b, c)) not in pending
            for c, cxi in exponents[unknown]
        ):
            continue
        if steps == gb_step_cap:
            raise ResourceLimit(
                f"Groebner completion stopped after {steps} S-pair reductions "
                f"with {len(basis)} basis elements (cap {gb_step_cap})"
            )
        steps += 1
        if order >= keys.limit:
            wide = _Keys(keys.m, 2 * keys.width)
            basis[:] = [(_repack(row, keys, wide), wide.pack(*keys.unpack(lead)), rep)
                        for row, lead, rep in basis]
            index.update((u, [basis[k] for k, _ in members]) for u, members in exponents.items())
            keys = wide
        (f, flead, _), (g, glead, _) = basis[a], basis[b]
        jkey = keys.pack(join, unknown)
        s_row = {k + jkey - flead: v for k, v in f.items()}
        _eliminate(s_row, jkey, g, glead)
        nf, rep = _normal_form(s_row, start, index, keys)
        if nf:
            push(nf, rep)

    survivors: dict[int, list] = {}  # unknown -> kept entries, ascending leaders
    reduced, margin = [], 0
    for row, lead, rep in sorted(basis, key=lambda e: e[1]):
        before = survivors.setdefault(keys.unknown(lead), [])
        if any(not (lead - other[1]) & keys.guards for other in before):
            continue
        nf, level = _normal_form(row, rep, survivors, keys)
        before.append((row, lead, rep))
        margin = max(margin, level - (lead >> keys.order_shift))
        reduced.append(LinearEquation._from_row(nf, (1, nf[lead]), keys))
    return LinearDiffSystem(system.m, system.n, tuple(reversed(reduced))), margin


def module_groebner(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> LinearDiffSystem:
    """The reduced Groebner basis of the submodule the equations generate."""
    return _groebner_with_margin(system, gb_step_cap)[0]


def leader_profile(gb: LinearDiffSystem) -> LeaderProfile:
    """Leader exponents of a reduced basis, grouped by unknown."""
    buckets: list[list[ExponentVector]] = [[] for _ in range(gb.n)]
    for eq in gb.equations:
        xi, unknown = eq._keys.unpack(eq._lead)
        buckets[unknown - 1].append(xi)
    return LeaderProfile(
        gb.m, tuple(ExponentSet(gb.m, tuple(b)) for b in buckets)
    )


def kolchin_polynomial(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> NumericalPolynomial:
    """Kolchin polynomial via the Groebner route."""
    return kolchin_from_leaders(leader_profile(_groebner_with_margin(system, gb_step_cap)[0]))


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
    has no children.  Rows are sparse integer dicts over packed rank keys
    (``_Keys``, with fields wide enough for the larger of ``top`` and n), so
    a row's pivot is its highest-ranked derivative and d_j of a row is one
    addition per key.  Each new row is reduced once, fraction-free with gcd
    content removal, against the pivot rows so far, and what is left is the
    new pivot row.  That step is the echelon's own, not ``_eliminate``: it
    is the arithmetic of ``--check``'s second route, kept apart from the
    completion it checks, and it needs no list of added keys.  The pivot
    set is the set of leading derivatives of the row span: it does not
    depend on row order and only grows with L.  So the pivots of order
    <= s after level L are the pairs with level <= L and order <= s.

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
    keys = _Keys.fitting(m, max(top, n))
    steps, shift = keys.steps, keys.order_shift
    pivots: dict[int, dict] = {}
    orders: list[tuple[int, int]] = []
    parents: list[tuple[int, dict]] = []  # (k, reduced row) of the level below
    start = min((eq.order for eq in system.equations), default=top + 1)
    for level in range(start, top + 1):
        previous, parents = parents, []
        new_rows = chain(
            ((0, _repack(eq._row, eq._keys, keys)) for eq in system.equations if eq.order == level),
            (
                (j, {key + steps[j]: c for key, c in row.items()})
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
                    orders.append((level, lead >> shift))
                    parents.append((first, row))
                    break
                g = gcd(row[lead], piv[lead])
                ma, mb = piv[lead] // g, row[lead] // g
                if ma != 1:
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
    base = floor + margin
    # one pass over the pivots: low[i][j] counts those of order <= floor + j
    # after level base + i, for i <= m + 1 and j <= m
    tally = [[0] * (m + 1) for _ in range(m + 2)]
    for at, order in _pivot_orders(system, base + m + 1, matrix_cell_cap):
        if order <= floor + m:
            tally[max(at - base, 0)][max(order - floor, 0)] += 1
    low = list(accumulate(
        (list(accumulate(row)) for row in tally), lambda a, b: list(map(add, a, b))
    ))
    for j in range(m + 1):
        if low[j][j] != low[j + 1][j]:
            raise DiffdimError(
                f"prolongation self-check failed at t = {floor + j}: {low[j][j]} pivots of "
                f"order <= t at margin {margin}, {low[j + 1][j]} at margin {margin + 1}"
            )
    return interpolate([n * comb(m + floor + j, m) - low[j][j] for j in range(m + 1)], floor, m)


def omega_at_least(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    """Does the system's Kolchin polynomial eventually dominate p?"""
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) >= 0


def omega_equals(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) == 0
