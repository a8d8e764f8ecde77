"""Linear differential systems with constant rational coefficients.

A system in n unknown functions of m independent variables is a finite set
of homogeneous linear equations in derivative symbols.  Two independent
routes to its Kolchin polynomial live here: a Groebner basis of the
generated submodule (leaders feed the combinatorial recursion) and exact
rank computations on prolongation matrices followed by interpolation.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import comb, gcd, inf

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

# entries held, about 300 bytes each on Killing's equations, m = 7, 8: 1.5 GB
DEFAULT_MATRIX_CELL_CAP = 5 * 10**6
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
    the exponent fields' guard bits and the whole unknown field.  The order
    field borrows only after them, so the test holds for any order below
    2^width, as a ``join``'s is.  These are the packed exponent vectors of
    Monagan and Pearce ("Sparse polynomial division using a heap", J.
    Symbolic Comput. 46, 2011).  There is one layout object per (m, width),
    so parse, completion and the echelon share it whenever their bounds fit
    the same width, and a row moves between them as it is.
    """

    __slots__ = ("m", "width", "limit", "mask", "unknown_shift", "order_shift", "guards", "steps",
                 "exponent_guards", "ones", "order_field")

    def __init__(self, m: int, width: int):
        self.m, self.width = m, width
        self.limit = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.unknown_shift = width * m
        self.order_shift = width * (m + 1)
        self.exponent_guards = sum(self.limit << (width * k) for k in range(m))
        self.guards = self.exponent_guards | self.mask << self.unknown_shift
        self.steps = tuple((1 << self.order_shift) + (1 << (width * (m - 1 - j))) for j in range(m))
        self.ones = sum(1 << (width * k) for k in range(2, m + 2))  # a 1 in fields 2 .. m + 1
        self.order_field = self.mask << self.order_shift

    @classmethod
    @functools.cache
    def of(cls, m: int, width: int) -> "_Keys":
        """The one layout object for (m, width)."""
        return cls(m, width)

    @classmethod
    def fitting(cls, m: int, bound: int) -> "_Keys":
        """The shared layout whose fields hold 0..bound, and at least as wide
        as m + 2 fields in one CPython digit, so small systems share it."""
        return cls.of(m, max(bound.bit_length() + 1, sys.int_info.bits_per_digit // (m + 2)))

    def join(self, a: int, b: int) -> int:
        """The key of lcm(a, b), keys of one unknown.  Each exponent field of
        d = (a | exponent guards) - b is a_j + limit - b_j; d keeps its low
        bits, a_j - b_j, where its guard bit is set.  b + d is the join, and d
        times ``ones`` sums them into the order field (no partial sum passes
        ord a).  The join's order, at most 2 * (limit - 1), may pass limit."""
        d = (a | self.exponent_guards) - b
        d &= (ge := d & self.exponent_guards) - (ge >> (self.width - 1))
        return b + d + (d * self.ones & self.order_field)

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


class LinearEquation:
    """One homogeneous linear equation, held as a primitive integer row.

    ``row`` maps the packed key (layout ``keys``) of each derivative to an
    integer coefficient, with no common factor, so the leader is
    ``max(row)``; an empty row raises ValueError.  ``scale`` = (p, q) turns
    the row back into the equation's coefficients, row * p / q.  Equations
    are made only by ``parse_system``, which packs each term as it reads
    it, and by completion, so the row is taken as given.  ``terms``, the
    public form, is the pairs (coefficient, monomial) sorted by descending
    rank; it is built on first use.  The row is shared, never mutated.
    """

    __slots__ = ("_row", "_scale", "_keys", "_lead", "_terms")

    def __init__(self, row: dict[int, int], scale: tuple[int, int], keys: _Keys):
        self._row, self._scale, self._keys, self._terms = row, scale, keys, None
        self._lead = max(row)

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
    _completion: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


@functools.lru_cache(maxsize=4096)
def _term_key(exps: str | None, idx: str, keys: _Keys) -> tuple[int, int, int, int]:
    """(entries, unknown, order, packed key at ``keys``) of a ``_MONOMIAL``
    match's groups 'exps' and 'idx'.  At most 4,096 entries, each keeping
    its text: the memory held is at most 4,096 times the longest monomial."""
    xi, unknown = _monomial_key(exps, idx, keys.m)
    return len(xi), unknown, sum(xi), keys.pack(xi, unknown)


def parse_system(text: str) -> LinearDiffSystem:
    """Parse the plain text system format.

    Header lines 'm = <int>' and 'n = <int>' must appear before the first
    equation.  Each equation line reads 'eq: <term> (+|- <term>)*' where a
    term is an optional rational coefficient 'p' or 'p/q' joined with '*'
    to a monomial 'd[u1,...,um]x<i>' or its order-zero shorthand 'x<i>'.
    Blank lines and '#' comments are ignored.  Each term is packed as it
    is read, at ``_Keys.fitting(m, n)``.  A term of an order that layout
    does not hold starts the parse over at ``_Keys.fitting(m, max(n,
    order))``, or at double width if that is wider, so the text is read
    again at most about log2(bit length of its largest order) times.  Every
    row ends at ``_Keys.fitting(m, max(n, system order))``, where
    completion and the echelon take it as it is.
    """
    order = 0
    while True:
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
                keys = _Keys.fitting(shape["m"], max(shape["n"], order))
                equation = _parse_equation(line, eq.end(), lineno, keys, shape["n"])
                if isinstance(equation, int):
                    break  # the order of a term this layout does not hold
                equations.append(equation)
            else:
                raise ParseError(f"unrecognised line {line.strip()!r}", line=lineno)
        else:
            if len(shape) < 2:
                raise ParseError("missing m or n header")
            m, n = shape["m"], shape["n"]
            if order:  # started over: move the rows to the layout their orders need
                wide, keys = keys, _Keys.fitting(m, max(n, *(e.order for e in equations)))
                equations = [LinearEquation(_repack(e._row, wide, keys), e._scale, keys)
                             for e in equations]
            return LinearDiffSystem(m, n, tuple(equations))
        order = max(equation, keys.limit**2)  # at least double the width


def _parse_equation(
    line: str, pos: int, lineno: int, keys: _Keys, n: int
) -> LinearEquation | int:
    """The equation of an 'eq:' line read from ``pos`` on, or the order of its
    first term that ``keys`` does not hold.  The row is kept scaled by the
    lcm q of the denominators so far, with its content p; error columns are
    1-based within ``line``."""
    row: dict[int, int] = {}
    p, q = 0, 1
    if not line[pos:].strip():
        raise ParseError("empty equation", line=lineno, column=len(line) + 1)
    while pos < len(line):
        term = _TERM.match(line, pos)
        sign, num, den, star, mono, exps, idx = term.groups()
        if not sign and row:
            at = term.start("sign")
            raise ParseError(f"expected '+' or '-', got {line[at]!r}", line=lineno, column=at + 1)
        if num:
            num, den = int(num), int(den or 1)
            if den == 0:
                raise ParseError("zero denominator", line=lineno, column=term.start("num") + 1)
            if num == 0:
                raise ParseError("zero coefficient", line=lineno, column=term.start("num") + 1)
            if not star:
                raise ParseError(
                    "constant terms are not allowed; expected '*' and a monomial",
                    line=lineno,
                    column=term.start("star") + 1,
                )
        else:
            num = den = 1
        if not mono:
            raise ParseError("expected a monomial", line=lineno, column=term.end() + 1)
        entries, unknown, order, key = _term_key(exps, idx, keys)
        error = (
            f"exponent list has {entries} entries, expected {keys.m}" if entries != keys.m
            else f"unknown x{unknown} outside 1..{n}" if not 1 <= unknown <= n
            # a key past the layout may stand for another monomial
            else "duplicate monomial in equation" if order < keys.limit and key in row
            else None
        )
        if error:
            raise ParseError(error, line=lineno, column=term.start("mono") + 1)
        if order >= keys.limit:
            return order
        if q % den:
            grow = den // gcd(q, den)
            q, p, row = q * grow, p * grow, {k: c * grow for k, c in row.items()}
        c = num * (q // den)
        row[key] = -c if sign == "-" else c
        p = gcd(p, c)
        pos = term.end()
    return LinearEquation({k: c // p for k, c in row.items()} if p > 1 else row, (p, q), keys)


# ---------------------------------------------------------------------------
# Groebner bases for submodules of the free module over the operator ring


def _eliminate(row, key, g, glead, heap):
    """Cancel ``row``'s term c at ``key`` against theta * g, theta * glead = key,
    in place and fraction-free: with d = gcd(c, lc g), the row becomes
    (lc g / d) * row - (c / d) * theta * g.  Each key it adds is pushed,
    negated, on ``heap``."""
    theta = key - glead
    common = gcd(g[glead], row[key])
    scale, factor = g[glead] // common, row[key] // common
    if scale != 1:
        for k in row:
            row[k] *= scale
    for gkey, gc in g.items():
        tkey = gkey + theta
        val = row.get(tkey)
        if val is None:
            row[tkey] = -factor * gc
            heappush(heap, -tkey)
        elif val == factor * gc:
            del row[tkey]
        else:
            row[tkey] = val - factor * gc


def _normal_form(row, index, keys, tail):
    """Reduce an integer row over the layout ``keys`` in place by
    ``_eliminate`` steps and return it, its content removed once, at the
    end.  Terms are visited in descending rank from a heap, which takes the
    keys each step adds; ``index`` maps an unknown to its basis entries
    (row, leader, position), and the first one whose leader divides a term
    reduces it.  Without ``tail`` the row is only top-reduced: it stops at
    its first term that no leader divides, so that term is its leader.
    """
    heap = [-key for key in row]
    heapify(heap)
    guards, mask, unknown_shift = keys.guards, keys.mask, keys.unknown_shift
    while heap:
        key = -heappop(heap)
        if key not in row:
            continue
        for g, glead, _ in index.get((key >> unknown_shift) & mask, ()):
            if not (key - glead) & guards:
                break
        else:
            if tail:
                continue
            break
        _eliminate(row, key, g, glead, heap)
    if (content := gcd(*row.values())) > 1:
        row = {k: v // content for k, v in row.items()}
    return row


def _groebner(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP, keys: _Keys | None = None
):
    """The reduced Groebner basis, by Buchberger completion under the orderly
    ranking, on primitive integer rows over packed keys ``keys`` (``_Keys``),
    by default sized by the larger of the system's order and n.

    Each element is one (row, packed leader, position) entry, shared by the
    basis and the per-unknown index.  Input equations and S-rows are only
    top-reduced before they join the basis: only an element's leader drives
    the pairs, and the final pass tail-reduces every survivor.  S-pairs
    exist only between elements whose leaders involve the same unknown.
    They wait in a heap keyed by (``_Keys.join`` of the leaders, a, b), and
    packed order is rank order, so the pair of least join under the ranking
    is taken first: Buchberger's normal strategy.  The one pair criterion is
    Buchberger's chain criterion (Becker and Weispfenning 1993): a pair is
    skipped when another element c of the same unknown has a leader
    dividing the join, not (join - lead c) & guards, and neither (a, c) nor
    (b, c) is still pending.  The S-row is theta_a * f, theta_a = join -
    lead f, with its leader cancelled by g in one ``_eliminate`` step.  The
    S-pair reduction past ``gb_step_cap`` raises ResourceLimit instead; a
    pair whose leaders are coprime is reduced, and counted, like any other.

    No pair of two monomials is made: their S-row theta_a * x_a -
    theta_b * x_b is identically zero, so it needs no reduction and pushes
    no element.  Such a pair never waits, so the chain criterion reads it
    as done, which is sound because a zero S-row has the trivial standard
    representation; and it counts against no cap.

    Completion stops, with pairs still waiting, once x_u (order 0) is a
    leader for every unknown u: the module is then the whole free module,
    as Buchberger's algorithm stops once 1 is in the ideal.  x_u divides
    every derivative of x_u, so from then on every reduction ends in zero
    and no waiting pair would push an element; the pairs left count against
    no cap.  The element whose push makes every x_u a leader makes no pairs,
    since the loop ends before it would pop one.  The reduced basis of the
    whole free module is x_1, ..., x_n, so it is returned as it stands, with
    no final pass.

    A system of monomials, every row one term, is its own basis, and its
    reduced basis is returned before any reduction (Becker and Weispfenning
    1993, 5.5): the S-row of two monomials is identically zero, and a
    one-term row top-reduces either to zero or to itself, so the pair loop
    and the final pass could only minimalise.  The distinct leaders are
    walked in ascending order, each kept unless a kept one divides it, and
    each kept leader is the row of the first equation carrying it, scaled
    (1, row[lead]) as the final pass would: the same leaders, layout and
    terms.

    No term of a reduction outranks the S-row's leader, so keys stay
    within the join orders.  A packed join sorts and divides exactly past
    ``limit`` (``_Keys``), so a pair the chain criterion skips needs no
    restart.  At a pair to reduce whose join order does not fit a field,
    completion starts over at double width, which fits the join of two
    fitting leaders; the width doubles on each restart.  Packed order is
    rank order at every width, so the new attempt makes the same pairs and
    rows in the same order and ends in the same basis.  The cap counts the
    reductions of one attempt: the attempt that finishes or raises reduces
    the pairs of a run that never restarted, and an abandoned one costs at
    most a cap's worth.  One pass in ascending leader order then minimalises
    and tail-reduces: a leader divides only derivatives it does not outrank,
    so only the survivors before an element can drop it or reduce its terms.
    """
    check_cap("gb_step_cap", gb_step_cap)
    keys = keys or _Keys.fitting(system.m, max(system.order, system.n))
    join, guards, mask, unknown_shift = keys.join, keys.guards, keys.mask, keys.unknown_shift
    if all(len(eq._row) == 1 for eq in system.equations):  # a system of monomials
        first: dict[int, dict] = {}  # leader -> row of the first equation carrying it
        for eq in system.equations:
            row = _repack(eq._row, eq._keys, keys)
            first.setdefault(max(row), row)
        kept: list[int] = []
        for lead in sorted(first):
            if all((lead - other) & guards for other in kept):
                kept.append(lead)
        return LinearDiffSystem(system.m, system.n, tuple(
            LinearEquation(first[lead], (1, first[lead][lead]), keys) for lead in reversed(kept)
        ))
    basis: list[tuple] = []  # (row, leader, position), shared with index
    index: dict[int, list] = {}  # unknown -> basis entries, insertion order
    units: set[int] = set()  # unknowns u whose x_u is a leader
    pairs: list[tuple] = []  # heap of (packed join, a, b)
    pending: set[tuple[int, int]] = set()

    def push(row):
        lead = max(row)
        unknown, k = (lead >> unknown_shift) & mask, len(basis)
        if not lead >> keys.order_shift:  # order 0: x_u
            units.add(unknown)
        members = index.setdefault(unknown, [])
        for jrow, jlead, j in members if len(units) < system.n else ():
            if len(row) == 1 == len(jrow):
                continue
            heappush(pairs, (join(jlead, lead), j, k))
            pending.add((j, k))
        basis.append(entry := (row, lead, k))
        members.append(entry)

    for eq in system.equations:
        if nf := _normal_form(_repack(eq._row, eq._keys, keys), index, keys, False):
            push(nf)
    steps, overflow = 0, keys.limit << keys.order_shift
    while pairs and len(units) < system.n:
        jkey, a, b = heappop(pairs)
        pending.remove((a, b))
        if any(
            not (jkey - clead) & guards and c != a and c != b
            and (min(a, c), max(a, c)) not in pending
            and (min(b, c), max(b, c)) not in pending
            for _, clead, c in index[(jkey >> unknown_shift) & mask]
        ):
            continue
        if steps == gb_step_cap:
            raise ResourceLimit(
                f"Groebner completion stopped after {steps} S-pair reductions "
                f"with {len(basis)} basis elements (cap {gb_step_cap})"
            )
        steps += 1
        if jkey >= overflow:
            return _groebner(system, gb_step_cap, _Keys.of(keys.m, 2 * keys.width))
        (f, flead, _), (g, glead, _) = basis[a], basis[b]
        s_row = {k + jkey - flead: v for k, v in f.items()}
        _eliminate(s_row, jkey, g, glead, [])
        if nf := _normal_form(s_row, index, keys, False):
            push(nf)

    if len(units) == system.n:
        return LinearDiffSystem(system.m, system.n, tuple(
            LinearEquation({u << unknown_shift: 1}, (1, 1), keys) for u in range(system.n, 0, -1)
        ))
    survivors: dict[int, list] = {}  # unknown -> kept entries, ascending leaders
    reduced = []
    for row, lead, k in sorted(basis, key=lambda e: e[1]):
        before = survivors.setdefault(keys.unknown(lead), [])
        if any(not (lead - other[1]) & guards for other in before):
            continue
        nf = _normal_form(dict(row), survivors, keys, True)
        before.append((row, lead, k))
        reduced.append(LinearEquation(nf, (1, nf[lead]), keys))
    return LinearDiffSystem(system.m, system.n, tuple(reversed(reduced)))


def module_groebner(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> LinearDiffSystem:
    """The reduced Groebner basis of the submodule the equations generate,
    completed once per system object and shared by every route on it.  One
    that finished under cap c made at most c reductions, so it serves any
    cap >= c; a smaller cap completes again, and may raise."""
    check_cap("gb_step_cap", gb_step_cap)
    if (done := system._completion) is None or done[1] > gb_step_cap:
        done = _groebner(system, gb_step_cap), gb_step_cap
        object.__setattr__(system, "_completion", done)
    return done[0]


def leader_profile(gb: LinearDiffSystem) -> LeaderProfile:
    """Leader exponents of a reduced basis, a set per unknown that leads.  One
    profile is built per (m, n, leaders), each packed leader keyed with its
    own layout, in a bounded lookup, and shared by every basis with that key."""
    return _shared_profile(gb.m, gb.n, tuple((eq._lead, eq._keys) for eq in gb.equations))


@functools.lru_cache(maxsize=4096)
def _shared_profile(m: int, n: int, leaders: tuple[tuple[int, _Keys], ...]) -> LeaderProfile:
    buckets: dict[int, list[ExponentVector]] = {}
    for lead, keys in leaders:
        xi, unknown = keys.unpack(lead)
        buckets.setdefault(unknown, []).append(xi)
    return LeaderProfile(m, n, tuple((u, ExponentSet(m, tuple(b))) for u, b in buckets.items()))


def kolchin_polynomial(
    system: LinearDiffSystem, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> NumericalPolynomial:
    """Kolchin polynomial via the Groebner route, on ``module_groebner``."""
    return kolchin_from_leaders(leader_profile(module_groebner(system, gb_step_cap)))


# ---------------------------------------------------------------------------
# prolongation matrices


def _reduce(row, lead, pivots):
    """Reduce ``row``, whose pivot ``lead`` is one of ``pivots`` (pivot ->
    row), for as long as its pivot is one of theirs: in place,
    fraction-free, one step per pivot met.  Returns (row, pivot), the pivot
    None once the row is zero, and the row's content removed otherwise."""
    while (piv := pivots.get(lead)) is not None:
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
        if not row:
            return row, None
        lead = max(row)
    if (content := gcd(*row.values())) > 1:
        row = {k: v // content for k, v in row.items()}
    return row, lead


class _Echelon:
    """One echelon form of the prolongation rows, built one level at a time
    by ``grow``.  ``orders`` holds one (level, order) pair per pivot, in the
    order the pivots were made, ``level`` is the last level built and
    ``held`` the entries of the pivot rows.

    Level L spans the rows theta * equation with ord(theta) + ord(equation)
    == L, but builds them from the level below: this is F4's Simplify
    (Faugere 1999) with Janet's choice of parent (Gerdt and Blinkov 1998).
    Level L starts with the equations of order L, unshifted.  Then each row
    of level L - 1 that did not reduce to zero adds d_j of its reduced row
    for every j >= k, where k is the index that row was built with and an
    equation's own row has k = 0; a row that reduced to zero has no
    children.  The first level built is the least equation order.  Rows are
    sparse integer dicts over packed rank keys (``_Keys``), so a row's pivot
    is its highest-ranked derivative and d_j of a row is one addition per
    key.  Adding one constant to every key keeps their order, so d_j of a
    row with pivot p has pivot p + steps[j], and a shift of a primitive row
    is primitive, as every equation row is: a fresh row inherits its pivot,
    and only a row that a reduction step touched is rescanned for its pivot
    and its content.  Each new row is reduced once by ``_reduce`` against
    the pivot rows so far, and what is left is the new pivot row.  That step
    is the echelon's own, not ``_eliminate``: it is the arithmetic of
    ``--check``'s second route, kept apart from the completion it checks.
    The pivot set is the set of leading derivatives of the row span: it
    does not depend on row order and only grows with L.  So the pivots of
    order <= s after level L are the pairs with level <= L and order <= s.

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
    earlier pivots.  The pivots are an echelon basis of S_L, so a row lies
    in S_L exactly when ``_reduce`` against them leaves zero.

    The cap counts ``held``, the entries of the pivot rows, as each pivot
    row is stored; ResourceLimit names the level, the row and the entries.
    From the first level on, every level stores a pivot row: the highest
    pivot row, stored at the level before, is a parent, and its d_j for the
    last j has a pivot above every earlier one.  So H = ``held`` bounds the
    work: at most H levels from the first, m * H + (equations) rows built
    and H steps per row, each lowering its pivot and costing the entries of
    the two rows it reads.  A row is made only when the loop reaches it, so
    memory is the pivot rows and one row under reduction, which holds at
    most its own entries and those of the pivots it met: O(H) entries.
    With no equations there is no first level: ``level`` is infinite and
    nothing is built.  The keys start at ``keys`` or the system's own
    layout.  A level that does not fit a field starts the echelon over at
    double width, rebuilt to the level below: packed order is rank order at
    every width, so it makes the same rows and pivots in the same order,
    with the same ``orders`` and ``held`` under the same cap.  One doubling
    fits the level, and a rebuild at most doubles the work done so far.
    """

    __slots__ = ("system", "cap", "keys", "level", "held", "pivots", "orders", "parents")

    def __init__(self, system: LinearDiffSystem, matrix_cell_cap: int, keys: _Keys | None = None):
        self.system, self.cap, self.held = system, matrix_cell_cap, 0
        self.keys = keys or _Keys.fitting(system.m, max(system.order, system.n))
        self.level = min((eq.order for eq in system.equations), default=inf) - 1
        self.pivots: dict[int, dict] = {}  # pivot -> its reduced row
        self.orders: list[tuple[int, int]] = []
        self.parents: list[tuple] = []  # (k, reduced row, pivot) of the last level built

    def build(self, top: int) -> None:
        while self.level < top:
            self.grow()

    def grow(self) -> None:
        level = self.level + 1
        if level >= self.keys.limit:
            self.__init__(self.system, self.cap, _Keys.of(self.keys.m, 2 * self.keys.width))
            self.build(level - 1)
        self.level = level
        keys, pivots, orders, cap, held = self.keys, self.pivots, self.orders, self.cap, self.held
        steps, shift = keys.steps, keys.order_shift
        rows = chain(
            ((0, row := _repack(eq._row, eq._keys, keys), max(row))
             for eq in self.system.equations if eq.order == level),
            ((j, {key + step: c for key, c in row.items()}, lead + step)
             for first, row, lead in self.parents for j, step in enumerate(steps[first:], first)),
        )
        self.parents = parents = []
        for first, row, lead in rows:
            if lead in pivots:
                row, lead = _reduce(row, lead, pivots)
                if lead is None:
                    continue
            held += len(row)
            if held > cap:
                raise ResourceLimit(
                    f"prolongation echelon at level {level}: pivot row {len(pivots) + 1} "
                    f"would bring the entries held to {held} (cap {cap})"
                )
            pivots[lead] = row
            orders.append((level, lead >> shift))
            parents.append((first, row, lead))
        self.held = held


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
    kills one of the n * C(m + s, m) low-order degrees of freedom, under
    the echelon's cap on the entries held (see ``_Echelon``).
    """
    if s < 0 or margin < 0:
        raise ValueError("level and margin must be non-negative")
    check_cap("matrix_cell_cap", matrix_cell_cap)
    echelon = _Echelon(system, matrix_cell_cap)
    echelon.build(s + margin)
    return system.n * comb(system.m + s, system.m) - sum(order <= s for _, order in echelon.orders)


def _echelon_margin(echelon: _Echelon, gb: LinearDiffSystem, window: int) -> int:
    """max(L(x) - ord x, 0) over the leaders x of the elements of ``gb`` of
    order at most ``window``, L(x) the first level at which x is a pivot of
    ``echelon`` (nothing built yet), grown until every such x is one.  A
    leader that no element of the module has never becomes a pivot, but
    each level stores at least one pivot row, so the echelon's cap on the
    entries held ends the search within cap levels."""
    keys = echelon.keys
    waiting = [(g._lead if g._keys is keys else keys.pack(*g._keys.unpack(g._lead)), g.order)
               for g in gb.equations if g.order <= window]
    margin = 0
    while waiting:
        echelon.grow()
        if echelon.keys is not keys:
            waiting = [(echelon.keys.pack(*keys.unpack(x)), order) for x, order in waiting]
            keys = echelon.keys
        pivots = echelon.pivots
        if found := [order for x, order in waiting if x in pivots]:
            margin = max(margin, echelon.level - min(found))
            waiting = [(x, order) for x, order in waiting if x not in pivots]
    return margin


def kolchin_via_prolongation(
    system: LinearDiffSystem,
    matrix_cell_cap: int = DEFAULT_MATRIX_CELL_CAP,
    gb_step_cap: int = DEFAULT_GB_STEP_CAP,
) -> NumericalPolynomial:
    """Kolchin polynomial from exact prolongation ranks plus interpolation.

    The leader complements of the reduced basis B count polynomially from
    ``floor``, the largest ``stabilisation_level`` of the listed sets or 0, in
    degree d, their sum's type (each leads positively), so the d + 1 values
    on [floor, floor + d] give the polynomial, returned padded to m.  For a
    leader x of B, the first pivot row with pivot x is an element p_x of
    the module, made at level L(x) (``_echelon_margin``).  As B's leaders
    generate the module's leading terms, the p_x are a Groebner basis too,
    so every f in the module with ord f <= s has a standard representation
    sum c * theta * p_x with ord(theta * x) <= s.  For s <= top =
    floor + d + 1 only the x of order <= top enter it, and theta * p_x lies
    in the level L(x) + ord theta <= s + L(x) - ord x span.  So with margin
    max(L(x) - ord x) over them the pivots of order <= s at level s + margin
    count the module's elements of order <= s, for every s <= top: the
    margin goes one level past the window so that the guard's value at top
    is exact too.  A g of B lies in no span below level L(x), so the margin
    is never above one read off B's rows; the lookup does not show that g
    is in the module, so the polynomial reads B only through its leaders.

    One ``_Echelon``, built to level top + margin, serves the margin and the
    values, its cap on the entries held bounding both.  The self-check is
    the margin's own claim: a pivot made at level ``at`` has order
    >= at - margin, on every level, or DiffdimError names it.  So the values
    are a running sum of the pivots by order.  The guard: the value at top
    must be the interpolated polynomial's, or DiffdimError.  It catches a d
    or floor read too low whose next value leaves the polynomial, not one
    whose d + 2 values happen to fit.

    The route stops once the margin's echelon has x_u (order 0) as a pivot
    for every unknown u, and answers 0 with no further level, self-check or
    interpolation.  A pivot row with pivot x_u has below it only terms x_v
    with v < u, so by induction on u every x_u lies in the module: it is
    the whole free module and counts 0 at every s.  That rests on the
    echelon's own rows alone: floor, d and the margin are not read, and B's
    leaders only say how far the search grows.
    """
    check_cap("matrix_cell_cap", matrix_cell_cap)
    gb = module_groebner(system, gb_step_cap)
    profile = leader_profile(gb)
    floor = max((stabilisation_level(es) for _, es in profile.sets), default=0)
    d = kolchin_from_leaders(profile).differential_type()
    m, n, top = system.m, system.n, floor + d + 1
    echelon = _Echelon(system, matrix_cell_cap)
    margin = _echelon_margin(echelon, gb, top)
    if all(u << echelon.keys.unknown_shift in echelon.pivots for u in range(1, n + 1)):
        return NumericalPolynomial.zero(m)
    echelon.build(top + margin)
    tally = [0] * (d + 2)  # pivots of order floor + j, those below floor at j = 0
    for at, order in echelon.orders:
        if order < at - margin:
            raise DiffdimError(
                f"prolongation self-check failed: a pivot of order {order} "
                f"at level {at}, more than margin {margin} above its order"
            )
        if order <= top:
            tally[max(order - floor, 0)] += 1
    *values, last = (n * comb(m + floor + j, m) - low for j, low in enumerate(accumulate(tally)))
    omega = interpolate(values, floor)
    if (want := omega.evaluate(top)) != last:
        raise DiffdimError(f"prolongation self-check failed: value at {top} is {last}, not {want}")
    return omega.padded(m)


def omega_at_least(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    """Does the system's Kolchin polynomial eventually dominate p?"""
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) >= 0


def omega_equals(
    system: LinearDiffSystem, p: NumericalPolynomial, gb_step_cap: int = DEFAULT_GB_STEP_CAP
) -> bool:
    """Is the system's Kolchin polynomial p, by eventual comparison?"""
    return compare_eventual(kolchin_polynomial(system, gb_step_cap), p) == 0
