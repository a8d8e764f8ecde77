"""Exponent sets in N^m and their Kolchin polynomials.

An exponent set stands for the upward closure of its generators under the
componentwise order.  The volume function counts the points *outside* the
closure of order at most s exactly, walking prefixes over the first m - 2
coordinates and summing runs of coordinate m - 1 in closed form, under a
cap on the binom(s + m - 2, m - 2) prefixes it can visit.  One recursion
computes the Hilbert numerator N(z), with sum_{xi outside the closure}
z^|xi| = N(z) / (1 - z)^m, kept sparse as its nonzero terms, so a
generator entry of 10^9 costs one term and not 10^9.  The count at s is
sum_{k <= s} N_k * binom(s - k + m, m); the Kolchin polynomial is that sum
over every k, each binomial read as a polynomial in s; the two agree from
stabilisation_level = max(0, deg N - m) on.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from math import comb
from operator import ge

from .errors import ParseError, ResourceLimit, check_cap
from .numpoly import NumericalPolynomial

DEFAULT_ENUMERATION_CAP = 10**7
# _numerator and _outside recurse once per coordinate: m <= 256 leaves a
# caller room under the interpreter's default depth limit of 1,000
MAX_AMBIENT_DIMENSION = 256

ExponentVector = tuple[int, ...]


def dominates(a: ExponentVector, b: ExponentVector) -> bool:
    return all(map(ge, a, b))


def _check_vector(xi, m) -> ExponentVector:
    xi = tuple(xi)
    if len(xi) != m:
        raise ValueError(f"exponent vector {xi} does not have {m} entries")
    for e in xi:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponent entries must be naturals, got {xi}")
    return xi


def _minimalize(gens: tuple[ExponentVector, ...]) -> tuple[ExponentVector, ...]:
    # lexicographic order visits a generator after every one it dominates
    out = []
    for g in sorted(set(gens)):
        if not any(dominates(g, h) for h in out):
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class ExponentSet:
    """Finitely many generators of an upward-closed subset of N^m.

    ``generators`` is the canonical antichain of minimal elements, sorted,
    whatever was given, so two sets compare equal exactly when they
    generate the same closure.
    """

    m: int
    generators: tuple[ExponentVector, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ambient dimension must be at least 1")
        if self.m > MAX_AMBIENT_DIMENSION:
            raise ResourceLimit(
                f"exponent set in N^{self.m}: the recursion allows at most "
                f"m = {MAX_AMBIENT_DIMENSION}"
            )
        gens = tuple(_check_vector(g, self.m) for g in self.generators)
        object.__setattr__(self, "generators", _minimalize(gens))


def minimal_elements(exp_set: ExponentSet) -> ExponentSet:
    """Canonical form: the set itself, whose generators are already the
    sorted antichain of minimal elements."""
    return exp_set


def volume(exp_set: ExponentSet, s: int, enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Count points of order <= s lying outside the upward closure.

    Walks the prefixes p over the first m - 2 coordinates.  Over p, the
    point (p, y, t) is outside exactly when t < h(y), the least g_m of the
    generators whose first m - 1 entries lie below (p, y).  The fibre over
    y holds min(s - |p| - y + 1, h(y)) points, and h is a step function, so
    each run of y between generator entries is summed in closed form.  A
    slice xi_1 = x whose generator tails include the zero vector is covered,
    as is every later one, so the walk stops there.  A prefix costs one pass
    over the generators below it: 0.5-0.7 us with one, 1.7 us with 12 and
    about 50 us with 861 (m = 3 to 5, CPython 3.11, one x86-64 core).  So
    the cap bounds the binom(s + m - 2, m - 2) prefixes of order <= s it can
    visit (one at m <= 2) times the generators (at least one), checked first.
    """
    if s < 0:
        raise ValueError("order cutoff must be non-negative")
    check_cap("enumeration_cap", enumeration_cap)
    m, gens = exp_set.m, exp_set.generators
    k = max(m - 2, 0)
    prefixes = comb(s + k, k)
    if (steps := prefixes * max(1, len(gens))) > enumeration_cap:
        raise ResourceLimit(
            f"volume walk at order {s} visits up to {prefixes} prefixes over {k} coordinates, "
            f"each a pass over {len(gens)} generators: {steps} steps (cap {enumeration_cap})"
        )
    return _outside(m, gens, s)


def _tri(n: int, h: int) -> int:
    """sum_{r <= n} min(r, h), for n >= 0."""
    return n * (n + 1) // 2 if n <= h else h * (h + 1) // 2 + (n - h) * h


def _outside(m: int, gens, s: int) -> int:
    """volume in N^m for sorted ``gens``, which need not be an antichain."""
    if m == 1:
        return min([s + 1] + [g[0] for g in gens])
    if m == 2:
        # h = s + 1 stands for no generator: no fibre holds more points
        total, h, y0 = 0, s + 1, 0
        for a, b in gens:
            if a <= s and b < h:
                total += _tri(s - y0 + 1, h) - _tri(s - a + 1, h)
                h, y0 = b, a
        return total + _tri(s - y0 + 1, h)
    # the slice xi_1 = x: N^(m-1) up to order s - x, less the g with g_1 <= x;
    # once a tail is all zeros it covers this slice and every later one
    total, active, i = 0, [], 0
    for x in range(s + 1):
        j = i
        while i < len(gens) and gens[i][0] <= x:
            i += 1
        if j < i:
            active = sorted(active + [g[1:] for g in gens[j:i]])
            if not any(active[0]):
                break
        total += _outside(m - 1, active, s - x)
    return total


def volume_ie(exp_set: ExponentSet, s: int) -> int:
    """The same count by inclusion-exclusion over joins of minimal elements.

    No enumeration of lattice points: the product over the minimal
    generators g of (1 - [g]) is expanded over the join semilattice, one
    coefficient per distinct join J, and J contributes its coefficient
    times binom(s - |J| + m, m), the points of order <= s above J.  This is
    the sum over all subsets of the antichain with equal joins collected
    (the lcm lattice of Gasharov, Peeva and Welker 1999), so its cost is
    bounded by the distinct joins, at most min(2^k, (k + 1)^m) for k
    generators, and not by the 2^k subsets.  It shares no code with the
    Hilbert numerator, and is meant as an independent cross-check.
    """
    if s < 0:
        raise ValueError("order cutoff must be non-negative")
    m = exp_set.m
    terms = {(0,) * m: 1}  # join -> coefficient, zero coefficients dropped
    for g in exp_set.generators:
        for join, c in list(terms.items()):
            up = tuple(map(max, join, g))
            c = terms.get(up, 0) - c
            if c:
                terms[up] = c
            else:
                del terms[up]
    return sum(c * comb(s - sum(join) + m, m) for join, c in terms.items() if sum(join) <= s)


@functools.lru_cache(maxsize=4096)
def dimension_polynomial(exp_set: ExponentSet) -> NumericalPolynomial:
    """The Kolchin polynomial of the complement of the closure.

    Read off the Hilbert numerator N(z) (see the module docstring): the
    standard coefficient of binom(t + m - j, m - j) is
    (-1)^j * sum_k N_k * binom(k, j).  Evaluating the result at any
    s >= stabilisation_level(exp_set) gives volume(exp_set, s).  A set
    compares by (m, antichain), so one polynomial is built per (m,
    antichain), in a bounded lookup, and shared.
    """
    m = exp_set.m
    num = _numerator(m, exp_set.generators)
    coeffs = ((-1) ** j * sum(c * comb(k, j) for k, c in num) for j in range(m + 1))
    return NumericalPolynomial(m, tuple(coeffs))


# A leader set's numerator is read by dimension_polynomial, by both Kolchin
# routes and by stabilisation_level, and small antichains (and the sections
# the recursion splits off) repeat across calls: on 1,500 expsets-antichains
# instances the cache hits 6,444 times against 560 misses, and dropping it
# raised that run's CPU time from 2.8-3.6 s to 3.9-4.2 s (Python 3.11, one
# Xeon core).  The lookups above it repeat too: over the first 1,000
# instances at seed 1, dimension_polynomial hits 2,000 / 1,285 / 20 times
# against 387 / 70 / 7 misses on expsets-antichains / check-random /
# groebner-random, and lindiff's leader profiles 1,613 / 1,903 / 985 times
# against 387 / 97 / 15.
@functools.lru_cache(maxsize=4096)
def _numerator(m: int, gens: tuple[ExponentVector, ...]) -> tuple[tuple[int, int], ...]:
    """Hilbert numerator of the complement of the antichain's closure, as
    its (degree, coefficient) pairs with nonzero coefficient, in increasing
    degree; the empty tuple is N = 0.

    Splits on a pivot coordinate j, with d the least positive j-th entry:
    the points with xi_j < d are d layers over the complement of the
    section (the generators with xi_j = 0) in N^(m-1), and the points with
    xi_j >= d are d*e_j plus the complement of the set shifted down by d in
    coordinate j, hence N = (1 - z^d) * N_section + z^d * N_shifted.  The
    shifted set is split again in the loop, so the recursion descends in m
    only.

    ``gens`` is a sorted antichain and stays one.  The section is already
    one.  After the shift, a generator can only come to lie below another
    when its j-th entry fell from d to 0; those fallen generators stay
    pairwise incomparable, so the shift only drops what they dominate.
    """
    total: dict[int, int] = {}
    shift = 0
    while gens and (0,) * m not in gens:
        j = max(i for i, e in enumerate(gens[0]) if e)  # gens[0] is lexicographically least
        d = min(g[j] for g in gens if g[j])
        section = _numerator(m - 1, tuple(g[:j] + g[j + 1:] for g in gens if not g[j]))
        for k, c in section:
            total[shift + k] = total.get(shift + k, 0) + c
            total[shift + d + k] = total.get(shift + d + k, 0) - c
        shift += d
        fallen = [g[:j] + (0,) + g[j + 1:] for g in gens if g[j] == d]
        rest = (g[:j] + (max(g[j] - d, 0),) + g[j + 1:] for g in gens if g[j] != d)
        gens = tuple(sorted(fallen + [g for g in rest if not any(dominates(g, f) for f in fallen)]))
    if not gens:
        total[shift] = total.get(shift, 0) + 1
    return tuple(sorted((k, c) for k, c in total.items() if c))


def _numerator_volume(exp_set: ExponentSet, s: int) -> int:
    """volume(exp_set, s) read off the Hilbert numerator, with no enumeration:
    sum_{k <= s} N_k * binom(s - k + m, m)."""
    m = exp_set.m
    num = _numerator(m, exp_set.generators)
    return sum(c * comb(s - k + m, m) for k, c in num if k <= s)


def stabilisation_level(exp_set: ExponentSet) -> int:
    """The least L >= 0 with volume(exp_set, s) equal to the Kolchin
    polynomial at s for every s >= L; it is max(0, deg N - m), and 0 when
    N = 0.

    The polynomial minus the count at s is
    (-1)^m * sum_{k > s} N_k * binom(k - s - 1, m), whose terms vanish once
    k <= s + m, so every s >= deg N - m agrees.  At s = deg N - m - 1 only
    k = deg N is left, with binom(m, m) = 1, so the difference there is
    +-N_top, which is not zero.
    """
    num = _numerator(exp_set.m, exp_set.generators)
    return max(0, num[-1][0] - exp_set.m) if num else 0


def stability_bound(exp_set: ExponentSet) -> int:
    """A cutoff beyond which the volume agrees with the Kolchin polynomial.

    Returns max(0, m*(D - 1)) where D sums the orders of the minimal
    generators.  An a-priori bound, cheap and valid but not tight;
    stabilisation_level gives the exact level.
    """
    d = sum(sum(g) for g in exp_set.generators)
    return max(0, exp_set.m * (d - 1))


# comma-separated ASCII naturals, whitespace allowed around each entry
_NATURALS = re.compile(r"\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*")


def _lines(text: str):
    """Yield (1-based line number, line) with '#' comments cut, trailing
    whitespace stripped and blank lines skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line


def _naturals(text: str, lineno: int, width: int | None = None) -> tuple[int, ...]:
    """Read 'u1,...,uk' as a tuple of naturals, of length ``width`` when
    that is given."""
    if not _NATURALS.fullmatch(text):
        raise ParseError(f"expected comma-separated naturals, got {text.strip()!r}", line=lineno)
    try:
        row = tuple(map(int, text.split(",")))
    except ValueError as exc:  # past the interpreter's integer-string limit
        raise ParseError(str(exc), line=lineno) from None
    if width is not None and len(row) != width:
        raise ParseError(f"expected {width} entries, got {len(row)}", line=lineno)
    return row


def parse_exponent_set(text: str, m: int | None = None) -> ExponentSet:
    """Read one generator per line, entries comma-separated.

    Blank lines and '#' comments are skipped.  When ``m`` is given every
    row must have that many entries; otherwise the width of the first row
    fixes it.
    """
    gens = []
    width = m
    for lineno, line in _lines(text):
        gens.append(_naturals(line, lineno, width))
        width = len(gens[-1])
    if width is None:
        raise ParseError("no generators and no ambient dimension given")
    return ExponentSet(width, tuple(gens))
