"""Seeded instance generators and per-instance runners for the benchmark.

Every instance is produced as input *text* (an exponent-set file or a
system file, exactly what a CLI user would write) from a ``random.Random``
seeded by ``(workload, seed, index)``, so instance ``i`` of a seed is the
same wherever and whenever it is generated.  Instances are drawn from
shape parameters only; none is ever filtered by its running time or
outcome.

A runner takes the text, calls the public API of ``diffdim`` through the
module attributes (``lindiff.parse_system`` and so on, so that the traced
run can replace them), checks the answer and returns the name of the
route that certified it.  A wrong answer raises ``WrongAnswer``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from diffdim import diffrank, expsets, lindiff
from diffdim.numpoly import NumericalPolynomial

WORKLOADS = ("expsets-antichains", "groebner-random", "check-random")

# groebner-random cycles through this many distinct instances per seed, so
# that the stored reference answers cover every instance a run can reach.
GROEBNER_POOL = 1000

# Generators per expsets-antichains set, and the share of check-random
# instances drawn from the equation families; bench/README.md says why.
ANTICHAIN_SIZE = 6
FAMILY_SHARE = 0.3

REFERENCE_FILE = Path(__file__).with_name("groebner_reference.json")


class WrongAnswer(Exception):
    """Two routes, or a route and the stored reference, disagree."""


def instance_rng(workload: str, seed: int, index: int, stream: str = "run") -> random.Random:
    # A string seed goes through SHA-512, so it is stable across processes,
    # unlike hash() of a tuple.
    return random.Random(f"{workload}/{stream}/{seed}/{index}")


# ---------------------------------------------------------------------------
# text builders


def _monomial(xi, unknown) -> str:
    return f"d[{','.join(map(str, xi))}]x{unknown}"


def _equation(terms) -> str:
    """'eq:' line from (coefficient, exponents, unknown) triples."""
    out = []
    for k, (c, xi, unknown) in enumerate(terms):
        body = f"{abs(c)}*{_monomial(xi, unknown)}"
        if k == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return "eq: " + " ".join(out)


def _system_text(m: int, n: int, equations) -> str:
    return "\n".join([f"m = {m}", f"n = {n}"] + [_equation(e) for e in equations]) + "\n"


def _composition(rng: random.Random, m: int, order: int) -> tuple[int, ...]:
    """A random exponent vector in N^m of the given order."""
    cuts = sorted(rng.randint(0, order) for _ in range(m - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [order]))


def _coefficient(rng: random.Random) -> int:
    c = rng.randint(1, 9)
    return c if rng.random() < 0.5 else -c


def random_system(rng: random.Random, m: int, n: int, equations: int, order: int, terms: int = 4) -> str:
    """Dense-ish random system: each equation has one term of the full order
    and ``terms - 1`` further distinct terms of random lower or equal order."""
    eqs = []
    for _ in range(equations):
        keys = [(_composition(rng, m, order), rng.randint(1, n))]
        while len(keys) < terms:
            key = (_composition(rng, m, rng.randint(0, order)), rng.randint(1, n))
            if key not in keys:
                keys.append(key)
        eqs.append([(_coefficient(rng), xi, unknown) for xi, unknown in keys])
    return _system_text(m, n, eqs)


def _unit(m: int, i: int, k: int = 1) -> tuple[int, ...]:
    return tuple(k if j == i else 0 for j in range(m))


def family_system(rng: random.Random, family: str, m: int) -> str:
    """Laplace, heat and wave equations and Cauchy-Riemann-type pairs, with
    seeded positive weights on each term."""
    w = [rng.randint(1, 5) for _ in range(m)]
    if family == "laplace":
        eq = [(w[i], _unit(m, i, 2), 1) for i in range(m)]
    elif family == "heat":
        eq = [(w[0], _unit(m, 0), 1)] + [(-w[i], _unit(m, i, 2), 1) for i in range(1, m)]
    elif family == "wave":
        eq = [(w[0], _unit(m, 0, 2), 1)] + [(-w[i], _unit(m, i, 2), 1) for i in range(1, m)]
    elif family == "cauchy-riemann":
        a, b = w[0], w[1]
        return _system_text(2, 2, [
            [(a, (0, 1), 2), (-b, (1, 0), 1)],
            [(b, (1, 0), 2), (a, (0, 1), 1)],
        ])
    else:
        raise ValueError(family)
    return _system_text(m, 1, [eq])


def _vectors_of_order(m: int, d: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d + 1) for rest in _vectors_of_order(m - 1, d - k)]


def antichain(rng: random.Random, m: int, k: int, shape: str, width: int) -> list[tuple[int, ...]]:
    """k generators forming an antichain in N^m.

    ``same-order``: k distinct vectors of one order (chosen so that at least
    k exist).  ``staircase``: first coordinates strictly rising and second
    strictly falling within [0, width], the rest 0 or 1.
    """
    if shape == "same-order":
        d = 0
        while len(_vectors_of_order(m, d)) < k:
            d += 1
        return rng.sample(_vectors_of_order(m, d + rng.randint(0, 1)), k)
    a = sorted(rng.sample(range(width + 1), k))
    b = sorted(rng.sample(range(width + 1), k), reverse=True)
    return [(a[i], b[i]) + tuple(rng.randint(0, 1) for _ in range(m - 2)) for i in range(k)]


def exponent_set_text(gens) -> str:
    return "".join(",".join(map(str, g)) + "\n" for g in gens)


def monomial_system_text(m: int, gens) -> str:
    """One equation 'd[g]x1' per generator: its Kolchin polynomial is the
    dimension polynomial of the generators."""
    return _system_text(m, 1, [[(1, g, 1)] for g in gens])


# ---------------------------------------------------------------------------
# instances


def make_instance(workload: str, seed: int, index: int, stream: str = "run") -> dict:
    """Instance ``index`` of ``workload`` under ``seed`` as a dict of texts."""
    if workload == "groebner-random" and stream == "run":
        index %= GROEBNER_POOL
    rng = instance_rng(workload, seed, index, stream)
    if workload == "expsets-antichains":
        m = rng.choice((2, 2, 3))
        shape = "same-order" if m == 3 else rng.choice(("same-order", "staircase"))
        gens = antichain(rng, m, ANTICHAIN_SIZE, shape, width=ANTICHAIN_SIZE + 1)
        return {"m": m, "set": exponent_set_text(gens), "system": monomial_system_text(m, gens)}
    if workload == "groebner-random":
        m, n, equations, order = rng.choice(
            ((2, 1, 3, 3), (2, 1, 4, 3), (2, 2, 4, 2), (2, 2, 5, 2))
        )
        return {"system": random_system(rng, m, n, equations, order), "index": index}
    if workload == "check-random":
        if rng.random() < FAMILY_SHARE:
            family = rng.choice(("laplace", "heat", "wave", "cauchy-riemann"))
            return {"system": family_system(rng, family, rng.randint(2, 4))}
        m, n, equations, order = rng.choice((
            (2, 1, 2, 2), (2, 1, 2, 3), (2, 1, 3, 2), (2, 2, 2, 2), (3, 1, 2, 2),
        ))
        return {"system": random_system(rng, m, n, equations, order)}
    raise ValueError(f"unknown workload {workload!r}")


def _expect(label: str, *values) -> None:
    if any(v != values[0] for v in values[1:]):
        raise WrongAnswer(f"{label}: {values!r}")


def run_expsets(inst: dict, reference) -> str:
    exp_set = expsets.parse_exponent_set(inst["set"], m=inst["m"])
    poly = expsets.dimension_polynomial(exp_set)
    level = expsets.stability_bound(exp_set)
    _expect(
        f"volume counters at s={level}",
        expsets.volume(exp_set, level),
        expsets.volume_ie(exp_set, level),
        poly.evaluate(level),
    )
    system = lindiff.parse_system(inst["system"])
    _expect(
        "monomial system",
        poly,
        lindiff.kolchin_polynomial(system),
        lindiff.kolchin_via_prolongation(system),
    )
    return "counters+both-routes"


def run_groebner(inst: dict, reference) -> str:
    system = lindiff.parse_system(inst["system"])
    basis = lindiff.module_groebner(system)
    poly = diffrank.kolchin_from_leaders(lindiff.leader_profile(basis))
    if reference is None:
        inst["answer"] = poly
        return "prolongation-after-run"
    _expect("stored reference", poly, NumericalPolynomial.from_coeffs(reference[inst["index"]]))
    return "stored-reference"


def run_check(inst: dict, reference) -> str:
    system = lindiff.parse_system(inst["system"])
    _expect(
        "groebner vs prolongation",
        lindiff.kolchin_polynomial(system),
        lindiff.kolchin_via_prolongation(system),
    )
    return "both-routes"


RUNNERS = {
    "expsets-antichains": run_expsets,
    "groebner-random": run_groebner,
    "check-random": run_check,
}


def check_deferred(inst: dict) -> None:
    """Outside the timed region: the prolongation route must agree with the
    Groebner answer a run without stored references recorded."""
    system = lindiff.parse_system(inst["system"])
    _expect("groebner vs prolongation", inst["answer"], lindiff.kolchin_via_prolongation(system))


# ---------------------------------------------------------------------------
# stored references for groebner-random
#
# The file maps a seed to a fixed-width code per pool index; each code
# indexes a table of distinct standard-coefficient tuples.  A digest of the
# seed's instance texts is stored beside it, so answers made for another
# generator or pool size are never used.  bench/make_reference.py writes it.

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def pool_digest(seed: int) -> str:
    texts = (make_instance("groebner-random", seed, i)["system"] for i in range(GROEBNER_POOL))
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def load_reference(seed: int):
    """Standard coefficients per pool index for ``seed``, or None when the
    file has no answers for this seed and this generator."""
    if not REFERENCE_FILE.exists():
        return None
    doc = json.loads(REFERENCE_FILE.read_text())
    row = doc["seeds"].get(str(seed))
    if row is None or doc["digests"][str(seed)] != pool_digest(seed):
        return None
    table = [tuple(c) for c in doc["answers"]]
    width = doc["width"]
    return [
        table[_decode(row[i:i + width])] for i in range(0, len(row), width)
    ]


def _decode(chunk: str) -> int:
    value = 0
    for ch in chunk:
        value = value * len(_ALPHABET) + _ALPHABET.index(ch)
    return value


def _encode(value: int, width: int) -> str:
    out = ""
    for _ in range(width):
        value, digit = divmod(value, len(_ALPHABET))
        out = _ALPHABET[digit] + out
    if value:
        raise ValueError("answer table too large for the code width")
    return out


def reference_row(seed: int) -> list[tuple[int, ...]]:
    """Answers for every pool index of ``seed``, where both routes agree."""
    out = []
    for index in range(GROEBNER_POOL):
        system = lindiff.parse_system(make_instance("groebner-random", seed, index)["system"])
        via_gb = lindiff.kolchin_polynomial(system)
        via_ranks = lindiff.kolchin_via_prolongation(system)
        if via_gb != via_ranks:
            raise WrongAnswer(f"seed {seed} index {index}: routes disagree")
        out.append(via_gb.standard_coeffs)
    return out


def write_reference(rows: dict[int, list[tuple[int, ...]]]) -> None:
    table = sorted({c for row in rows.values() for c in row})
    index = {c: k for k, c in enumerate(table)}
    width = 1
    while len(_ALPHABET) ** width < len(table):
        width += 1
    doc = {
        "width": width,
        "digests": {str(seed): pool_digest(seed) for seed in sorted(rows)},
        "answers": [list(c) for c in table],
        "seeds": {
            str(seed): "".join(_encode(index[c], width) for c in row)
            for seed, row in sorted(rows.items())
        },
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=0) + "\n")
