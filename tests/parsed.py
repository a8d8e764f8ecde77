"""Equations for tests, made the one way the library makes them: by parsing."""

from fractions import Fraction

from diffdim.lindiff import LinearEquation, parse_system


def equation(terms) -> LinearEquation:
    """The equation of {(exponents, unknown): coefficient}, parsed alone with
    n its largest unknown, so that its row is packed at the layout that
    ``_Keys.fitting`` gives its own order and n: equations from separate
    calls differ in layout once one of them passes the shared width."""
    m = len(next(iter(terms))[0])
    n = max(unknown for _, unknown in terms)
    body = " ".join(
        f"{'-' if c < 0 else '+'} {abs(Fraction(c))}*d[{','.join(map(str, xi))}]x{unknown}"
        for (xi, unknown), c in terms.items()
    )
    return parse_system(f"m = {m}\nn = {n}\neq: {body}\n").equations[0]
