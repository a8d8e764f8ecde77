"""Equations for tests, made the one way the library makes them: by parsing."""

from fractions import Fraction

from diffdim.lindiff import LinearEquation, parse_system


def equation(terms) -> LinearEquation:
    """The equation of {(exponents, unknown): coefficient}, parsed alone with
    n its largest unknown, so that its row is packed at the narrowest layout
    that holds it and equations from separate calls may differ in layout."""
    m = len(next(iter(terms))[0])
    n = max(unknown for _, unknown in terms)
    body = " ".join(
        f"{'-' if c < 0 else '+'} {abs(Fraction(c))}*d[{','.join(map(str, xi))}]x{unknown}"
        for (xi, unknown), c in terms.items()
    )
    return parse_system(f"m = {m}\nn = {n}\neq: {body}\n").equations[0]
