"""Command line front end.

Exit codes: 0 success, 1 domain error (bad input data, failed --check),
2 usage error, 3 resource limit.  A cap is a flag, or an environment
variable when the flag is absent, on the subcommands that read it:
--enum-cap (KOLCHIN_ENUM_CAP, prefixes walked times generators) on volume,
--bound-digit-cap (KOLCHIN_BOUND_MAGNITUDE_CAP) on bounds, and --gb-step-cap
(KOLCHIN_GB_STEP_CAP) and --matrix-cell-cap (KOLCHIN_MATRIX_CELL_CAP,
echelon entries held, read under --check) on kolchin.  A subcommand
rejects a cap flag it does not read and ignores that cap's variable; a cap
that is not a positive integer is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import bounds as bounds_mod
from . import diffrank, expsets, lindiff, numpoly
from .errors import DiffdimError, ParseError, ResourceLimit

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 3

# args name -> (flag, environment variable, library default, help)
_CAPS = {
    "enum_cap": ("--enum-cap", "KOLCHIN_ENUM_CAP", expsets.DEFAULT_ENUMERATION_CAP,
                 "cap on the C(s + m - 2, m - 2) prefixes the volume walk can visit "
                 "times the generators, one pass over them per prefix: 0.5 us with one, "
                 "about 50 us with 861 (default 10^7)"),
    "matrix_cell_cap": ("--matrix-cell-cap", "KOLCHIN_MATRIX_CELL_CAP",
                        lindiff.DEFAULT_MATRIX_CELL_CAP,
                        "cap on the entries held in the prolongation echelon's pivot rows, "
                        "about 300 bytes each (default 5*10^6, about 1.5 GB); read under "
                        "--check"),
    "gb_step_cap": ("--gb-step-cap", "KOLCHIN_GB_STEP_CAP", lindiff.DEFAULT_GB_STEP_CAP,
                    "cap on Groebner completion's S-pair reductions, counted in its pair "
                    "order, least join under the ranking first (default 10^4)"),
    "bound_digit_cap": ("--bound-digit-cap", "KOLCHIN_BOUND_MAGNITUDE_CAP",
                        bounds_mod.DEFAULT_DIGIT_CAP,
                        "cap on the decimal digits of a bound's evaluation (default 10^5)"),
}


# Numbers on the command line follow the input files' grammar: ASCII
# decimals only, where int() alone would also take '1_0', '+3' and '٣'.
_INTEGERS = re.compile(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*")


def _natural(text: str, least: int = 0) -> int:
    kind = "a positive integer" if least else "a natural number"
    try:
        if "," not in text and expsets._NATURALS.fullmatch(text) and int(text) >= least:
            return int(text)
    except ValueError as exc:  # past the interpreter's integer-string limit
        raise argparse.ArgumentTypeError(f"expected {kind}; {exc}") from None
    raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")


def _monomial(text: str) -> diffrank.DifferentialMonomial:
    try:
        return diffrank.parse_monomial(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def _coeff_list(text: str) -> tuple[int, ...]:
    try:
        if _INTEGERS.fullmatch(text):
            return tuple(map(int, text.split(",")))
    except ValueError as exc:  # past the interpreter's integer-string limit
        raise argparse.ArgumentTypeError(f"expected comma separated integers; {exc}") from None
    raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt",
        help="output format (default human)",
    )

    parser = argparse.ArgumentParser(
        prog="diffdim",
        description="Kolchin polynomials of exponent sets and linear differential systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, caps=()):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        for cap in caps:
            flag, _, _, cap_help = _CAPS[cap]
            p.add_argument(flag, dest=cap, type=lambda text: _natural(text, 1), default=None,
                           help=cap_help)
        return p

    p = command("omega-set", _cmd_omega_set, "Kolchin polynomial of an exponent set file")
    p.add_argument("--file", required=True, help="generator file, one vector per line")
    p.add_argument("--m", type=_natural, default=None, help="ambient dimension")

    p = command("volume", _cmd_volume, "points outside the closure up to a given order",
                caps=["enum_cap"])
    p.add_argument("--file", required=True)
    p.add_argument("--m", type=_natural, default=None)
    p.add_argument("--s", type=_natural, required=True, help="order cutoff")

    p = command("bounds", _cmd_bounds, "effective bounds for a system shape (r, m, n)",
                caps=["bound_digit_cap"])
    p.add_argument("--r", type=_natural, required=True, help="maximal equation order")
    p.add_argument("--m", type=_natural, required=True, help="number of derivations")
    p.add_argument("--n", type=_natural, required=True, help="number of unknowns")

    p = command("rank-compare", _cmd_rank_compare,
                "compare two derivative symbols under the orderly ranking")
    p.add_argument("left", type=_monomial, help="monomial like d[1,0]x1")
    p.add_argument("right", type=_monomial)

    p = command("omega-leaders", _cmd_omega_leaders,
                "Kolchin polynomial from a leader profile file")
    p.add_argument("--file", required=True)
    p.add_argument("--m", type=_natural, default=None)
    p.add_argument("--n", type=_natural, default=None)

    p = command("kolchin", _cmd_kolchin, "Kolchin polynomial of a linear system file",
                caps=["matrix_cell_cap", "gb_step_cap"])
    p.add_argument("--system", required=True, help="system description file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true",
                       help="run both pipelines and compare")
    group.add_argument("--at-least", type=_coeff_list, metavar="COEFFS",
                       help="test eventual domination over these standard coefficients")
    group.add_argument("--equals", type=_coeff_list, metavar="COEFFS",
                       help="test equality with these standard coefficients")
    group.add_argument("--type", action="store_true", dest="diff_type",
                       help="print the differential type only")

    p = command("interpolate", _cmd_interpolate, "recover a polynomial from consecutive values")
    p.add_argument("--values", required=True, type=_coeff_list,
                   help="comma separated values at start, start+1, ...")
    p.add_argument("--start", type=_natural, required=True)

    return parser


def _config(parser, args) -> None:
    """Resolve each cap the subcommand reads from its flag, then the
    environment, then the library default, and write it back onto ``args``."""
    for name, (_, env, default, _) in _CAPS.items():
        if name not in vars(args) or getattr(args, name) is not None:
            continue
        raw = os.environ.get(env)
        try:
            setattr(args, name, default if raw is None else _natural(raw, 1))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable {env}: {exc}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _poly_doc(p) -> dict:
    doc = numpoly.to_json_dict(p)
    doc["render"] = numpoly.render(p)
    return doc


def _poly_answer(p):
    """The exit code, and the output that reports ``p``."""

    def output():
        doc = _poly_doc(p)
        return doc, [doc["render"], f"standard coefficients: {list(p.standard_coeffs)}"]
    return EXIT_OK, output


def _cmd_omega_set(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    return _poly_answer(expsets.dimension_polynomial(exp_set))


def _cmd_volume(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    v = expsets.volume(exp_set, args.s, enumeration_cap=args.enum_cap)
    w = expsets._numerator_volume(exp_set, args.s)
    agree = v == w
    doc = {"s": args.s, "volume": v, "numerator": w, "agree": agree}
    return (EXIT_OK if agree else EXIT_DOMAIN), lambda: (
        doc, [f"volume = {v}", f"numerator = {w}"] + ([] if agree else ["DISAGREE"])
    )


def _cmd_bounds(args):
    report = bounds_mod.bound_report(
        args.r, args.m, args.n, digit_cap=args.bound_digit_cap
    )

    def output():
        fields = [(k, str(getattr(report, k))) for k in
                  ("char_order", "order_sum", "regularity", "comparison_level", "coeff_bound")]
        doc = {"r": args.r, "m": args.m, "n": args.n, **dict(fields)}
        return doc, [f"{k} = {v}" for k, v in fields]
    return EXIT_OK, output


def _cmd_rank_compare(args):
    verdict = {-1: "Less", 0: "Equal", 1: "Greater"}[diffrank.compare_rank(args.left, args.right)]
    return EXIT_OK, lambda: ({"result": verdict}, [verdict])


def _cmd_omega_leaders(args):
    profile = diffrank.parse_leader_profile(_read(args.file), m=args.m, n=args.n)
    return _poly_answer(diffrank.kolchin_from_leaders(profile))


def _cmd_kolchin(args):
    system = lindiff.parse_system(_read(args.system))
    if args.check:
        via_gb = lindiff.kolchin_polynomial(system, args.gb_step_cap)
        via_ranks = lindiff.kolchin_via_prolongation(system, args.matrix_cell_cap, args.gb_step_cap)
        agree = via_gb == via_ranks
        routes = (("groebner", via_gb), ("prolongation", via_ranks))

        def output():
            doc = {route: _poly_doc(p) for route, p in routes}
            lines = [f"{route}: {numpoly.render(p)}  {list(p.standard_coeffs)}"
                     for route, p in routes]
            return {**doc, "agree": agree}, lines + ["AGREE" if agree else "DISAGREE"]
        return (EXIT_OK if agree else EXIT_DOMAIN), output
    coeffs = args.at_least if args.at_least is not None else args.equals
    if coeffs is not None:
        test = lindiff.omega_equals if args.at_least is None else lindiff.omega_at_least
        answer = test(
            system, numpoly.NumericalPolynomial.from_coeffs(coeffs), gb_step_cap=args.gb_step_cap
        )
        return EXIT_OK, lambda: ({"result": answer}, ["true" if answer else "false"])
    p = lindiff.kolchin_polynomial(system, gb_step_cap=args.gb_step_cap)
    if args.diff_type:
        d = p.differential_type()
        return EXIT_OK, lambda: ({"differential_type": d}, [str(d)])
    return _poly_answer(p)


def _cmd_interpolate(args):
    return _poly_answer(numpoly.interpolate(args.values, args.start))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _config(parser, args)
        # the handler reads under the interpreter's integer-string limit; its
        # output, the JSON document and text lines, is formatted without it
        code, output = args.handler(args)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.11
        set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        set_limit(0)
        try:
            doc, lines = output()
            print(json.dumps(doc) if args.fmt == "json" else "\n".join(lines))
        finally:
            set_limit(limit)
        return code
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DiffdimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
