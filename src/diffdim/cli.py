"""Command line front end.

Exit codes: 0 success, 1 domain error (bad input data, failed --check),
2 usage error, 3 resource limit.  A cap is a flag, or an environment
variable when the flag is absent, on the subcommands that read it:
--enum-cap (KOLCHIN_ENUM_CAP) on volume, --bound-digit-cap
(KOLCHIN_BOUND_MAGNITUDE_CAP) on bounds, and --gb-step-cap
(KOLCHIN_GB_STEP_CAP) and --matrix-cell-cap (KOLCHIN_MATRIX_CELL_CAP, read
under --check) on kolchin.  A subcommand rejects a cap flag it does not
read and ignores that cap's variable; a cap that is not a positive integer
is a usage error.
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
                 "candidate cap for volume enumeration"),
    "matrix_cell_cap": ("--matrix-cell-cap", "KOLCHIN_MATRIX_CELL_CAP",
                        lindiff.DEFAULT_MATRIX_CELL_CAP,
                        "cell cap for prolongation matrices, read under --check"),
    "gb_step_cap": ("--gb-step-cap", "KOLCHIN_GB_STEP_CAP", lindiff.DEFAULT_GB_STEP_CAP,
                    "S-pair reduction cap for Groebner completion"),
    "bound_digit_cap": ("--bound-digit-cap", "KOLCHIN_BOUND_MAGNITUDE_CAP",
                        bounds_mod.DEFAULT_DIGIT_CAP,
                        "decimal digit cap for bound evaluation"),
}


# Numbers on the command line follow the input files' grammar: ASCII
# decimals only, where int() alone would also take '1_0', '+3' and '٣'.
_INTEGERS = re.compile(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*")


def _natural(text: str, least: int = 0) -> int:
    if "," in text or not expsets._NATURALS.fullmatch(text) or int(text) < least:
        kind = "a positive integer" if least else "a natural number"
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
    return int(text)


def _monomial(text: str) -> diffrank.DifferentialMonomial:
    try:
        return diffrank.parse_monomial(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def _coeff_list(text: str) -> tuple[int, ...]:
    if not _INTEGERS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")
    return tuple(map(int, text.split(",")))


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
    """The exit code, JSON document and text lines that report ``p``."""
    doc = _poly_doc(p)
    return EXIT_OK, doc, [doc["render"], f"standard coefficients: {list(p.standard_coeffs)}"]


def _cmd_omega_set(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    return _poly_answer(expsets.dimension_polynomial(exp_set))


def _cmd_volume(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    v = expsets.volume(exp_set, args.s, enumeration_cap=args.enum_cap)
    w = expsets._numerator_volume(exp_set, args.s)
    agree = v == w
    doc = {"s": args.s, "volume": v, "numerator": w, "agree": agree}
    lines = [f"volume = {v}", f"numerator = {w}"] + ([] if agree else ["DISAGREE"])
    return (EXIT_OK if agree else EXIT_DOMAIN), doc, lines


def _cmd_bounds(args):
    report = bounds_mod.bound_report(
        args.r, args.m, args.n, digit_cap=args.bound_digit_cap
    )
    fields = [(k, str(getattr(report, k))) for k in
              ("char_order", "order_sum", "regularity", "comparison_level", "coeff_bound")]
    doc = {"r": args.r, "m": args.m, "n": args.n, **dict(fields)}
    return EXIT_OK, doc, [f"{k} = {v}" for k, v in fields]


def _cmd_rank_compare(args):
    verdict = {-1: "Less", 0: "Equal", 1: "Greater"}[diffrank.compare_rank(args.left, args.right)]
    return EXIT_OK, {"result": verdict}, [verdict]


def _cmd_omega_leaders(args):
    profile = diffrank.parse_leader_profile(_read(args.file), m=args.m, n=args.n)
    return _poly_answer(diffrank.kolchin_from_leaders(profile))


def _cmd_kolchin(args):
    system = lindiff.parse_system(_read(args.system))
    if args.check:
        gb, margin = lindiff._groebner_with_margin(system, args.gb_step_cap)
        via_gb = diffrank.kolchin_from_leaders(lindiff.leader_profile(gb))
        via_ranks = lindiff._prolongation_polynomial(system, gb, margin, args.matrix_cell_cap)
        agree = via_gb == via_ranks
        doc = {"groebner": _poly_doc(via_gb), "prolongation": _poly_doc(via_ranks),
               "agree": agree}
        lines = [f"{route}: {numpoly.render(p)}  {list(p.standard_coeffs)}"
                 for route, p in (("groebner", via_gb), ("prolongation", via_ranks))]
        lines.append("AGREE" if agree else "DISAGREE")
        return (EXIT_OK if agree else EXIT_DOMAIN), doc, lines
    coeffs = args.at_least if args.at_least is not None else args.equals
    if coeffs is not None:
        test = lindiff.omega_equals if args.at_least is None else lindiff.omega_at_least
        answer = test(
            system, numpoly.NumericalPolynomial.from_coeffs(coeffs), gb_step_cap=args.gb_step_cap
        )
        return EXIT_OK, {"result": answer}, ["true" if answer else "false"]
    p = lindiff.kolchin_polynomial(system, gb_step_cap=args.gb_step_cap)
    if args.diff_type:
        return EXIT_OK, {"differential_type": p.differential_type()}, [str(p.differential_type())]
    return _poly_answer(p)


def _cmd_interpolate(args):
    return _poly_answer(numpoly.interpolate(args.values, args.start, len(args.values) - 1))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _config(parser, args)
        code, doc, lines = args.handler(args)
        print(json.dumps(doc) if args.fmt == "json" else "\n".join(lines))
        return code
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DiffdimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
