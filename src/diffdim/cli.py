"""Command line front end.

Exit codes: 0 success, 1 domain error (bad input data, failed --check),
2 usage error, 3 resource limit.  Caps can be set per invocation with
flags or through the environment (KOLCHIN_ENUM_CAP, KOLCHIN_MATRIX_CELL_CAP,
KOLCHIN_GB_STEP_CAP, KOLCHIN_BOUND_MAGNITUDE_CAP); a cap that is not a
positive integer is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import bounds as bounds_mod
from . import diffrank, expsets, lindiff, numpoly
from .errors import DiffdimError, ResourceLimit

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 3

ENV_ENUM_CAP = "KOLCHIN_ENUM_CAP"
ENV_CELL_CAP = "KOLCHIN_MATRIX_CELL_CAP"
ENV_GB_STEP_CAP = "KOLCHIN_GB_STEP_CAP"
ENV_DIGIT_CAP = "KOLCHIN_BOUND_MAGNITUDE_CAP"


# Numbers on the command line follow the input files' grammar: ASCII
# decimals only, where int() alone would also take '1_0', '+3' and '٣'.
_INTEGERS = re.compile(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*")


def _natural(text: str) -> int:
    if "," in text or not expsets._NATURALS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if "," in text or not expsets._NATURALS.fullmatch(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


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
    common.add_argument("--enum-cap", type=_positive_int, default=None,
                        help="candidate cap for volume enumeration")
    common.add_argument("--matrix-cell-cap", type=_positive_int, default=None,
                        help="cell cap for prolongation matrices")
    common.add_argument("--gb-step-cap", type=_positive_int, default=None,
                        help="S-pair reduction cap for Groebner completion")
    common.add_argument("--bound-digit-cap", type=_positive_int, default=None,
                        help="decimal digit cap for bound evaluation")

    parser = argparse.ArgumentParser(
        prog="diffdim",
        description="Kolchin polynomials of exponent sets and linear differential systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega-set", parents=[common],
                       help="Kolchin polynomial of an exponent set file")
    p.add_argument("--file", required=True, help="generator file, one vector per line")
    p.add_argument("--m", type=_natural, default=None, help="ambient dimension")

    p = sub.add_parser("volume", parents=[common],
                       help="points outside the closure up to a given order")
    p.add_argument("--file", required=True)
    p.add_argument("--m", type=_natural, default=None)
    p.add_argument("--s", type=_natural, required=True, help="order cutoff")

    p = sub.add_parser("bounds", parents=[common],
                       help="effective bounds for a system shape (r, m, n)")
    p.add_argument("--r", type=_natural, required=True, help="maximal equation order")
    p.add_argument("--m", type=_natural, required=True, help="number of derivations")
    p.add_argument("--n", type=_natural, required=True, help="number of unknowns")

    p = sub.add_parser("rank-compare", parents=[common],
                       help="compare two derivative symbols under the orderly ranking")
    p.add_argument("left", help="monomial like d[1,0]x1")
    p.add_argument("right")

    p = sub.add_parser("omega-leaders", parents=[common],
                       help="Kolchin polynomial from a leader profile file")
    p.add_argument("--file", required=True)
    p.add_argument("--m", type=_natural, default=None)
    p.add_argument("--n", type=_natural, default=None)

    p = sub.add_parser("kolchin", parents=[common],
                       help="Kolchin polynomial of a linear system file")
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

    p = sub.add_parser("interpolate", parents=[common],
                       help="recover a polynomial from consecutive values")
    p.add_argument("--values", required=True, type=_coeff_list,
                   help="comma separated values at start, start+1, ...")
    p.add_argument("--start", type=_natural, required=True)

    return parser


def _config(parser, args) -> None:
    """Resolve each cap from its flag, then the environment, then the
    library default, and write it back onto ``args``."""

    def cap(flag_value, env, default):
        if flag_value is not None:
            return flag_value
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            return _positive_int(raw)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable {env}: {exc}")

    args.enum_cap = cap(args.enum_cap, ENV_ENUM_CAP, expsets.DEFAULT_ENUMERATION_CAP)
    args.matrix_cell_cap = cap(args.matrix_cell_cap, ENV_CELL_CAP, lindiff.DEFAULT_MATRIX_CELL_CAP)
    args.gb_step_cap = cap(args.gb_step_cap, ENV_GB_STEP_CAP, lindiff.DEFAULT_GB_STEP_CAP)
    args.bound_digit_cap = cap(args.bound_digit_cap, ENV_DIGIT_CAP, bounds_mod.DEFAULT_DIGIT_CAP)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _poly_doc(p) -> dict:
    doc = numpoly.to_json_dict(p)
    doc["render"] = numpoly.render(p)
    return doc


def _emit_poly(p, fmt: str):
    if fmt == "json":
        print(json.dumps(_poly_doc(p)))
    else:
        print(numpoly.render(p))
        print(f"standard coefficients: {list(p.standard_coeffs)}")


def _cmd_omega_set(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    _emit_poly(expsets.dimension_polynomial(exp_set), args.fmt)
    return EXIT_OK


def _cmd_volume(args):
    exp_set = expsets.parse_exponent_set(_read(args.file), m=args.m)
    v = expsets.volume(exp_set, args.s, enumeration_cap=args.enum_cap)
    w = expsets._numerator_volume(exp_set, args.s)
    agree = v == w
    if args.fmt == "json":
        print(json.dumps({"s": args.s, "volume": v, "numerator": w, "agree": agree}))
    else:
        print(f"volume = {v}")
        print(f"numerator = {w}")
        if not agree:
            print("DISAGREE")
    return EXIT_OK if agree else EXIT_DOMAIN


def _cmd_bounds(args):
    report = bounds_mod.bound_report(
        args.r, args.m, args.n, digit_cap=args.bound_digit_cap
    )
    fields = (
        ("char_order", report.char_order),
        ("order_sum", report.order_sum),
        ("regularity", report.regularity),
        ("comparison_level", report.comparison_level),
        ("coeff_bound", report.coeff_bound),
    )
    if args.fmt == "json":
        doc = {"r": args.r, "m": args.m, "n": args.n}
        doc.update((k, str(v)) for k, v in fields)
        print(json.dumps(doc))
    else:
        for k, v in fields:
            print(f"{k} = {v}")
    return EXIT_OK


def _cmd_rank_compare(args):
    left = diffrank.parse_monomial(args.left)
    right = diffrank.parse_monomial(args.right)
    verdict = {-1: "Less", 0: "Equal", 1: "Greater"}[diffrank.compare_rank(left, right)]
    if args.fmt == "json":
        print(json.dumps({"result": verdict}))
    else:
        print(verdict)
    return EXIT_OK


def _cmd_omega_leaders(args):
    profile = diffrank.parse_leader_profile(_read(args.file), m=args.m, n=args.n)
    _emit_poly(diffrank.kolchin_from_leaders(profile), args.fmt)
    return EXIT_OK


def _cmd_kolchin(args):
    system = lindiff.parse_system(_read(args.system))
    if args.check:
        gb, margin = lindiff._groebner_with_margin(system, args.gb_step_cap)
        via_gb = diffrank.kolchin_from_leaders(lindiff.leader_profile(gb))
        via_ranks = lindiff._prolongation_polynomial(system, gb, margin, args.matrix_cell_cap)
        agree = via_gb == via_ranks
        if args.fmt == "json":
            print(json.dumps({
                "groebner": _poly_doc(via_gb),
                "prolongation": _poly_doc(via_ranks),
                "agree": agree,
            }))
        else:
            print(f"groebner: {numpoly.render(via_gb)}  {list(via_gb.standard_coeffs)}")
            print(f"prolongation: {numpoly.render(via_ranks)}  "
                  f"{list(via_ranks.standard_coeffs)}")
            print("AGREE" if agree else "DISAGREE")
        return EXIT_OK if agree else EXIT_DOMAIN
    coeffs = args.at_least if args.at_least is not None else args.equals
    if coeffs is not None:
        test = lindiff.omega_equals if args.at_least is None else lindiff.omega_at_least
        answer = test(
            system, numpoly.NumericalPolynomial.from_coeffs(coeffs), gb_step_cap=args.gb_step_cap
        )
        if args.fmt == "json":
            print(json.dumps({"result": answer}))
        else:
            print("true" if answer else "false")
        return EXIT_OK
    p = lindiff.kolchin_polynomial(system, gb_step_cap=args.gb_step_cap)
    if args.diff_type:
        if args.fmt == "json":
            print(json.dumps({"differential_type": p.differential_type()}))
        else:
            print(p.differential_type())
        return EXIT_OK
    _emit_poly(p, args.fmt)
    return EXIT_OK


def _cmd_interpolate(args):
    values = args.values
    p = numpoly.interpolate(values, args.start, len(values) - 1)
    _emit_poly(p, args.fmt)
    return EXIT_OK


_HANDLERS = {
    "omega-set": _cmd_omega_set,
    "volume": _cmd_volume,
    "bounds": _cmd_bounds,
    "rank-compare": _cmd_rank_compare,
    "omega-leaders": _cmd_omega_leaders,
    "kolchin": _cmd_kolchin,
    "interpolate": _cmd_interpolate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _config(parser, args)
        return _HANDLERS[args.command](args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DiffdimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
