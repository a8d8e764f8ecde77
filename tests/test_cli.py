import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import diffdim
from diffdim import expsets, lindiff
from diffdim.cli import main
from diffdim.errors import MAX_DIGITS
from test_classical import laplace
from test_lindiff import MARGIN_SIX, MONOMIALS_6, UNIT_IDEAL

DATA = Path(__file__).parent / "data"
# one digit past MAX_DIGITS, the longest number diffdim reads
LONG = "1" * (MAX_DIGITS + 1)
# child processes import the diffdim that these tests imported: src/ in a
# checkout, site-packages where the package is installed
IMPORT_ROOT = str(Path(diffdim.__file__).resolve().parent.parent)
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from diffdim.cli import main; sys.exit(main(sys.argv[2:]))"
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# placeholders an argv may name: files the test writes, and *.sys files
# under tests/data
FILES = {
    "HEAT": "0, 2\n", "CORNER": "1, 1\n", "CORNER3": "1, 1, 1\n", "CORNERS": "1,0\n0,1\n",
    "FIVE": "5\n", "ONES256": ",".join("1" * 256) + "\n",
    "SET3": "0,4,7\n1,5,2\n3,0,4\n2,2,1\n", "PROFILE": "1: 2,0\n2: 1,0\n2: 0,1\n",
    "UNIT": UNIT_IDEAL, "MONOMIALS6": MONOMIALS_6, "MARGIN6": MARGIN_SIX,
}


def resolve(tmp_path, argv):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return [
        str(tmp_path / a) if a in FILES else str(DATA / a) if a.endswith(".sys") else a
        for a in argv
    ]


def test_omega_set_missing_file(capsys):
    code, _, err = run(capsys, "omega-set", "--file", "/nonexistent/path.txt")
    assert code == 1
    assert err


def test_volume_disagreement_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(expsets, "_numerator_volume", lambda _exp_set, s: s)
    argv = resolve(tmp_path, ["volume", "--file", "HEAT", "--s", "3"])
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == ["volume = 7", "numerator = 3", "DISAGREE"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out) == {"s": 3, "volume": 7, "numerator": 3, "agree": False}


def test_volume_on_a_long_staircase(capsys, tmp_path):
    # 24 generators (i, 23 - i): the second count comes from the Hilbert
    # numerator, so it does not walk the 2^24 subsets of the antichain
    path = tmp_path / "staircase.txt"
    path.write_text("".join(f"{i}, {23 - i}\n" for i in range(24)))
    code, out, _ = run(capsys, "volume", "--file", str(path), "--s", "30")
    assert code == 0
    assert out.splitlines() == ["volume = 276", "numerator = 276"]


def test_volume_cap_counts_the_generators_each_prefix_passes(capsys, tmp_path):
    # the 861 generators (i, j, 41 - i - j) of N^3 with i + j <= 40 cover no
    # slice, and each prefix costs a pass over all of them, about 50 us: at
    # s = 1,000 the walk makes 1,001 * 861 steps, and at s = 9,999,999 the
    # 10^7 prefixes alone would fit the default cap, but the walk would take
    # about 8 minutes
    path = tmp_path / "e.txt"
    path.write_text("".join(f"{i},{j},{41 - i - j}\n" for i in range(41) for j in range(41 - i)))
    code, _, err = run(capsys, "volume", "--file", str(path), "--s", "1000",
                       "--enum-cap", "861860")
    assert (code, err) == (3, (
        "resource limit: volume walk at order 1000 visits up to 1001 prefixes over 1 "
        "coordinates, each a pass over 861 generators: 861861 steps (cap 861860)\n"
    ))
    code, out, _ = run(capsys, "volume", "--file", str(path), "--s", "1000",
                       "--enum-cap", "861861")
    assert (code, out) == (0, "volume = 512981\nnumerator = 512981\n")
    code, _, err = run(capsys, "volume", "--file", str(path), "--s", "9999999")
    assert code == 3
    assert "10000000 prefixes over 1 coordinates, each a pass over 861 generators" in err


# outside (5, 1): the columns x < 5 and the row y = 0; outside (0, 0, 3):
# the layers z < 3
@pytest.mark.parametrize("generator, s, volume", [
    ("5,1", 5000, sum(5001 - x for x in range(5)) + 4996),
    ("0,0,3", 400, sum(comb(402 - z, 2) for z in range(3))),
])
def test_volume_at_a_high_order_answers_under_the_default_cap(
    capsys, tmp_path, generator, s, volume
):
    # 1 and 401 prefixes, against the 12,507,501 and 10,827,401 points of
    # order <= s
    path = tmp_path / "e.txt"
    path.write_text(generator + "\n")
    code, out, _ = run(capsys, "volume", "--file", str(path), "--s", str(s))
    assert (code, out) == (0, f"volume = {volume}\nnumerator = {volume}\n")


@pytest.mark.parametrize("m, code", [(256, 0), (257, 3), (600, 3)])
def test_omega_set_on_unit_vectors_answers_or_exits_3(capsys, tmp_path, m, code):
    # one recursion frame per coordinate: past m = 256 the set is refused
    # with exit 3, not a RecursionError traceback
    path = tmp_path / "units.txt"
    path.write_text("".join(",".join(str(int(i == j)) for j in range(m)) + "\n" for i in range(m)))
    status, _, err = run(capsys, "omega-set", "--file", str(path))
    assert status == code
    if code:
        assert f"N^{m}: the recursion allows at most m = 256" in err


def test_volume_on_unit_vectors_stops_at_the_covered_slice(tmp_path):
    # the 256 unit vectors of N^256 at s = 2: a zero tail covers every slice
    # from x_1 = 1 on, so the walk stops there; a child process under a CPU
    # limit makes a walk that does not stop fail rather than hang
    resource = pytest.importorskip("resource")
    m = 256
    path = tmp_path / "units.txt"
    path.write_text("".join(",".join(str(int(i == j)) for j in range(m)) + "\n" for i in range(m)))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, IMPORT_ROOT, "volume", "--file", str(path), "--s", "2"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (10, 10)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["volume = 1", "numerator = 1"]


def test_kolchin_check_stops_at_the_cell_cap_within_its_memory(tmp_path):
    # Laplace's equation in R^11: floor 0, type 10 and margin 0, so the route
    # builds to level 11, where the echelon holds 1,847,560 entries and the
    # process peaks near 240 MB.  Under a cap of the 831,402 entries held
    # after level 10 it peaks near 120 MB and stops at the first pivot row
    # of level 11.  A child under a 180 MB address-space limit (the
    # interpreter itself takes about 21 MB) exits 3 only if the entries are
    # counted as each pivot row is stored: counted when a level ends, they
    # run out of memory first
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS is enforced on Linux")
    text = laplace(11)
    below = lindiff._Echelon(lindiff.parse_system(text), lindiff.DEFAULT_MATRIX_CELL_CAP)
    below.build(10)
    cap, rows = sum(map(len, below.pivots.values())), len(below.pivots)
    del below
    path = tmp_path / "laplace11.sys"
    path.write_text(text)
    limit = 180 * 2**20
    done = subprocess.run(
        [sys.executable, "-c", CHILD, IMPORT_ROOT, "kolchin", "--system", str(path), "--check",
         "--matrix-cell-cap", str(cap)],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 3, done.stderr[-2000:]
    assert re.fullmatch(
        rf"resource limit: prolongation echelon at level 11: pivot row {rows + 1} would bring "
        rf"the entries held to \d+ \(cap {cap}\)\n", done.stderr
    ), done.stderr[-2000:]


def test_enum_cap_env_override(capsys, tmp_path, monkeypatch):
    # 51 prefixes, as in the rows of PINNED on CORNER3
    path = tmp_path / "e.txt"
    path.write_text("1, 1, 1\n")
    monkeypatch.setenv("KOLCHIN_ENUM_CAP", "50")
    code, _, err = run(capsys, "volume", "--file", str(path), "--s", "50")
    assert code == 3
    assert "(cap 50)" in err
    # the flag would win over the environment
    code, out, _ = run(
        capsys, "volume", "--file", str(path), "--s", "50", "--enum-cap", "51"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv,name",
    [
        (["bogus", "d[2,0]x1"], "left"),
        (["d[1,0]x1", "d[1_0,0]x1"], "right"),
        (["x\u0663", "x1"], "left"),
        (["d[+3]x1", "x1"], "left"),
        (["x1", "x0"], "right"),
    ],
)
def test_rank_compare_bad_monomial_is_usage_error(capsys, argv, name):
    # a malformed monomial names its argument; an ambient mismatch stays exit 1
    with pytest.raises(SystemExit) as info:
        main(["rank-compare", *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {name}: " in err and "(line" not in err


def test_kolchin_check_runs_completion_once(capsys, monkeypatch):
    completions = []
    complete = lindiff._groebner

    def counted(system, gb_step_cap):
        completions.append(system)
        return complete(system, gb_step_cap)

    monkeypatch.setattr(lindiff, "_groebner", counted)
    for name in ("heat.sys", "laplace.sys", "cauchy_riemann.sys"):
        completions.clear()
        code, out, _ = run(capsys, "kolchin", "--system", str(DATA / name), "--check")
        assert (code, out.splitlines()[-1]) == (0, "AGREE")
        assert len(completions) == 1, name


def route_echelon(monkeypatch, system):
    """The echelon that ``kolchin_via_prolongation`` builds on ``system``
    under the default cap."""
    built = []
    margin = lindiff._echelon_margin
    with monkeypatch.context() as patch:
        patch.setattr(lindiff, "_echelon_margin",
                      lambda echelon, *rest: built.append(echelon) or margin(echelon, *rest))
        lindiff.kolchin_via_prolongation(system)
    return built[0]


def assert_cell_cap_is_the_entries_held(capsys, monkeypatch, path):
    """``kolchin --check`` answers under a cap of the entries the route's
    echelon holds, and one short stops at the last pivot row, at its top
    level."""
    echelon = route_echelon(monkeypatch, lindiff.parse_system(path.read_text()))
    held, rows = echelon.held, len(echelon.pivots)
    code, out, _ = run(capsys, "kolchin", "--system", str(path), "--check",
                       "--matrix-cell-cap", str(held))
    assert (code, out.splitlines()[-1]) == (0, "AGREE")
    code, _, err = run(capsys, "kolchin", "--system", str(path), "--check",
                       "--matrix-cell-cap", str(held - 1))
    assert code == 3
    assert err == (f"resource limit: prolongation echelon at level {echelon.level}: pivot row "
                   f"{rows} would bring the entries held to {held} (cap {held - 1})\n")


def test_kolchin_check_cell_cap(capsys, monkeypatch):
    laplace = DATA / "laplace.sys"
    assert_cell_cap_is_the_entries_held(capsys, monkeypatch, laplace)
    code, out, _ = run(capsys, "kolchin", "--system", str(laplace), "--check")
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"


def int_limit():
    """The interpreter's integer-string limit; None where there is none
    (before Python 3.11)."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture
def digit_limit(request):
    """The interpreter's integer-string limit at the test's parameter, by
    default 4,300 digits, for one test, then as it was; None where there is
    no limit."""
    if int_limit() is None:
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(getattr(request, "param", 4300))
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(saved)


BOUND_FIELDS = ("char_order", "order_sum", "regularity", "comparison_level", "coeff_bound")


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("r, digits", [
    # the comparison level is past the interpreter's default limit
    ("2000", [603, 1808, 1808, 5424, 5422]),
    # and here the characteristic order, which the Ackermann steps build
    ("15000", [4516, 13548, 13548, 40645, 40643]),
], ids=["r-2000", "r-15000"])
def test_bounds_print_every_number_their_digit_cap_lets_through(
    capsys, digit_limit, r, digits, fmt
):
    # every number is inside the default cap of 10^5 digits; main lifts the
    # interpreter's limit, then restores it
    code, out, err = run(capsys, "bounds", "--r", r, "--m", "3", "--n", "1", "--format", fmt)
    assert (code, err) == (0, "")
    doc = json.loads(out) if fmt == "json" else dict(line.split(" = ") for line in out.splitlines())
    assert [len(doc[k]) for k in BOUND_FIELDS] == digits
    assert all(doc[k].isdigit() for k in BOUND_FIELDS)
    assert int_limit() == digit_limit


def test_kolchin_names_the_place_of_a_number_past_max_digits(capsys, tmp_path):
    # the grammar's bound, and not the interpreter's limit, refuses it
    path = tmp_path / "long.sys"
    path.write_text(f"m = 1\nn = 1\neq: {LONG}*x1\n")
    code, out, err = run(capsys, "kolchin", "--system", str(path))
    assert (code, out) == (1, "")
    assert err == "error: a number of 4301 digits, more than 4300 (line 3, column 5)\n"


# a coefficient of 1,000 digits, and a polynomial whose output prints it
THOUSAND = "9" * 1000
READS_THE_SAME = [
    (("kolchin", "--system", "BIG_HEAT", "--check"),
     "groebner: 2*t + 1  [0, 2, -1]\nprolongation: 2*t + 1  [0, 2, -1]\nAGREE\n"),
    (("interpolate", "--values", f"{THOUSAND},{THOUSAND}", "--start", "0"),
     f"{THOUSAND}\nstandard coefficients: [0, {THOUSAND}]\n"),
]


@pytest.mark.parametrize("digit_limit", [640, 4300, 0], indirect=True)
@pytest.mark.parametrize("argv, expected", READS_THE_SAME, ids=["kolchin", "interpolate"])
def test_numbers_are_read_the_same_at_any_interpreter_limit(
    capsys, tmp_path, digit_limit, argv, expected
):
    (tmp_path / "BIG_HEAT").write_text(f"m = 2\nn = 1\neq: {THOUSAND}*d[1,0]x1 - d[0,2]x1\n")
    argv = [str(tmp_path / a) if a == "BIG_HEAT" else a for a in argv]
    assert run(capsys, *argv) == (0, expected, "")
    assert int_limit() == digit_limit


BIG_EXPONENT = "m = 2\nn = 1\neq: d[1000000000,0]x1 + d[0,3]x1\n"


def test_kolchin_on_a_big_exponent(capsys, tmp_path):
    # the Hilbert numerator of the leader set holds two terms, not 10^9
    path = tmp_path / "big.sys"
    path.write_text(BIG_EXPONENT)
    code, out, _ = run(capsys, "kolchin", "--system", str(path))
    assert code == 0
    assert out.splitlines()[1] == "standard coefficients: [0, 1000000000, -499999999500000000]"


def test_kolchin_check_on_a_big_exponent_stops_at_the_stated_level(capsys, monkeypatch, tmp_path):
    # the route builds from level 10^9, the equation's order, to level
    # floor + d + margin + 1 = 10^9: one level and two entries, so it answers
    # under the default cap and a cap of one stops at level 10^9
    path = tmp_path / "big.sys"
    path.write_text(BIG_EXPONENT)
    code, out, _ = run(capsys, "kolchin", "--system", str(path), "--check")
    assert (code, out.splitlines()[-1]) == (0, "AGREE")
    assert_cell_cap_is_the_entries_held(capsys, monkeypatch, path)


def test_kolchin_check_on_a_high_order_ode_keeps_one_record_per_pivot(capsys, tmp_path):
    # the route reads level 20000 alone; nothing below the equation's
    # order is walked, and no per-level history as long as its level is kept
    path = tmp_path / "ode.sys"
    path.write_text("m = 1\nn = 1\neq: d[20000]x1\n")
    code, out, _ = run(capsys, "kolchin", "--system", str(path), "--check")
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"


def test_kolchin_check_where_the_unknown_index_outgrows_the_order(capsys):
    code, out, _ = run(capsys, "kolchin", "--system", str(DATA / "n300.sys"), "--check")
    assert (code, out) == (
        0, "groebner: 298*t + 301  [298, 3]\nprolongation: 298*t + 301  [298, 3]\nAGREE\n"
    )


def test_kolchin_gb_step_cap(capsys, monkeypatch):
    probe4 = str(DATA / "probe4.sys")
    code, _, err = run(capsys, "kolchin", "--system", probe4, "--gb-step-cap", "5")
    assert code == 3
    assert "resource limit" in err and "after 5 S-pair reductions" in err
    monkeypatch.setenv("KOLCHIN_GB_STEP_CAP", "5")
    for extra in ([], ["--check"], ["--type"], ["--equals", "0,0,53,-206"]):
        code, _, err = run(capsys, "kolchin", "--system", probe4, *extra)
        assert code == 3, extra
        assert "resource limit" in err
    code, out, _ = run(capsys, "kolchin", "--system", str(DATA / "heat.sys"), "--check")
    assert (code, out.splitlines()[-1]) == (0, "AGREE")


# each cap on the command that reads it, with the rest of a valid invocation
CAP_COMMANDS = {
    "--enum-cap": ["volume", "--file", "HEAT", "--s", "3"],
    "--bound-digit-cap": ["bounds", "--r", "1", "--m", "2", "--n", "1"],
    "--matrix-cell-cap": ["kolchin", "--system", "heat.sys", "--check"],
    "--gb-step-cap": ["kolchin", "--system", "heat.sys"],
}
CAP_ENV = {
    "--enum-cap": "KOLCHIN_ENUM_CAP",
    "--bound-digit-cap": "KOLCHIN_BOUND_MAGNITUDE_CAP",
    "--matrix-cell-cap": "KOLCHIN_MATRIX_CELL_CAP",
    "--gb-step-cap": "KOLCHIN_GB_STEP_CAP",
}


@pytest.mark.parametrize("flag", list(CAP_COMMANDS))
@pytest.mark.parametrize("value", ["0", "-5", "ten"])
def test_cap_flag_must_be_positive(capsys, tmp_path, flag, value):
    with pytest.raises(SystemExit) as info:
        main(resolve(tmp_path, [*CAP_COMMANDS[flag], flag, value]))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "positive integer" in err


@pytest.mark.parametrize("flag,env", list(CAP_ENV.items()), ids=list(CAP_ENV.values()))
@pytest.mark.parametrize("value", ["0", "-1", "ten"])
def test_cap_env_must_be_positive(capsys, monkeypatch, tmp_path, flag, env, value):
    monkeypatch.setenv(env, value)
    with pytest.raises(SystemExit) as info:
        main(resolve(tmp_path, CAP_COMMANDS[flag]))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert env in err and "positive integer" in err


CAPLESS = [
    ["omega-set", "--file", "HEAT"],
    ["rank-compare", "d[1,0]x1", "d[0,1]x1"],
    ["omega-leaders", "--file", "PROFILE"],
    ["interpolate", "--values", "1,3,5", "--start", "0"],
]


@pytest.mark.parametrize("flag", list(CAP_COMMANDS))
def test_caps_only_where_read(capsys, monkeypatch, tmp_path, flag):
    reader = CAP_COMMANDS[flag][0]
    others = [
        resolve(tmp_path, argv)
        for argv in [*CAPLESS, *CAP_COMMANDS.values()]
        if argv[0] != reader
    ]
    # a command rejects the flag of a cap it does not read ...
    for argv in others:
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, "5"])
        assert info.value.code == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # ... and ignores that cap's variable, malformed or not
    monkeypatch.setenv(CAP_ENV[flag], "1e5")
    for argv in others:
        assert run(capsys, *argv)[0] == 0, argv


def test_kolchin_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kolchin", "--system", str(DATA / "heat.sys"), "--check", "--type"])
    assert info.value.code == 2


def test_kolchin_bad_system_file(capsys, tmp_path):
    path = tmp_path / "broken.sys"
    path.write_text("m = 2\nn = 1\neq: 1*d[1,0]x1 + 1*d[1,0]x1\n")
    code, _, err = run(capsys, "kolchin", "--system", str(path))
    assert code == 1
    assert "duplicate" in err


def test_interpolate_command():
    # the module runs as a script too
    done = subprocess.run(
        [sys.executable, "-m", "diffdim.cli", "interpolate", "--values", "1,3,5", "--start", "0"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
    )
    assert (done.returncode, done.stdout) == (
        0, "2*t + 1\nstandard coefficients: [0, 2, -1]\n"
    ), done.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["volume", "--s", "3"])  # --file missing
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_interpolate_bad_values_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["interpolate", "--values", "1,one,3", "--start", "0"])
    assert info.value.code == 2


NUMBER_FLAGS = [
    ("volume --file unused --s", "--s"),
    ("omega-set --file unused --m", "--m"),
    ("omega-leaders --file unused --n", "--n"),
    ("bounds --m 2 --n 1 --r", "--r"),
    ("interpolate --values 1,3 --start", "--start"),
    ("interpolate --start 0 --values", "--values"),
    ("kolchin --system unused --equals", "--equals"),
    ("kolchin --system unused --matrix-cell-cap", "--matrix-cell-cap"),
]


@pytest.mark.parametrize("value", ["1_0", "\u0663", "\u00b2", "+3"])
@pytest.mark.parametrize("prefix,flag", NUMBER_FLAGS)
def test_numbers_are_ascii_decimals(capsys, prefix, flag, value):
    # int() takes each of these; the input files' grammar takes none
    with pytest.raises(SystemExit) as info:
        main(prefix.split() + [value])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--values", "1_0,\u0663", "--start", "0"], "--values"),
        (["--values", "1,3", "--start", "-1"], "--start"),
    ],
)
def test_interpolate_bad_numbers_name_the_flag(capsys, argv, flag):
    # '1_0,٣' used to read as [10, 3]; a negative start is no start at all
    with pytest.raises(SystemExit) as info:
        main(["interpolate", *argv])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


def test_interpolate_spaced_values(capsys):
    code, out, _ = run(capsys, "interpolate", "--values", " 1, 3 ,5", "--start", " 1")
    assert code == 0
    assert out.splitlines()[0] == "2*t - 1"


POLY_2T_1 = '{"m": 2, "standard_coeffs": ["0", "2", "-1"], "render": "2*t + 1"}\n'

# (argv, exit code, human stdout, json stdout): the exact output of every
# subcommand and kolchin mode, in both formats, and of every CLI example in
# README.md (marked README).  Leading NAME=value items of argv set that
# environment variable.  A row that exits non-zero prints nothing on stdout
# and its message on stderr, after the prefix its exit code names; a usage
# error's last line names the flag or variable at fault, and not its value
ERROR_PREFIX = {1: "error: ", 2: "usage: diffdim ", 3: "resource limit: "}
USAGE_ERROR = re.compile(
    r"diffdim( [a-z-]+)?: error: (argument --[a-z-]+|environment variable \w+): .*"
)
PINNED = [
    # README
    (("omega-set", "--file", "HEAT"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("omega-set", "--file", "CORNER", "--m", "2"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("volume", "--file", "HEAT", "--s", "3"), 0,
     "volume = 7\nnumerator = 7\n",
     '{"s": 3, "volume": 7, "numerator": 7, "agree": true}\n'),
    (("omega-set", "--file", "SET3"), 0,
     "1/2*t^2 + 49/2*t - 86\nstandard coefficients: [0, 1, 23, -110]\n",
     '{"m": 3, "standard_coeffs": ["0", "1", "23", "-110"], "render": "1/2*t^2 + 49/2*t - 86"}\n'),
    # HEAT's generator has two entries, not the three that --m names
    (("omega-set", "--file", "HEAT", "--m", "3"), 1, "", ""),
    (("volume", "--file", "HEAT", "--m", "3", "--s", "3"), 1, "", ""),
    # 14,839 of the 585,276 points of order <= 150 lie outside the set's ideal
    (("volume", "--file", "SET3", "--s", "150"), 0,
     "volume = 14839\nnumerator = 14839\n",
     '{"s": 150, "volume": 14839, "numerator": 14839, "agree": true}\n'),
    # README; outside (1, 0) and (0, 1) lies the origin alone
    (("volume", "--file", "CORNERS", "--s", "4"), 0,
     "volume = 1\nnumerator = 1\n", '{"s": 4, "volume": 1, "numerator": 1, "agree": true}\n'),
    # at m = 3 the walk has the 51 prefixes 0..50 of the first coordinate
    (("volume", "--file", "CORNER3", "--s", "50", "--enum-cap", "50"), 3, "", ""),
    (("volume", "--file", "CORNER3", "--s", "50", "--enum-cap", "51"), 0,
     "volume = 3826\nnumerator = 3826\n",
     '{"s": 50, "volume": 3826, "numerator": 3826, "agree": true}\n'),
    (("volume", "--file", "FIVE", "--s", str(10**20), "--enum-cap", str(10**30)), 0,
     "volume = 5\nnumerator = 5\n",
     '{"s": 100000000000000000000, "volume": 5, "numerator": 5, "agree": true}\n'),
    # the walk's binom(10^20 + 254, 254) prefixes, 4,578 digits, are stated by size
    (("volume", "--file", "ONES256", "--s", str(10**20)), 3, "", ""),
    # README
    (("bounds", "--r", "1", "--m", "2", "--n", "1"), 0,
     "char_order = 2\norder_sum = 6\nregularity = 10\ncomparison_level = 577\n"
     "coeff_bound = 36\n",
     '{"r": 1, "m": 2, "n": 1, "char_order": "2", "order_sum": "6", '
     '"regularity": "10", "comparison_level": "577", "coeff_bound": "36"}\n'),
    (("bounds", "--r", "1", "--m", "2", "--n", "2"), 0,
     "char_order = 4\norder_sum = 20\nregularity = 38\ncomparison_level = 12801\n"
     "coeff_bound = 800\n",
     '{"r": 1, "m": 2, "n": 2, "char_order": "4", "order_sum": "20", '
     '"regularity": "38", "comparison_level": "12801", "coeff_bound": "800"}\n'),
    (("bounds", "--r", "4", "--m", "4", "--n", "1", "--bound-digit-cap", "50"), 3, "", ""),
    (("bounds", "--r", LONG, "--m", "1", "--n", "1"), 2, "", ""),
    # no derivation
    (("bounds", "--r", "1", "--m", "0", "--n", "1"), 1, "", ""),
    (("rank-compare", "d[1,0]x1", "d[0,2]x1"), 0, "Less\n", '{"result": "Less"}\n'),
    # README
    (("rank-compare", "d[1,0]x1", "d[0,1]x1"), 0, "Greater\n", '{"result": "Greater"}\n'),
    (("rank-compare", "d[1,1]x2", "d[1,1]x1"), 0, "Greater\n", '{"result": "Greater"}\n'),
    (("rank-compare", "d[2,0]x1", "d[2,0]x1"), 0, "Equal\n", '{"result": "Equal"}\n'),
    (("rank-compare", "d[1,0]x1", "d[1]x1"), 1, "", ""),
    (("omega-leaders", "--file", "PROFILE"), 0,
     "2*t + 2\nstandard coefficients: [0, 2, 0]\n",
     '{"m": 2, "standard_coeffs": ["0", "2", "0"], "render": "2*t + 2"}\n'),
    # PROFILE names unknown 2, past the one unknown that --n allows
    (("omega-leaders", "--file", "PROFILE", "--n", "1"), 1, "", ""),
    (("kolchin", "--system", "heat.sys"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("kolchin", "--system", "wave.sys", "--check"), 0,
     "groebner: 2*t + 1  [0, 2, -1]\nprolongation: 2*t + 1  [0, 2, -1]\nAGREE\n",
     '{"groebner": ' + POLY_2T_1[:-1] + ', "prolongation": ' + POLY_2T_1[:-1]
     + ', "agree": true}\n'),
    # README
    (("kolchin", "--system", "cauchy_riemann.sys", "--check"), 0,
     "groebner: 2*t + 2  [0, 2, 0]\nprolongation: 2*t + 2  [0, 2, 0]\nAGREE\n",
     '{"groebner": {"m": 2, "standard_coeffs": ["0", "2", "0"], "render": "2*t + 2"}, '
     '"prolongation": {"m": 2, "standard_coeffs": ["0", "2", "0"], "render": "2*t + 2"}, '
     '"agree": true}\n'),
    # the first pivot row, Laplace's equation, holds two entries
    (("kolchin", "--system", "laplace.sys", "--check", "--matrix-cell-cap", "1"), 3, "", ""),
    (("kolchin", "--system", "probe4.sys", "--gb-step-cap", "5"), 3, "", ""),
    # tests/data holds no such file
    (("kolchin", "--system", "absent.sys"), 1, "", ""),
    # completion stops at the unit module after 3 S-pair reductions, and
    # makes no pair of two monomials
    (("kolchin", "--system", "UNIT", "--check", "--gb-step-cap", "3"), 0,
     "groebner: 0  [0, 0, 0]\nprolongation: 0  [0, 0, 0]\nAGREE\n",
     '{"groebner": {"m": 2, "standard_coeffs": ["0", "0", "0"], "render": "0"}, '
     '"prolongation": {"m": 2, "standard_coeffs": ["0", "0", "0"], "render": "0"}, '
     '"agree": true}\n'),
    (("kolchin", "--system", "UNIT", "--check", "--gb-step-cap", "2"), 3, "", ""),
    (("kolchin", "--system", "MONOMIALS6", "--check", "--gb-step-cap", "1"), 0,
     "groebner: 15  [0, 0, 15]\nprolongation: 15  [0, 0, 15]\nAGREE\n",
     '{"groebner": {"m": 2, "standard_coeffs": ["0", "0", "15"], "render": "15"}, '
     '"prolongation": {"m": 2, "standard_coeffs": ["0", "0", "15"], "render": "15"}, '
     '"agree": true}\n'),
    # x1 is first a pivot at level 6: margin 6
    (("kolchin", "--system", "MARGIN6", "--check"), 0,
     "groebner: 2  [0, 0, 2]\nprolongation: 2  [0, 0, 2]\nAGREE\n",
     '{"groebner": {"m": 2, "standard_coeffs": ["0", "0", "2"], "render": "2"}, '
     '"prolongation": {"m": 2, "standard_coeffs": ["0", "0", "2"], "render": "2"}, '
     '"agree": true}\n'),
    # README
    (("kolchin", "--system", "heat.sys", "--type"), 0, "1\n", '{"differential_type": 1}\n'),
    (("kolchin", "--system", "heat.sys", "--at-least", "0,1,5"), 0,
     "true\n", '{"result": true}\n'),
    # README
    (("kolchin", "--system", "heat.sys", "--at-least", "0,2,-1"), 0,
     "true\n", '{"result": true}\n'),
    (("kolchin", "--system", "heat.sys", "--equals", "0,2,0"), 0,
     "false\n", '{"result": false}\n'),
    (("kolchin", "--system", "heat.sys", "--equals", "0,2,-1"), 0,
     "true\n", '{"result": true}\n'),
    (("interpolate", "--values", "1,3,5", "--start", "0"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("interpolate", "--values", "1,4,10", "--start", "0"), 0,
     "3/2*t^2 + 3/2*t + 1\nstandard coefficients: [3, -3, 1]\n",
     '{"m": 2, "standard_coeffs": ["3", "-3", "1"], "render": "3/2*t^2 + 3/2*t + 1"}\n'),
    # README
    (("interpolate", "--values", "5,7,9", "--start", "2"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("interpolate", "--values", f"{LONG},1", "--start", "0"), 2, "", ""),
    ((f"KOLCHIN_GB_STEP_CAP={LONG}", "kolchin", "--system", "laplace.sys"), 2, "", ""),
]


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize(
    "argv,code,human,as_json", PINNED,
    ids=[" ".join(case[0]).replace(LONG, "<limit + 1 digits>") for case in PINNED],
)
def test_output_is_pinned(capsys, monkeypatch, tmp_path, argv, code, human, as_json, fmt):
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    status, out, err = run(capsys, *resolve(tmp_path, argv), "--format", fmt)
    assert (status, out) == (code, human if fmt == "human" else as_json)
    assert err.startswith(ERROR_PREFIX[code]) if code else err == ""
    if code == 2:
        assert USAGE_ERROR.fullmatch(err.splitlines()[-1]) and LONG not in err
