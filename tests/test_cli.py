import json
from pathlib import Path

import pytest

from diffdim import expsets, from_json_dict, lindiff
from diffdim.cli import main
from diffdim.numpoly import NumericalPolynomial

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# placeholders an argv may name: files the test writes, and *.sys files
# under tests/data
FILES = {
    "HEAT": "0, 2\n", "CORNER": "1, 1\n", "FIVE": "5\n",
    "PROFILE": "1: 2,0\n2: 1,0\n2: 0,1\n",
}


def resolve(tmp_path, argv):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return [
        str(tmp_path / a) if a in FILES else str(DATA / a) if a.endswith(".sys") else a
        for a in argv
    ]


@pytest.fixture
def heat_leaders(tmp_path):
    path = tmp_path / "heat_leaders.txt"
    path.write_text("0, 2\n")
    return str(path)


def test_omega_set_human(capsys, heat_leaders):
    code, out, _ = run(capsys, "omega-set", "--file", heat_leaders)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2*t + 1"
    assert lines[1] == "standard coefficients: [0, 2, -1]"


def test_omega_set_json_roundtrips(capsys, heat_leaders):
    code, out, _ = run(capsys, "omega-set", "--format", "json", "--file", heat_leaders)
    assert code == 0
    doc = json.loads(out)
    assert from_json_dict(doc) == NumericalPolynomial.from_coeffs((0, 2, -1))
    assert doc["render"] == "2*t + 1"


def test_omega_set_missing_file(capsys):
    code, _, err = run(capsys, "omega-set", "--file", "/nonexistent/path.txt")
    assert code == 1
    assert err


def test_volume_command(capsys, heat_leaders):
    code, out, _ = run(capsys, "volume", "--file", heat_leaders, "--s", "3")
    assert code == 0
    assert out.splitlines() == ["volume = 7", "numerator = 7"]


def test_volume_json(capsys, heat_leaders):
    code, out, _ = run(
        capsys, "volume", "--format", "json", "--file", heat_leaders, "--s", "3"
    )
    assert code == 0
    assert json.loads(out) == {"s": 3, "volume": 7, "numerator": 7, "agree": True}


def test_volume_disagreement_exits_1(capsys, heat_leaders, monkeypatch):
    monkeypatch.setattr(expsets, "_numerator_volume", lambda _exp_set, s: s)
    code, out, _ = run(capsys, "volume", "--file", heat_leaders, "--s", "3")
    assert code == 1
    assert out.splitlines() == ["volume = 7", "numerator = 3", "DISAGREE"]
    code, out, _ = run(
        capsys, "volume", "--format", "json", "--file", heat_leaders, "--s", "3"
    )
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


def test_volume_cap_exit_code(capsys, tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("1, 1\n")
    code, _, err = run(
        capsys, "volume", "--file", str(path), "--s", "50", "--enum-cap", "5"
    )
    assert code == 3
    assert "resource limit" in err


def test_enum_cap_env_override(capsys, tmp_path, monkeypatch):
    path = tmp_path / "e.txt"
    path.write_text("1, 1\n")
    monkeypatch.setenv("KOLCHIN_ENUM_CAP", "5")
    code, _, err = run(capsys, "volume", "--file", str(path), "--s", "50")
    assert code == 3
    # the flag would win over the environment
    code, out, _ = run(
        capsys, "volume", "--file", str(path), "--s", "50", "--enum-cap", "100000"
    )
    assert code == 0


def test_bounds_human(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "1", "--m", "2", "--n", "1")
    assert code == 0
    assert out.splitlines() == [
        "char_order = 2",
        "order_sum = 6",
        "regularity = 10",
        "comparison_level = 577",
        "coeff_bound = 36",
    ]


def test_bounds_json_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "bounds", "--format", "json", "--r", "1", "--m", "2", "--n", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["comparison_level"] == "12801"
    assert doc["coeff_bound"] == "800"
    assert doc["r"] == 1


def test_bounds_digit_cap(capsys):
    code, _, err = run(
        capsys, "bounds", "--r", "4", "--m", "4", "--n", "1", "--bound-digit-cap", "50"
    )
    assert code == 3


def test_rank_compare(capsys):
    code, out, _ = run(capsys, "rank-compare", "d[1,0]x1", "d[0,2]x1")
    assert code == 0
    assert out.strip() == "Less"
    code, out, _ = run(capsys, "rank-compare", "d[1,1]x2", "d[1,1]x1")
    assert out.strip() == "Greater"
    code, out, _ = run(capsys, "rank-compare", "d[2,0]x1", "d[2,0]x1")
    assert out.strip() == "Equal"


def test_rank_compare_mismatched_ambient(capsys):
    code, _, err = run(capsys, "rank-compare", "d[1,0]x1", "d[1]x1")
    assert code == 1
    assert err


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


def test_omega_leaders_command(capsys, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("1: 2,0\n2: 1,0\n2: 0,1\n")
    code, out, _ = run(capsys, "omega-leaders", "--file", str(path))
    assert code == 0
    assert out.splitlines()[1] == "standard coefficients: [0, 2, 0]"


def test_kolchin_default(capsys):
    code, out, _ = run(capsys, "kolchin", "--system", str(DATA / "heat.sys"))
    assert code == 0
    assert out.splitlines()[0] == "2*t + 1"


def test_kolchin_check_agrees(capsys):
    code, out, _ = run(
        capsys, "kolchin", "--system", str(DATA / "cauchy_riemann.sys"), "--check"
    )
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"


def test_kolchin_check_runs_completion_once(capsys, monkeypatch):
    completions = []
    complete = lindiff._groebner_with_margin

    def counted(system, gb_step_cap):
        completions.append(system)
        return complete(system, gb_step_cap)

    monkeypatch.setattr(lindiff, "_groebner_with_margin", counted)
    for name in ("heat.sys", "laplace.sys", "cauchy_riemann.sys"):
        completions.clear()
        code, out, _ = run(capsys, "kolchin", "--system", str(DATA / name), "--check")
        assert (code, out.splitlines()[-1]) == (0, "AGREE")
        assert len(completions) == 1, name


def test_kolchin_check_json(capsys):
    code, out, _ = run(
        capsys,
        "kolchin",
        "--system",
        str(DATA / "wave.sys"),
        "--check",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["groebner"]["standard_coeffs"] == ["0", "2", "-1"]
    assert from_json_dict(doc["prolongation"]) == from_json_dict(doc["groebner"])


def test_kolchin_check_cell_cap(capsys):
    laplace = str(DATA / "laplace.sys")
    code, _, err = run(capsys, "kolchin", "--system", laplace, "--check",
                       "--matrix-cell-cap", "10")
    assert code == 3
    assert "resource limit" in err
    code, out, _ = run(capsys, "kolchin", "--system", laplace, "--check")
    assert code == 0
    assert out.splitlines()[-1] == "AGREE"


BIG_EXPONENT = "m = 2\nn = 1\neq: d[1000000000,0]x1 + d[0,3]x1\n"


def test_kolchin_on_a_big_exponent(capsys, tmp_path):
    # the Hilbert numerator of the leader set holds two terms, not 10^9
    path = tmp_path / "big.sys"
    path.write_text(BIG_EXPONENT)
    code, out, _ = run(capsys, "kolchin", "--system", str(path))
    assert code == 0
    assert out.splitlines()[1] == "standard coefficients: [0, 1000000000, -499999999500000000]"


def test_kolchin_check_on_a_big_exponent_stops_at_the_stated_level(capsys, tmp_path):
    # the prolongation route would read level floor + m + margin + 1 = 10^9 + 1;
    # the cell cap is checked there before level 0 is built, not after 10^9
    # empty levels
    path = tmp_path / "big.sys"
    path.write_text(BIG_EXPONENT)
    code, _, err = run(capsys, "kolchin", "--system", str(path), "--check")
    assert code == 3
    assert "prolongation matrix at level 1000000001 would hold" in err


def test_kolchin_check_on_a_high_order_ode_keeps_one_record_per_pivot(capsys, tmp_path):
    # the route reads levels 20000 and 20001; nothing below the equation's
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


def test_kolchin_type(capsys):
    code, out, _ = run(capsys, "kolchin", "--system", str(DATA / "heat.sys"), "--type")
    assert code == 0
    assert out.strip() == "1"


def test_kolchin_predicates(capsys):
    code, out, _ = run(
        capsys, "kolchin", "--system", str(DATA / "heat.sys"), "--at-least", "0,1,5"
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "kolchin", "--system", str(DATA / "heat.sys"), "--equals", "0,2,0"
    )
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(
        capsys, "kolchin", "--system", str(DATA / "heat.sys"), "--equals", "0,2,-1"
    )
    assert code == 0 and out.strip() == "true"


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


def test_interpolate_command(capsys):
    code, out, _ = run(capsys, "interpolate", "--values", "1,3,5", "--start", "0")
    assert code == 0
    assert out.splitlines() == ["2*t + 1", "standard coefficients: [0, 2, -1]"]


def test_interpolate_json(capsys):
    code, out, _ = run(
        capsys, "interpolate", "--format", "json", "--values", "1,4,10", "--start", "0"
    )
    assert code == 0
    assert json.loads(out)["standard_coeffs"] == ["3", "-3", "1"]


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
# subcommand and kolchin mode, in both formats
PINNED = [
    (("omega-set", "--file", "HEAT"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("omega-set", "--file", "CORNER", "--m", "2"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("volume", "--file", "HEAT", "--s", "3"), 0,
     "volume = 7\nnumerator = 7\n",
     '{"s": 3, "volume": 7, "numerator": 7, "agree": true}\n'),
    (("volume", "--file", "CORNER", "--s", "50", "--enum-cap", "5"), 3, "", ""),
    (("volume", "--file", "FIVE", "--s", str(10**20), "--enum-cap", str(10**30)), 0,
     "volume = 5\nnumerator = 5\n",
     '{"s": 100000000000000000000, "volume": 5, "numerator": 5, "agree": true}\n'),
    (("bounds", "--r", "1", "--m", "2", "--n", "1"), 0,
     "char_order = 2\norder_sum = 6\nregularity = 10\ncomparison_level = 577\n"
     "coeff_bound = 36\n",
     '{"r": 1, "m": 2, "n": 1, "char_order": "2", "order_sum": "6", '
     '"regularity": "10", "comparison_level": "577", "coeff_bound": "36"}\n'),
    (("bounds", "--r", "4", "--m", "4", "--n", "1", "--bound-digit-cap", "50"), 3, "", ""),
    (("rank-compare", "d[1,0]x1", "d[0,2]x1"), 0, "Less\n", '{"result": "Less"}\n'),
    (("rank-compare", "d[1,0]x1", "d[1]x1"), 1, "", ""),
    (("omega-leaders", "--file", "PROFILE"), 0,
     "2*t + 2\nstandard coefficients: [0, 2, 0]\n",
     '{"m": 2, "standard_coeffs": ["0", "2", "0"], "render": "2*t + 2"}\n'),
    (("kolchin", "--system", "heat.sys"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("kolchin", "--system", "wave.sys", "--check"), 0,
     "groebner: 2*t + 1  [0, 2, -1]\nprolongation: 2*t + 1  [0, 2, -1]\nAGREE\n",
     '{"groebner": ' + POLY_2T_1[:-1] + ', "prolongation": ' + POLY_2T_1[:-1]
     + ', "agree": true}\n'),
    (("kolchin", "--system", "laplace.sys", "--check", "--matrix-cell-cap", "10"), 3, "", ""),
    (("kolchin", "--system", "probe4.sys", "--gb-step-cap", "5"), 3, "", ""),
    (("kolchin", "--system", "heat.sys", "--type"), 0, "1\n", '{"differential_type": 1}\n'),
    (("kolchin", "--system", "heat.sys", "--at-least", "0,1,5"), 0,
     "true\n", '{"result": true}\n'),
    (("kolchin", "--system", "heat.sys", "--equals", "0,2,0"), 0,
     "false\n", '{"result": false}\n'),
    (("interpolate", "--values", "1,3,5", "--start", "0"), 0,
     "2*t + 1\nstandard coefficients: [0, 2, -1]\n", POLY_2T_1),
    (("interpolate", "--values", "1,4,10", "--start", "0"), 0,
     "3/2*t^2 + 3/2*t + 1\nstandard coefficients: [3, -3, 1]\n",
     '{"m": 2, "standard_coeffs": ["3", "-3", "1"], "render": "3/2*t^2 + 3/2*t + 1"}\n'),
]


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize(
    "argv,code,human,as_json", PINNED, ids=[" ".join(case[0]) for case in PINNED]
)
def test_output_is_pinned(capsys, tmp_path, argv, code, human, as_json, fmt):
    out = human if fmt == "human" else as_json
    assert run(capsys, *resolve(tmp_path, argv), "--format", fmt)[:2] == (code, out)
