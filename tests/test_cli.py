import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ddperm import checks, cli, conjectures, counting, errors, series


def run_cli(*args, env=None, timeout=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ddperm", *args],
        capture_output=True,
        text=True,
        env=merged,
        timeout=timeout,
    )


def test_count_dp():
    result = run_cli("count", "--set", "6", "--n", "9", "--method", "dp")
    assert result.returncode == 0
    assert result.stdout == "dd({6};9) = 22419  [method: dp]\n"


def test_count_brute():
    result = run_cli("count", "--set", "", "--n", "4", "--method", "brute")
    assert result.returncode == 0
    assert "dd({};4) = 17" in result.stdout


def test_count_all_methods_agree():
    result = run_cli("count", "--set", "2", "--n", "4", "--all-methods")
    assert result.returncode == 0
    assert result.stdout.count("= 3") == 3
    assert "agreement: OK" in result.stdout
    # no rim hook has length 0, so n = 0 compares the dp and brute lines
    result = run_cli("count", "--set", "", "--n", "0", "--all-methods")
    assert result.returncode == 0
    assert result.stdout == ("dd({};0) = 1  [method: dp]\n"
                             "dd({};0) = 1  [method: brute]\nagreement: OK\n")


def test_count_usage_errors():
    assert run_cli("count", "--set", "5,2", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "2,2,3", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "x", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "2", "--n", "6", "--bogus").returncode == 64
    assert run_cli("bogus").returncode == 64


def test_brute_force_refuses_negative_n():
    # the census of a negative length used to answer dd({};-1) = 1
    result = run_cli("count", "--set", "", "--n", "-1", "--method", "brute")
    assert result.returncode == 64
    assert result.stdout == ""
    assert result.stderr == "ddperm: error: n must be nonnegative\n"


def test_count_cap_exit_code():
    result = run_cli("count", "--set", "2", "--n", "13", "--method", "brute")
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_singleton_table_cap_exit_code():
    result = run_cli("table", "--family", "singleton", "--n", "1200")
    assert result.returncode == 2
    assert "cap" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ("table", "--family", "b", "--to", "3000"),
    ("egf-check", "--which", "ddempty", "--order", "3000"),
    ("egf-check", "--which", "b", "--order", str(errors.DP_CAP + 1)),
    ("conjecture", "run", "--id", "6.1", "--n", "1000"),
    ("rimhook", "minimal", "--set", "3", "--height", "499"),
])
def test_sequence_cap_refuses_at_once(argv):
    # these ran for minutes (or seconds, just past the series cap); each
    # must refuse before it starts the work
    result = run_cli(*argv, timeout=20)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("ddperm: resource cap: ")
    assert len(result.stderr.splitlines()) == 1


def test_table_b_csv():
    result = run_cli("table", "--family", "b", "--to", "5")
    assert result.returncode == 0
    assert result.stdout == "n,value\n0,1\n1,1\n2,1\n3,3\n4,9\n5,39\n"


def test_table_ddempty_csv():
    result = run_cli("table", "--family", "ddempty", "--to", "4")
    assert result.stdout.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,5", "4,17"]


def test_table_singleton_includes_published_value():
    result = run_cli("table", "--family", "singleton", "--n", "9")
    assert "9,6,22419" in result.stdout.splitlines()


def test_table_json_uses_string_integers():
    result = run_cli("table", "--family", "b", "--to", "25", "--format", "json")
    data = json.loads(result.stdout)
    assert data["family"] == "b"
    assert all(isinstance(v, str) for v in data["values"])
    assert int(data["values"][25]) == counting.no_dd_ascent_counts(25)[25]


def test_table_out_file(tmp_path):
    out = tmp_path / "table.csv"
    result = run_cli("table", "--family", "b", "--to", "4", "--out", str(out))
    assert result.returncode == 0
    assert out.read_text().endswith("4,9\n")


@pytest.mark.parametrize("argv", [
    ("table", "--family", "b", "--to", "5"),
    ("conjecture", "run", "--id", "6.2", "--n", "10"),
])
def test_unwritable_out_exits_73(tmp_path, argv):
    out = tmp_path / "missing" / "x.csv"
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == 73
    assert result.stderr.startswith("ddperm: cannot write output: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("family", ["b", "ddempty", "singleton"])
def test_table_size_flags_are_one_value(family):
    # --to and --n spell the same size for every family
    to, n = (run_cli("table", "--family", family, flag, "9", "--format", "json")
             for flag in ("--to", "--n"))
    assert to.returncode == n.returncode == 0
    assert to.stdout == n.stdout


def test_table_missing_flag_is_usage_error():
    for family in ("b", "singleton"):
        result = run_cli("table", "--family", family)
        assert result.returncode == 64
        assert result.stdout == ""
        assert result.stderr == ("ddperm table: error: the following "
                                 "arguments are required: --to/--n\n")


def test_table_singleton_negative_n_is_usage_error():
    result = run_cli("table", "--family", "singleton", "--n", "-2")
    assert result.returncode == 64
    assert result.stdout == ""
    assert result.stderr == "ddperm: error: n must be nonnegative\n"


def test_stdout_is_deterministic():
    first = run_cli("table", "--family", "singleton", "--n", "9")
    second = run_cli("table", "--family", "singleton", "--n", "9")
    assert first.stdout == second.stdout


def test_rimhook_list():
    result = run_cli("rimhook", "list", "--set", "2", "--length", "6")
    lines = result.stdout.splitlines()
    assert lines[-1] == "total: 3"
    assert set(lines[:-1]) == {"(4,1,1)", "(3,2,1,1)/(1)", "(3,3,1,1)/(2)"}


def test_rimhook_count_methods():
    result = run_cli("rimhook", "count", "--set", "", "--length", "6")
    assert "R({};6) = 13" in result.stdout
    result = run_cli("rimhook", "count", "--set", "2", "--length", "40")
    assert result.returncode == 0
    assert "[method: formula]" in result.stdout


def test_rimhook_minimal():
    result = run_cli("rimhook", "minimal", "--set", "3", "--height", "5")
    assert result.stdout == "(4,4,3,2,2)/(3,2,1,1)\n"
    result = run_cli("rimhook", "minimal", "--set", "2", "--height", "2")
    assert result.stdout == (
        "none found: no rim hook of height 2 has double-descent set {2}\n")


@pytest.mark.parametrize("height", ["6", "12"])
def test_rimhook_minimal_unrealizable_answers_at_once(height):
    # {2,4} is no double-descent set; the composition walk took 49 s at
    # height 9 and passed a minute at height 10
    result = run_cli("rimhook", "minimal", "--set", "2,4", "--height", height,
                     timeout=5)
    assert result.returncode == 0
    assert result.stdout == (f"none found: no rim hook of height {height} "
                             "has double-descent set {2,4}\n")


def test_rimhook_bounds():
    result = run_cli("rimhook", "bounds", "--set", "3", "--length", "6")
    assert result.returncode == 0
    assert "bracketed: yes" in result.stdout


@pytest.mark.parametrize("argv, named", [
    # each action takes only its own flags
    (("list", "--set", "2", "--length", "6", "--height", "3"), "--height"),
    (("count", "--set", "2", "--length", "8", "--ascii"), "--ascii"),
    (("count", "--set", "2", "--length", "8", "--height", "3"), "--height"),
    (("minimal", "--set", "3", "--height", "5", "--length", "9"), "--length"),
    (("bounds", "--set", "3", "--length", "6", "--ascii"), "--ascii"),
    (("bounds", "--set", "3", "--length", "6", "--height", "3"), "--height"),
    # and requires its size flag
    (("list", "--set", "2"), "--length"),
    (("count", "--set", "2"), "--length"),
    (("minimal", "--set", "3", "--length", "9"), "--height"),
    (("bounds", "--set", "3"), "--length"),
    # options follow the action
    (("--set", "2", "list", "--length", "6"), "action"),
])
def test_rimhook_actions_take_only_their_flags(argv, named):
    result = run_cli("rimhook", *argv)
    assert result.returncode == 64
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert named in result.stderr


@pytest.mark.parametrize("argv", [
    (), ("count",), ("table",), ("rimhook",), ("rimhook", "list"),
    ("rimhook", "count"), ("rimhook", "minimal"), ("rimhook", "bounds"),
    ("circular",), ("egf-check",), ("estimate",), ("conjecture",),
    ("selftest",),
])
def test_help_exits_zero(capsys, argv):
    assert cli.main([*argv, "--help"]) == 0
    assert capsys.readouterr().out.startswith(" ".join(("usage: ddperm", *argv)))


def test_rimhook_formula_cap_refuses_at_once():
    # F(10^6 + 1) took 8 s and then passed the interpreter's digit limit
    result = run_cli("rimhook", "count", "--set", "", "--length", "1000000",
                     timeout=5)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("ddperm: resource cap: rim-hook formula at "
                             "n=1000000 exceeds the cap n=20000\n")


def test_circular_methods_agree():
    formula = run_cli("circular", "count", "--n", "7")
    brute = run_cli("circular", "count", "--n", "7", "--method", "brute")
    assert formula.stdout.split("=")[1].split("[")[0] == (
        brute.stdout.split("=")[1].split("[")[0]
    )


def test_egf_check():
    result = run_cli("egf-check", "--which", "ddempty", "--order", "8")
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 9
    assert "FAIL" not in result.stdout


def test_estimate_output():
    result = run_cli("estimate", "--m", "6", "--n", "8")
    assert result.stdout == (
        "estimate dd({6};9) = 22419.118\n"
        "exact    dd({6};9) = 22419\n"
        "relative error = 0.00053%\n"
    )


@pytest.mark.parametrize("m", ["2", "3"])
def test_estimate_small_m_is_silent(m):
    # the m in {2, 3} conventions hold exactly, so nothing is warned
    result = run_cli("estimate", "--m", m, "--n", "6")
    assert result.returncode == 0
    assert result.stderr == ""


def test_conjecture_run_csv(tmp_path):
    out = tmp_path / "report.csv"
    result = run_cli(
        "conjecture", "run", "--id", "6.2", "--n", "10", "--out", str(out)
    )
    assert result.returncode == 0
    assert "verdict: HOLDS-IN-RANGE" in result.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + i = 2, 3, 4
    rerun = tmp_path / "rerun.csv"
    run_cli("conjecture", "run", "--id", "6.2", "--n", "10", "--out", str(rerun))
    assert out.read_bytes() == rerun.read_bytes()


def test_conjecture_run_stdout_json():
    result = run_cli(
        "conjecture", "run", "--id", "6.4", "--n", "12", "--format", "json"
    )
    data = json.loads(result.stdout)
    assert data["conjecture"] == "6.4"
    assert data["verdict"] == "INCONCLUSIVE"


def test_conjecture_64_requires_singletons():
    result = run_cli(
        "conjecture", "run", "--id", "6.4", "--set-i", "2,3", "--set-j", "4"
    )
    assert result.returncode == 64
    assert result.stdout == ""
    assert result.stderr == ("ddperm: error: conjecture 6.4 takes singleton "
                             "sets; use 6.5\n")


@pytest.mark.parametrize("argv, named", [
    # each id takes only the flags it reads
    (("--id", "6.2", "--alpha", "1/3"), "--alpha"),
    (("--id", "6.3", "--beta", "2/3"), "--beta"),
    (("--id", "6.1", "--set-i", "3"), "--set-i"),
    (("--id", "6.1", "--set-i", ""), "--set-i"),
    (("--id", "3.2", "--set-j", "2"), "--set-j"),
    (("--id", "6.4", "--alpha", "1/3"), "--alpha"),
    (("--id", "6.5", "--beta", "2/3", "--n", "12"), "--beta"),
])
def test_conjecture_ids_take_only_their_flags(capsys, argv, named):
    assert cli.main(["conjecture", "run", *argv]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ddperm: error: conjecture {argv[1]} does not take {named}\n"


@pytest.mark.parametrize("flags, alpha, beta", [
    (("--n", "70", "--alpha", "1/3", "--beta", "2/3"), Fraction(1, 3), Fraction(2, 3)),
    (("--n", "20"), Fraction(1, 4), Fraction(3, 4)),
    (("--n", "20", "--beta", "1/2"), Fraction(1, 4), Fraction(1, 2)),
])
def test_conjecture_61_window(capsys, flags, alpha, beta):
    assert cli.main(["conjecture", "run", "--id", "6.1", *flags]) == 0
    report = conjectures.equidistribution_report(int(flags[1]), alpha, beta)
    assert capsys.readouterr().out == conjectures.report_text(report, "csv")


def test_conjecture_unrealizable_set_is_named_in_set_notation(capsys):
    argv = ["conjecture", "run", "--id", "6.5", "--set-i", "2,4", "--n", "20"]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("ddperm: error: dd(I;n) = 0 for all computed n "
                   "(I={2,4}, n <= 20)\n")


@pytest.mark.parametrize("report_id", ["6.1", "6.2", "6.3", "6.4", "6.5", "3.2"])
def test_conjecture_rejects_nonpositive_n(report_id):
    # --n 0 used to fall back to the default size and exit 0
    for n in ("0", "-4"):
        result = run_cli("conjecture", "run", "--id", report_id, "--n", n)
        assert result.returncode == 64, (n, result.stderr)
        assert result.stdout == ""
        assert result.stderr.startswith("ddperm: error: ")
        assert len(result.stderr.splitlines()) == 1


_RATIO_ARGS = ("conjecture", "run", "--id", "6.3", "--n", "200")


def test_report_past_the_digit_limit_is_refused():
    # the 6.3 cross products at n = 200 pass a 640-digit limit
    from ddperm import conjectures
    digits = max(len(str(cell))
                 for row in conjectures.ratio_monotonicity_report(200).rows
                 for cell in row if isinstance(cell, int))
    assert digits > 640
    result = run_cli(*_RATIO_ARGS, env={"PYTHONINTMAXSTRDIGITS": "640"})
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("ddperm: resource cap: ")
    for part in ("n=200", f"{digits}-digit", "limit of 640 digits"):
        assert part in result.stderr


def test_report_prints_with_the_digit_limit_raised():
    result = run_cli(*_RATIO_ARGS, env={"PYTHONINTMAXSTRDIGITS": "0"})
    assert result.returncode == 0
    assert result.stdout == run_cli(*_RATIO_ARGS).stdout
    assert result.stderr == "verdict: HOLDS-IN-RANGE\n"


def test_selftest_passes():
    result = run_cli("selftest")
    assert result.returncode == 0
    assert result.stdout == "".join(f"PASS {name}\n" for name in checks.CHECKS)


_PLANTED_OFF_BY_ONE = """
import sys
from ddperm import cli, counting
real = counting.dd_count
def broken(indices, n):
    value = real(indices, n)
    return value + 1 if tuple(indices) == (6,) and n == 9 else value
counting.dd_count = broken
sys.exit(cli.main(["selftest"]))
"""


def _selftest_names_planted_failure(*flags):
    # an off-by-one planted in the fast counter must be caught and named
    result = subprocess.run(
        [sys.executable, *flags, "-c", _PLANTED_OFF_BY_ONE],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "FAIL known-values" in result.stdout
    assert "22420" in result.stdout
    assert "first witness" in result.stderr


def test_selftest_reports_injected_failure():
    _selftest_names_planted_failure()


def test_selftest_reports_injected_failure_under_optimize():
    # -O strips assert statements; the checks must not rely on them
    _selftest_names_planted_failure("-O")


@pytest.mark.parametrize("error, code, prefix", [
    (ArithmeticError, 1, "ddperm: check failed: "),
    (ZeroDivisionError, 64, "ddperm: error: "),
])
def test_arithmetic_errors_exit_with_one_line(monkeypatch, capsys,
                                              error, code, prefix):
    # a failed identity is a failed check; division by zero stays an error
    def broken(egf):
        raise error("planted")

    monkeypatch.setattr(series, "integer_coefficients", broken)
    assert cli.main(["egf-check", "--which", "b", "--order", "5"]) == code
    err = capsys.readouterr().err
    assert err == prefix + "planted\n"


_NUMPY_PROBE = """
import contextlib, io, sys
import ddperm, ddperm.cli
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ddperm.cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "ddperm.checks" in sys.modules,
      "json" in sys.modules)
"""


@pytest.mark.parametrize("argv, code, loads_numpy", [
    ((), None, False),
    (("count", "--set", "6", "--n", "9"), 0, False),
    (("table", "--family", "b", "--to", "10"), 0, False),
    (("table", "--family", "singleton", "--n", "12"), 0, False),
    (("egf-check", "--which", "b", "--order", "10"), 0, False),
    (("rimhook", "count", "--set", "2", "--length", "8"), 0, False),
    (("rimhook", "list", "--set", "2", "--length", "6"), 0, False),
    (("circular", "count", "--n", "8"), 0, False),
    (("estimate", "--m", "6", "--n", "8"), 0, False),
    (("conjecture", "run", "--id", "6.2", "--n", "12"), 0, False),
    (("count", "--set", "5,2", "--n", "6"), 64, False),
    (("count", "--set", "2", "--n", "13", "--method", "brute"), 2, False),
    (("circular", "count", "--n", "14", "--method", "brute"), 2, False),
    (("count", "--set", "2", "--n", "6", "--all-methods"), 0, False),
    (("selftest",), 0, False),
    (("table", "--family", "b", "--to", "10", "--format", "json"), 0, False),
])
def test_numpy_loads_only_for_sweeps(argv, code, loads_numpy):
    loads_checks = argv == ("selftest",)
    loads_json = "json" in argv
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True, text=True,
    )
    expected = f"{code} {loads_numpy} {loads_checks} {loads_json}\n"
    assert result.stdout == expected, result.stderr


_IMPORT_PROBE = """
import contextlib, importlib, io, sys
import ddperm
if sys.argv[1:2] == ["--import"]:
    importlib.import_module(sys.argv[2])
elif len(sys.argv) > 1:
    from ddperm import cli
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "ddperm"))
"""

_ROUTES = ("bruteforce", "checks", "circular", "conjectures", "counting",
           "rimhooks", "series")
_COMPUTING = {"ddperm." + m for m in _ROUTES}


@pytest.mark.parametrize("argv, computing", [
    ((), None),
    (("count", "--set", "5,2", "--n", "6"), set()),
    (("count", "--set", "6", "--n", "9"), {"counting"}),
    (("table", "--family", "singleton", "--n", "12"), {"counting"}),
    (("egf-check", "--which", "b", "--order", "10"), {"counting", "series"}),
    # series reads its cap from errors, so it loads no counting route
    (("--import", "ddperm.series"), {"errors", "series"}),
    (("table", "--family", "b", "--to", "10"), {"counting"}),
    (("table", "--family", "b", "--to", "10", "--format", "json"),
     {"counting"}),
    (("rimhook", "count", "--set", "2", "--length", "8"), {"bruteforce"}),
    (("rimhook", "list", "--set", "2", "--length", "6"), {"rimhooks"}),
    (("circular", "count", "--n", "8"), {"circular", "counting"}),
    (("circular", "count", "--n", "14", "--method", "brute"),
     {"bruteforce"}),
    (("estimate", "--m", "6", "--n", "8"), {"counting"}),
    (("conjecture", "run", "--id", "6.2", "--n", "12"),
     {"conjectures", "counting"}),
    (("conjecture", "run", "--id", "6.2", "--alpha", "1/3"), set()),
    (("conjecture", "run", "--id", "6.4", "--set-i", "2,5"), set()),
    (("count", "--set", "2", "--n", "13", "--method", "brute"),
     {"bruteforce"}),
    (("count", "--set", "2", "--n", "6", "--all-methods"),
     {"counting", "bruteforce", "rimhooks"}),
    (("selftest",), set(_ROUTES)),
])
def test_subcommand_loads_only_its_modules(argv, computing):
    # a CLI child compiles every module it loads (no bytecode cache is
    # assumed), so each subcommand must load only the modules it runs
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True,
    )
    loaded = set(result.stdout.split())
    assert result.returncode == 0, result.stderr
    expected = {"ddperm." + m for m in computing or ()}
    if computing is None or argv[0] == "--import":  # exactly these modules
        assert loaded == {"ddperm"} | expected
    else:
        assert loaded & _COMPUTING == expected


def test_set_parsing_unit():
    assert cli.parse_set_option("") == ()
    assert cli.parse_set_option("2,5") == (2, 5)
    for text in ("5,2", "2,2", "0,2", "a,b"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_set_option(text)
