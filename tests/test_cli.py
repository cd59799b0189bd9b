import json
import subprocess
import sys

import pytest

from ddperm import cli, counting


def run_cli(*args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ddperm", *args],
        capture_output=True,
        text=True,
        env=merged,
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


def test_count_usage_errors():
    assert run_cli("count", "--set", "5,2", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "2,2,3", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "x", "--n", "6").returncode == 64
    assert run_cli("count", "--set", "2", "--n", "6", "--bogus").returncode == 64
    assert run_cli("bogus").returncode == 64


def test_count_cap_exit_code():
    result = run_cli("count", "--set", "2", "--n", "13", "--method", "brute")
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_singleton_table_cap_exit_code():
    result = run_cli("table", "--family", "singleton", "--n", "1200")
    assert result.returncode == 2
    assert "cap" in result.stderr
    assert result.stdout == ""


def test_brute_cap_env_override():
    result = run_cli(
        "count", "--set", "2", "--n", "6", "--method", "brute",
        env={"DDPERM_BRUTE_CAP": "5"},
    )
    assert result.returncode == 2
    result = run_cli(
        "count", "--set", "2", "--n", "6", "--method", "brute",
        env={"DDPERM_BRUTE_CAP": "20"},
    )
    assert result.returncode == 64


def test_count_timing_line_is_extra():
    plain = run_cli("count", "--set", "2", "--n", "6")
    timed = run_cli("count", "--set", "2", "--n", "6", "--timing")
    assert timed.stdout.startswith(plain.stdout)
    assert timed.stdout.splitlines()[-1].startswith("time:")


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


def test_table_missing_flag_is_usage_error():
    assert run_cli("table", "--family", "b").returncode == 64
    assert run_cli("table", "--family", "singleton").returncode == 64


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
    assert "none found up to length" in result.stdout


def test_rimhook_bounds():
    result = run_cli("rimhook", "bounds", "--set", "3", "--length", "6")
    assert result.returncode == 0
    assert "bracketed: yes" in result.stdout


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


def test_selftest_passes():
    result = run_cli("selftest")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_selftest_reports_injected_failure(monkeypatch, capsys):
    # an off-by-one planted in the fast counter must be caught and named
    real = counting.dd_count

    def broken(indices, n, cap=counting.DP_CAP):
        value = real(indices, n, cap)
        if tuple(indices) == (6,) and n == 9:
            return value + 1
        return value

    monkeypatch.setattr(counting, "dd_count", broken)
    code = cli.main(["selftest"])
    out = capsys.readouterr()
    assert code == 1
    assert "FAIL known-values" in out.out
    assert "22420" in out.out
    assert "first witness" in out.err


def test_set_parsing_unit():
    assert cli.parse_set_option("") == ()
    assert cli.parse_set_option("2,5") == (2, 5)
    with pytest.raises(cli.UsageError):
        cli.parse_set_option("5,2")
    with pytest.raises(cli.UsageError):
        cli.parse_set_option("2,2")
    with pytest.raises(cli.UsageError):
        cli.parse_set_option("0,2")
    with pytest.raises(cli.UsageError):
        cli.parse_set_option("a,b")
