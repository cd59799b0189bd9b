import json
from fractions import Fraction

import pytest

from ddperm import bruteforce as bf
from ddperm import conjectures as cj
from ddperm import counting
from ddperm.errors import CapExceeded


def test_singleton_table_consistency():
    for n in range(4, 8):
        table = cj.singleton_table(n)
        census = bf.dd_census(n)
        for i, value in table.items():
            assert value == census.get((i,), 0)


def test_singleton_table_is_the_per_m_dp():
    for n in (0, 2, 3, 17, 100):
        table = cj.singleton_table(n)
        assert list(table) == list(range(2, n))
        assert table == {i: counting.dd_count((i,), n) for i in range(2, n)}, n


def test_reports_refuse_beyond_the_dp_cap():
    with pytest.raises(CapExceeded):
        cj.singleton_table(counting.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        cj.ratio_series_report((2,), (4,), n_max=counting.DP_CAP + 1)


def test_ratio_series_rows_are_the_per_n_dp():
    report = cj.ratio_series_report((3, 7), (5, 9, 10), 40)
    for n, num, den, _, _ in report.rows:
        assert int(num) == counting.dd_count((3, 7), n)
        assert int(den) == counting.dd_count((5, 9, 10), n)


def test_equidistribution_window_arithmetic():
    report = cj.equidistribution_report(6, Fraction(2, 5), Fraction(3, 5))
    last = report.rows[-1]
    # the open window (2.4, 3.6) contains i = 3 only
    assert last[1] == str(counting.dd_count((3,), 6))
    share = Fraction(int(last[2]), int(last[3]))
    total = sum(cj.singleton_table(6).values())
    assert share == Fraction(1, 5) * total


def test_equidistribution_band_at_20():
    report = cj.equidistribution_report(20, Fraction(1, 4), Fraction(3, 4))
    ratio = Fraction(report.rows[-1][4])
    assert Fraction(8, 10) <= ratio <= Fraction(12, 10)
    assert report.verdict in (cj.Verdict.HOLDS_IN_RANGE, cj.Verdict.INCONCLUSIVE)


def test_equidistribution_marks_empty_windows():
    report = cj.equidistribution_report(
        8, Fraction(40, 100), Fraction(42, 100)
    )
    notes = {row[-1] for row in report.rows}
    assert "empty" in notes


def test_equidistribution_rejects_bad_window():
    with pytest.raises(ValueError):
        cj.equidistribution_report(10, Fraction(3, 4), Fraction(1, 4))


def test_down_up_examples():
    report = cj.down_up_report(9)
    table = cj.singleton_table(9)
    assert table[2] > table[3]  # even i goes down
    assert table[3] < table[4]  # odd i goes up
    assert report.verdict is cj.Verdict.HOLDS_IN_RANGE
    assert cj.down_up_report(10).rows == cj.down_up_report(10).rows
    assert len(cj.down_up_report(10).rows) == 3  # i = 2, 3, 4
    with pytest.raises(ValueError):
        cj.down_up_report(5)


def test_down_up_small_sweep():
    for n in range(6, 16):
        assert cj.down_up_report(n).verdict is cj.Verdict.HOLDS_IN_RANGE


def test_down_up_matches_brute_force_values():
    for n in (6, 7):
        census = bf.dd_census(n)
        for row in cj.down_up_report(n).rows:
            _, i, left, right, _, status = row
            assert int(left) == census.get((i,), 0)
            assert int(right) == census.get((i + 1,), 0)
            assert status == "pass"


def test_ratio_monotonicity():
    report = cj.ratio_monotonicity_report(12)
    directions = {row[1]: row[4] for row in report.rows}
    assert directions[2] == ">"
    assert directions[3] == "<"
    assert report.verdict is cj.Verdict.HOLDS_IN_RANGE
    for n in range(8, 16):
        assert cj.ratio_monotonicity_report(n).verdict is (
            cj.Verdict.HOLDS_IN_RANGE
        )
    with pytest.raises(ValueError):
        cj.ratio_monotonicity_report(7)


def test_ratio_series_constant_for_equal_sets():
    report = cj.ratio_series_report((3,), (3,), 12)
    for row in report.rows:
        assert row[3].startswith("1.0000000000")
    assert report.verdict is cj.Verdict.INCONCLUSIVE


def test_ratio_series_starts_where_both_nonzero():
    report = cj.ratio_series_report((), (2, 5), 15)
    assert report.rows[0][0] == 6  # {2,5} first realizable at n = 6
    assert report.conjecture_id == "6.5"


def test_ratio_series_never_realizable():
    with pytest.raises(ValueError, match="dd\\(J;n\\) = 0"):
        cj.ratio_series_report((2,), (9,), 8)


def test_ratio_series_tail_spread_shrinks():
    late = cj.ratio_series_tail_spread((2,), (4,), 24)
    early = cj.ratio_series_tail_spread((2,), (4,), 12)
    assert late < early


def test_ratio_table_report():
    report = cj.ratio_table_report()
    assert report.verdict is cj.Verdict.HOLDS_IN_RANGE
    assert [row[0] for row in report.rows] == list(range(3, 10))


def test_report_serialization_roundtrip(tmp_path):
    report = cj.down_up_report(10)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    cj.write_report(report, "csv", csv_path)
    cj.write_report(report, "json", json_path)

    csv_text = csv_path.read_text()
    assert csv_text.splitlines()[0] == ",".join(report.columns)
    assert len(csv_text.splitlines()) == len(report.rows) + 1

    data = json.loads(json_path.read_text())
    cj.validate_report_dict(data)
    assert data["verdict"] == "HOLDS-IN-RANGE"
    assert data["rows"][0][0] == "10"

    with pytest.raises(ValueError):
        cj.validate_report_dict({"conjecture": "x"})
    with pytest.raises(ValueError):
        cj.write_report(report, "xml", tmp_path / "report.xml")


def test_report_bytes_are_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cj.write_report(cj.ratio_series_report((2,), (4,), 14), "csv", a)
    cj.write_report(cj.ratio_series_report((2,), (4,), 14), "csv", b)
    assert a.read_bytes() == b.read_bytes()
    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    cj.write_report(cj.equidistribution_report(12, Fraction(1, 4), Fraction(3, 4)),
                    "json", ja)
    cj.write_report(cj.equidistribution_report(12, Fraction(1, 4), Fraction(3, 4)),
                    "json", jb)
    assert ja.read_bytes() == jb.read_bytes()
