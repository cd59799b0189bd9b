import json
import random
from fractions import Fraction

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import conjectures as cj
from ddperm import cli, counting, errors
from ddperm.errors import CapExceeded
from ddperm.render import decimal_str


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
        cj.singleton_table(errors.DP_CAP + 1)
    with pytest.raises(CapExceeded):
        cj.ratio_series_report((2,), (4,), n_max=errors.DP_CAP + 1)


def test_ratio_series_rows_are_the_per_n_dp():
    report = cj.ratio_series_report((3, 7), (5, 9, 10), 40)
    for n, num, den, _, _ in report.rows:
        assert int(num) == counting.dd_count((3, 7), n)
        assert int(den) == counting.dd_count((5, 9, 10), n)


def test_window_bounds_match_the_fraction_test():
    # every m for the benchmark's three windows, seeded windows and m else
    cases = [(Fraction(a), Fraction(b), m)
             for a, b in (("1/4", "3/4"), ("1/3", "2/3"), ("1/5", "4/5"))
             for m in range(2, 301)]
    rng = random.Random(11)
    for _ in range(300):
        a, b = sorted(rng.sample(range(1, 97), 2))
        cases.append((Fraction(a, 97), Fraction(b, 97), rng.randint(2, 300)))
    for alpha, beta, m in cases:
        inside = [i for i in range(2, m) if alpha * m < i < beta * m]
        lo, hi = cj._window_bounds(alpha, beta, m)
        assert list(range(lo, hi + 1)) == inside, (alpha, beta, m)


def test_equidistribution_sweep_cap():
    report = cj.equidistribution_report(70, Fraction(1, 5), Fraction(4, 5))
    assert len(report.rows) == 67
    assert cj.EQUIDIST_CAP >= 70
    with pytest.raises(CapExceeded, match="6.1 sweep to n=1000: 997 lengths exceed"):
        cj.equidistribution_report(1000, Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(ValueError, match="n >= n_min = 4, got n=3"):
        cj.equidistribution_report(3, Fraction(1, 4), Fraction(3, 4))


def test_equidistribution_window_arithmetic():
    report = cj.equidistribution_report(6, Fraction(2, 5), Fraction(3, 5))
    last = report.rows[-1]
    # the open window (2.4, 3.6) contains i = 3 only
    assert last[1] == counting.dd_count((3,), 6)
    share = Fraction(int(last[2]), int(last[3]))
    total = sum(cj.singleton_table(6).values())
    assert share == Fraction(1, 5) * total


WINDOWS = [(Fraction(a), Fraction(b)) for a, b in (
    ("1/4", "3/4"), ("1/3", "2/3"), ("1/5", "4/5"), ("3/10", "7/20"),
    ("1/7", "1/2"), ("1/100", "99/100"), ("2/5", "3/5"))]


def _row_route_report(n, alpha, beta, n_min, tables):
    """Rows and verdict of a 6.1 report summed from whole singleton rows
    (``tables[m]``) with Fraction arithmetic: the oracle for the report."""
    width = beta - alpha
    rows, pairs = [], []
    for m in range(n_min, n + 1):
        table = tables[m]
        total = sum(table.values())
        inside = [v for i, v in table.items() if alpha * m < i < beta * m]
        if not inside or total == 0:
            rows.append((m, "", "", "", "", "empty"))
            continue
        share = width * total
        pairs.append(Fraction(sum(inside)) / share)
        rows.append((m, sum(inside), share.numerator, share.denominator,
                     decimal_str(pairs[-1], cj.PLACES), ""))
    head = pairs[: len(pairs) // 2]
    supported = (len(pairs) >= 2 and abs(pairs[-1] - 1) <= Fraction(1, 5)
                 and abs(pairs[-1] - 1) <= max(abs(r - 1) for r in head))
    return tuple(rows), supported


def test_equidistribution_tail_route_matches_row_oracle():
    # the rows from the per-m DP, not from the closed-form rows the
    # report reads
    tables = {m: {i: counting.dd_count((i,), m) for i in range(2, m)}
              for m in range(81)}
    for n_min in (1, 2, 4, 10):
        for alpha, beta in WINDOWS:
            # every row up to length 80; the verdict at a few sweep ends
            for n in (n_min, n_min + 1, 2 * n_min + 7, 23, 80):
                report = cj.equidistribution_report(n, alpha, beta, n_min)
                rows, supported = _row_route_report(n, alpha, beta, n_min, tables)
                assert report.rows == rows, (n_min, alpha, beta, n)
                assert (report.verdict is cj.Verdict.HOLDS_IN_RANGE) == supported


def test_equidistribution_clamped_empty_and_one_position_windows():
    # at m = 6, (1/100, 99/100) reaches below position 2, (2/5, 3/5)
    # holds position 3 only and (40/100, 42/100) holds none
    cases = {(Fraction(1, 100), Fraction(99, 100)): [2, 3, 4, 5],
             (Fraction(2, 5), Fraction(3, 5)): [3],
             (Fraction(40, 100), Fraction(42, 100)): []}
    for (alpha, beta), inside in cases.items():
        assert [i for i in range(2, 6) if alpha * 6 < i < beta * 6] == inside
        report = cj.equidistribution_report(6, alpha, beta, n_min=6)
        (row,) = report.rows
        if not inside:
            assert row == (6, "", "", "", "", "empty")
            continue
        total = sum(counting.dd_count((i,), 6) for i in range(2, 6))
        assert row[1] == sum(counting.dd_count((i,), 6) for i in inside)
        assert Fraction(row[2], row[3]) == (beta - alpha) * total


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


def _tail_spread(report):
    tail = [Fraction(num, den) for _, num, den, _, _ in report.rows[-5:]]
    return max(tail) - min(tail)


def test_ratio_series_tail_spread_shrinks():
    late = cj.ratio_series_report((2,), (4,), 24)
    early = cj.ratio_series_report((2,), (4,), 12)
    assert _tail_spread(late) < _tail_spread(early)
    # the note quotes the spread of the report's own last five rows
    assert late.notes[1] == ("max spread over last 5 rows: "
                             + decimal_str(_tail_spread(late), cj.PLACES))


def test_counts_stay_positive_once_realizable():
    # appending n+1 keeps the double-descent set, so no 6.5 row meets a
    # zero denominator and no 6.3 cross product a zero count
    for indices in all_index_sets(2, 12):
        if len(indices) > 3:
            continue
        counts = counting.dd_counts(indices, 60)
        first = next((n for n, v in enumerate(counts) if v), None)
        if first is not None:  # realizable
            assert all(counts[first:]), indices
    for n in range(3, 61):
        assert all(cj.singleton_table(n).values()), n


def _break_singleton_table(monkeypatch, n, patch):
    """Serve the singleton row of length n with the entries of ``patch``
    replaced; returns the patched row."""
    table = {**cj.singleton_table(n), **patch}
    monkeypatch.setattr(cj, "singleton_table", lambda _: table)
    return table


@pytest.mark.parametrize("conjecture_id", ["6.2", "6.3"])
def test_alternation_violation_names_the_first_failing_row(
        monkeypatch, capsys, conjecture_id):
    t = cj.singleton_table(12)
    if conjecture_id == "6.2":
        # dd({5}) = dd({6}) breaks the odd-i rise at i = 5 only
        t = _break_singleton_table(monkeypatch, 12, {5: t[6]})
        report = cj.down_up_report(12)
        i, left, right, expected = 5, t[5], t[6], "<"
    else:
        # a small dd({7}) breaks the even-i cross products at i = 4 only
        t = _break_singleton_table(monkeypatch, 12, {7: t[5] * t[6] // t[4]})
        report = cj.ratio_monotonicity_report(12)
        i, left, right, expected = 4, t[4] * t[7], t[6] * t[5], ">"
    assert report.verdict is cj.Verdict.VIOLATED
    assert report.witness == {"n": 12, "i": i, "left": left, "right": right,
                              "expected": expected}
    assert [row[1] for row in report.rows if row[-1] == "FAIL"] == [i]
    assert report.rows[i - 2] == (12, i, left, right, expected, "FAIL")
    assert cli.main(["conjecture", "run", "--id", conjecture_id, "--n", "12"]) == 1
    out, err = capsys.readouterr()
    assert err == "verdict: VIOLATED\n"
    assert out == cj.report_text(report, "csv")


def test_ratio_table_report():
    report = cj.ratio_table_report()
    assert report.verdict is cj.Verdict.HOLDS_IN_RANGE
    assert [row[0] for row in report.rows] == list(range(3, 10))


COUNT_COLUMNS = {"window_sum", "share_num", "share_den", "dd_i", "dd_i_plus_1",
                 "cross_left", "cross_right", "dd_I", "dd_J"}


def test_report_cells_hold_exact_ints():
    reports = [
        cj.equidistribution_report(12, Fraction(40, 100), Fraction(42, 100)),
        cj.equidistribution_report(12, Fraction(1, 4), Fraction(3, 4)),
        cj.down_up_report(10), cj.ratio_monotonicity_report(12),
        cj.ratio_series_report((2,), (4,), 14), cj.ratio_series_report((), (2, 5), 14),
        cj.ratio_table_report(),
    ]
    kinds = set()
    for report in reports:
        for row in report.rows:
            for column, cell in zip(report.columns, row):
                if column in ("n", "i", "m") or column in COUNT_COLUMNS and cell != "":
                    assert type(cell) is int, (report.conjecture_id, column, cell)
                else:  # ratios, verdict words and empty cells
                    assert type(cell) is str, (report.conjecture_id, column, cell)
                kinds.add((column in COUNT_COLUMNS, type(cell)))
    assert kinds == {(True, int), (True, str), (False, int), (False, str)}


def test_report_serialization_roundtrip():
    report = cj.down_up_report(10)
    csv_lines = cj.report_text(report, "csv").splitlines()
    assert csv_lines[0] == ",".join(report.columns)
    assert len(csv_lines) == len(report.rows) + 1

    data = json.loads(cj.report_text(report, "json"))
    assert list(data) == ["conjecture", "n_range", "columns", "rows",
                          "verdict", "witness", "notes"]
    assert data["n_range"] == [10, 10]
    assert data["columns"] == list(report.columns)
    assert all(len(row) == len(report.columns) for row in data["rows"])
    assert all(type(cell) is str for row in data["rows"] for cell in row)
    assert data["verdict"] == "HOLDS-IN-RANGE"
    assert data["rows"][0][0] == "10"

    with pytest.raises(ValueError):
        cj.report_text(report, "xml")


def test_report_bytes_are_deterministic():
    a, b = (cj.report_text(cj.ratio_series_report((2,), (4,), 14), "csv").encode()
            for _ in range(2))
    assert a == b
    ja, jb = (cj.report_text(cj.equidistribution_report(
        12, Fraction(1, 4), Fraction(3, 4)), "json").encode() for _ in range(2))
    assert ja == jb
