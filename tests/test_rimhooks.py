import itertools
import time

import pytest

from conftest import all_index_sets
from ddperm import bruteforce as bf
from ddperm import counting
from ddperm import rimhooks as rh
from ddperm.errors import CapExceeded


def test_composition_to_skew_examples():
    assert rh.format_skew(rh.RimHook((2, 1, 2, 2, 1))) == "(4,4,3,2,2)/(3,2,1,1)"
    assert rh.format_skew(rh.RimHook((1, 2, 2, 1))) == "(3,3,2,1)/(2,1)"
    assert rh.format_skew(rh.RimHook((6,))) == "(6)"
    assert rh.format_skew(rh.RimHook((1, 1, 1))) == "(1,1,1)"


def test_parse_skew_examples():
    assert rh.parse_skew("(3,2,1,1)/(1)").length == 6
    assert rh.parse_skew("(2,2,2,1)/(1,1)").rows == (1, 2, 1, 1)
    assert rh.parse_skew("(5)").rows == (5,)
    assert rh.parse_skew("(5)/()").rows == (5,)


def test_parse_and_validation_errors_are_distinct():
    with pytest.raises(rh.SkewParseError):
        rh.parse_skew("3,2,1")
    with pytest.raises(rh.SkewParseError):
        rh.parse_skew("(3,2,)/(1)")
    with pytest.raises(rh.SkewValidationError):
        rh.parse_skew("(2,2)/()")          # 2x2 block
    with pytest.raises(rh.SkewValidationError):
        rh.parse_skew("(3,1)/(2)")         # disconnected
    with pytest.raises(rh.SkewValidationError):
        rh.parse_skew("(1,2)")             # not weakly decreasing
    with pytest.raises(rh.SkewValidationError):
        rh.parse_skew("(2,2)/(2)")         # empty first row


def test_parse_format_roundtrip():
    for n in range(1, 9):
        for indices in all_index_sets(1, n - 1):
            hook = rh.from_descents(indices, n)
            assert rh.parse_skew(rh.format_skew(hook)) == hook


def test_descent_reading():
    # the tableau read off as [3,5,1,2,4] lives in the two-row hook with
    # bottom row 2 and top row 3
    hook = rh.RimHook((2, 3))
    assert hook.descent_positions() == (2,)
    assert rh.RimHook((7,)).descent_positions() == ()
    assert rh.RimHook((1,) * 6).descent_positions() == (1, 2, 3, 4, 5)


def test_double_descents_of_named_shapes():
    for text in ("(4,1,1)", "(3,2,1,1)/(1)", "(3,3,1,1)/(2)"):
        assert rh.parse_skew(text).double_descents() == (2,)
    assert rh.RimHook((2, 1, 2, 2, 1)).double_descents() == (3,)
    assert rh.RimHook((9,)).double_descents() == ()


def _standard_fillings(hook):
    """Brute-force standard fillings via the cell grid: every way to
    place 1..n so rows increase rightward and columns increase downward."""
    outer, inner = hook.outer_inner()
    inner = inner + (0,) * (len(outer) - len(inner))
    cells = [
        (row, col)
        for row, (lam, mu) in enumerate(zip(outer, inner))
        for col in range(mu, lam)
    ]
    n = len(cells)
    count = 0
    for values in itertools.permutations(range(1, n + 1)):
        grid = dict(zip(cells, values))
        ok = True
        for (row, col), value in grid.items():
            if (row, col + 1) in grid and grid[(row, col + 1)] < value:
                ok = False
                break
            if (row + 1, col) in grid and grid[(row + 1, col)] < value:
                ok = False
                break
        count += ok
    return count


def test_fillings_match_descent_class_counts():
    # every filling reads off as a permutation with the encoded descent
    # set, so the filling count equals the descent-class size
    for n in range(1, 7):
        for indices in all_index_sets(1, n - 1):
            hook = rh.from_descents(indices, n)
            assert _standard_fillings(hook) == bf.count_descents_exact(indices, n)
            assert rh.tableau_count(hook) == _standard_fillings(hook)


def test_reading_word_descents():
    # reading each filling bottom-left to top-right must reproduce the
    # encoded descent set; checked by filling with the class members
    for n in range(1, 7):
        census = {}
        for w in itertools.permutations(range(1, n + 1)):
            des = tuple(i for i in range(1, n) if w[i - 1] > w[i])
            census.setdefault(des, []).append(w)
        for indices, words in census.items():
            hook = rh.from_descents(indices, n)
            assert rh.tableau_count(hook) == len(words)


def test_enumeration_bijection_and_totality():
    for n in range(1, 13):
        hooks = [
            hook
            for indices in all_index_sets(2, n - 1)
            for hook in rh.enumerate_rimhooks(indices, n)
        ]
        assert len(hooks) == 2 ** (n - 1)
        assert len(set(hooks)) == 2 ** (n - 1)
        for hook in hooks:
            assert rh.from_descents(hook.descent_positions(), n) == hook


def test_enumerate_named_classes():
    shapes = {rh.format_skew(h) for h in rh.enumerate_rimhooks((2,), 6)}
    assert shapes == {"(3,2,1,1)/(1)", "(3,3,1,1)/(2)", "(4,1,1)"}
    assert len(rh.enumerate_rimhooks((), 6)) == 13
    full = tuple(range(2, 6))
    assert rh.enumerate_rimhooks(full, 6) == [rh.RimHook((1,) * 6)]
    with pytest.raises(CapExceeded):
        rh.enumerate_rimhooks((), 25)


def test_enumeration_matches_the_mask_scan():
    # the construction against a scan of every descent mask, order
    # included, and its lengths against the brute-force mask count
    for n in range(1, 15):
        scanned = {}
        for s in range(1 << (n - 1)):
            des = tuple(i for i in range(1, n) if s >> (i - 1) & 1)
            dd = tuple(i for i in des if i - 1 in des)
            scanned.setdefault(dd, []).append(rh.from_descents(des, n))
        for indices in all_index_sets(2, n - 1):
            hooks = rh.enumerate_rimhooks(indices, n)
            assert hooks == scanned.get(indices, []), (indices, n)
            if n <= 11:
                assert len(hooks) == bf.count_rimhooks_exact(indices, n)


def test_fibonacci_convention():
    assert [rh.fibonacci(k) for k in range(1, 12)] == [
        1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
    ]


def test_count_singleton():
    assert rh.count_singleton(2, 6) == 3
    assert rh.count_singleton(2, 3) == 1
    assert rh.count_singleton(3, 4) == 1
    with pytest.raises(ValueError):
        rh.count_singleton(1, 5)
    with pytest.raises(ValueError):
        rh.count_singleton(4, 4)
    for m in range(2, 9):
        for n in range(m + 1, 15):
            assert rh.count_singleton(m, n) == bf.count_rimhooks_exact((m,), n)


def test_count_singleton_seed_values():
    # the two shortest lengths have equal class sizes: every member of
    # the shortest class ends in three vertical squares, so exactly one
    # top-right extension keeps the double-descent set
    for m in range(2, 9):
        seed = rh.fibonacci(m - 1)
        assert bf.count_rimhooks_exact((m,), m + 1) == seed
        assert bf.count_rimhooks_exact((m,), m + 2) == seed


def test_count_empty():
    assert rh.count_empty(6) == 13
    assert rh.count_empty(2) == 2
    assert rh.count_empty(10) == 89
    with pytest.raises(ValueError):
        rh.count_empty(1)
    for n in range(2, 19):
        assert rh.count_empty(n) == rh.count_empty_binomial(n)
        assert rh.count_empty(n) == bf.count_rimhooks_exact((), n)


def test_count_empty_matches_binomial_sum_to_40():
    # F(n+1) = sum_k C(n-k+1, k-1): the same hooks counted by height
    for n in range(2, 41):
        assert rh.count_empty(n) == rh.count_empty_binomial(n), n


def test_recurrence_report():
    def size(indices, n):
        return len(rh.enumerate_rimhooks(indices, n))

    # #R_I(n) = #R_I(n-1) + #R_I(n-2) for max(I) + 3 <= n
    for indices, n_max in (((2,), 10), ((), 16)):
        m = max(indices, default=0)
        for n in range(m + 3, n_max + 1):
            assert size(indices, n) == size(indices, n - 1) + size(indices, n - 2), n
    # the singleton {2} class sizes follow the shifted Fibonacci pattern
    assert [size((2,), n) for n in range(3, 9)] == [
        rh.fibonacci(n - 2) for n in range(3, 9)
    ]
    # the seed identity #R_{m}(m+1) = #R_{m-1}(m) + #R_{m-2}(m-1) at m = 4
    assert size((4,), 5) == size((3,), 4) + size((2,), 3) == 2


def test_minimal_empty():
    assert rh.format_skew(rh.minimal_empty(4)) == "(3,3,2,1)/(2,1)"
    assert rh.format_skew(rh.minimal_empty(3)) == "(2,2,1)/(1)"
    assert rh.minimal_empty(1).rows == (1,)
    assert rh.minimal_empty(2).rows == (1, 1)
    for h in range(2, 9):
        hook = rh.minimal_empty(h)
        assert hook.length == 2 * h - 2
        assert hook.double_descents() == ()
    with pytest.raises(ValueError):
        rh.minimal_empty(0)


def test_minimal_empty_is_really_minimal():
    # nothing shorter of the same height has an empty double-descent set
    for h in range(1, 7):
        expected = rh.minimal_empty(h)
        found = rh.minimal_search((), h)
        assert found == expected


def test_minimal_search():
    hook = rh.minimal_search((3,), 5)
    assert hook is not None
    assert rh.format_skew(hook) == "(4,4,3,2,2)/(3,2,1,1)"
    assert hook.length == 8
    assert rh.minimal_search((2,), 2) is None


def test_realizable_is_nonzero_in_census():
    for n in range(3, 9):
        census = bf.dd_census(n)
        for indices in all_index_sets(2, n - 1):
            assert rh.realizable(indices) == (census.get(indices, 0) > 0), (
                indices, n)
    assert not rh.realizable((1,))


def test_minimal_search_early_none_agrees_with_walk():
    # the construction, and its early answer for unrealizable sets and
    # too-low heights, must be what walking every row tuple in order of
    # length, then lexicographically, up to the default length finds
    def walk(indices, h):
        for n in range(h, 2 * h + 2 * max(indices, default=0) + 3):
            for cuts in itertools.combinations(range(1, n), h - 1):
                if tuple(i for i in cuts if i - 1 in cuts) == indices:
                    return rh.from_descents(cuts, n)
        return None

    cases = [(indices, h) for h in range(1, 5) for indices in all_index_sets(1, 4)]
    cases += [(indices, h) for h in range(1, 8) for indices in all_index_sets(2, 6)
              if rh.realizable(indices)]
    for indices, h in cases:
        assert rh.minimal_search(indices, h) == walk(indices, h), (indices, h)


def test_minimal_search_walk_bound():
    # no minimal hook is shorter than 2h - 2 - |I| squares: an interior
    # row of one square puts a double descent at its end, so the other
    # h - 2 - |I| interior rows have two squares or more
    for h in range(1, 8):
        for indices in all_index_sets(2, 6):
            hook = rh.minimal_search(indices, h)
            if hook is not None:
                assert hook.length >= 2 * h - 2 - len(indices), (indices, h)


def test_minimal_search_refuses_past_the_length_cap():
    # max(I) + 2h bounds the hook's length; h is the largest height the
    # cap accepts for {3}
    h = (rh.MINIMAL_LENGTH_CAP - 3) // 2
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"up to {3 + 2 * h + 2} squares exceeds"):
        rh.minimal_search((3,), h + 1)
    hook = rh.minimal_search((3,), h)
    assert time.perf_counter() - start < 1
    assert hook.height == h and hook.double_descents() == (3,)
    assert hook.length == 2 * h - 2
    # the None answers come first, whatever the height
    assert rh.minimal_search((2, 4), 10**6) is None


def test_add_square():
    assert rh.add_square(rh.RimHook((2, 2, 3)), 2).rows == (2, 3, 3)
    assert rh.add_square(rh.RimHook((1,)), 1).rows == (2,)
    with pytest.raises(ValueError):
        rh.add_square(rh.RimHook((1, 2)), 3)
    # square addition can never create a 2x2 block: every result
    # round-trips through skew validation
    for n in range(1, 8):
        for indices in all_index_sets(1, n - 1):
            hook = rh.from_descents(indices, n)
            for row in range(1, hook.height + 1):
                grown = rh.add_square(hook, row)
                assert grown.length == n + 1
                outer, inner = grown.outer_inner()
                assert rh.from_skew(outer, inner) == grown


def test_extensions():
    ten = rh.extensions(rh.minimal_empty(4), 8)
    assert len(ten) == 10
    assert len(set(ten)) == 10
    assert all(hook.height == 4 for hook in ten)
    assert all(hook.double_descents() == () for hook in ten)
    assert rh.extensions(rh.minimal_empty(1), 5) == [rh.RimHook((5,))]
    with pytest.raises(ValueError):
        rh.extensions(rh.minimal_empty(4), 5)


def test_extensions_partition_the_empty_class():
    for n in range(2, 15):
        by_height = 0
        h = 1
        while rh.minimal_empty(h).length <= n:
            ext = rh.extensions(rh.minimal_empty(h), n)
            assert all(e.double_descents() == () for e in ext)
            by_height += len(ext)
            h += 1
        assert by_height == rh.count_empty(n)


def test_tableau_count():
    assert rh.tableau_count(rh.RimHook((5,))) == 1
    assert rh.tableau_count(rh.from_descents((2,), 5)) == 9
    hooks = rh.enumerate_rimhooks((2,), 6)
    total = sum(rh.tableau_count(h) for h in hooks)
    assert total == counting.dd_count((2,), 6)
    # only the reversal n..1 fills a single column
    assert rh.tableau_count(rh.RimHook((1,) * 26)) == 1
    # the alternating descent sets {2, 4, 6, ...} count the up-down
    # permutations: Euler zigzag numbers, from a boustrophedon triangle
    row, zigzag = [1], [1]
    for _ in range(40):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
        zigzag.append(row[-1])
    for n in range(1, 41):
        hook = rh.from_descents(range(2, n, 2), n)
        assert rh.tableau_count(hook) == zigzag[n], n


def test_dd_count_via_rimhooks():
    assert rh.dd_count_via_rimhooks((2,), 4) == 3
    assert rh.dd_count_via_rimhooks((), 4) == 17
    assert rh.dd_count_via_rimhooks((6,), 9) == 22419
    for n in range(1, 9):
        for indices in all_index_sets(2, n - 1):
            assert rh.dd_count_via_rimhooks(indices, n) == (
                counting.dd_count(indices, n)
            )


def test_dd_bounds():
    low, high = rh.dd_bounds((2,), 6)
    assert low <= counting.dd_count((2,), 6) <= high
    assert rh.dd_bounds((), 2) == (2, 2)
    low, high = rh.dd_bounds((3,), 6)
    assert low <= 66 <= high
    with pytest.raises(ValueError, match="no rim hooks"):
        rh.dd_bounds((2,), 2)


def test_ascii_rendering():
    art = rh.parse_skew("(3,2,1,1)/(1)").ascii()
    assert art == ".##\n##\n#\n#"
    assert rh.RimHook((3,)).ascii() == "###"


def test_rimhook_validation():
    with pytest.raises(ValueError):
        rh.RimHook(())
    with pytest.raises(ValueError):
        rh.RimHook((0, 2))
    with pytest.raises(ValueError):
        rh.from_descents((4,), 3)
