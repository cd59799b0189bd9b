"""Each counting route has one cap, a module constant that every entry
point reads when it is called, so changing the constant moves all of
its refusals together and the refusal prints the constant's value.
Every entry point also refuses a negative size with ``ValueError``."""

import pytest

from ddperm import bruteforce as bf
from ddperm import counting, errors, series
from ddperm import rimhooks as rh
from ddperm.errors import CapExceeded


@pytest.mark.parametrize("module, constant, calls", [
    (errors, "DP_CAP", (
        lambda n: counting.dd_count((), n),
        lambda n: counting.dd_ascent_count((), n),
        lambda n: counting.dd_counts((2,), n),
        lambda n: counting.dd_ascent_counts((), n),
        counting.dd_singleton_row,
        counting.dd_singleton_values,
        series.egf_no_dd,
        series.egf_no_dd_ascent,
        counting.no_dd_counts,
        counting.no_dd_ascent_counts,
    )),
    (rh, "DEFAULT_LIST_CAP", (
        lambda n: rh.enumerate_rimhooks((), n),
        lambda n: rh.dd_count_via_rimhooks((), n),
        lambda n: rh.dd_bounds((), n),
    )),
    (bf, "DEFAULT_CAP", (
        lambda n: bf.count_dd_exact((), n),
        lambda n: bf.count_descents_exact((), n),
        lambda n: bf.count_dd_ascent_exact((), n),
        bf.dd_census,
        # the circular scan runs over S_(n-1)
        lambda n: bf.count_circular_no_dd_exact(n + 1),
    )),
    # the mask cap bounds n - 1, the number of free descent positions
    (bf, "DEFAULT_MASK_CAP", (lambda n: bf.count_rimhooks_exact((), n + 1),)),
    (rh, "FORMULA_LENGTH_CAP", (
        rh.count_empty,
        rh.count_empty_binomial,
        lambda n: rh.count_singleton(2, n),
    )),
], ids=["dp", "rimhook-list", "brute", "rimhook-masks", "rimhook-formula"])
def test_each_refusal_reads_its_module_constant(monkeypatch, module, constant, calls):
    monkeypatch.setattr(module, constant, 5)
    for call in calls:
        call(5)
        with pytest.raises(CapExceeded, match=r"cap (n=|2\^)?5\b"):
            call(6)
        with pytest.raises(ValueError):
            call(-1)
