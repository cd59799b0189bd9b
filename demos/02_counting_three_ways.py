#!/usr/bin/env python3
"""Three independent routes to dd(I; n), and the singleton recursion.

The insertion dynamic program, the brute-force sweep of S_n, and the
sum of standard-filling counts over encoding rim hooks must agree
everywhere all three run.  The singleton recursion then rebuilds a
count from smaller data, and the ratio-table estimator gets within a
hair of it using no initial-ascent counts at all.
"""

from ddperm import bruteforce, counting, rimhooks
from ddperm.render import decimal_str, percent_str

CASES = [((2,), 4), ((), 5), ((3,), 6), ((2, 5), 7)]

print(f"{'set':>8} {'n':>3} {'dp':>8} {'brute':>8} {'rimhook':>8}")
for indices, n in CASES:
    dp = counting.dd_count(indices, n)
    brute = bruteforce.count_dd_exact(indices, n)
    hooks = rimhooks.dd_count_via_rimhooks(indices, n)
    label = "{" + ",".join(map(str, indices)) + "}"
    print(f"{label:>8} {n:>3} {dp:>8} {brute:>8} {hooks:>8}")
print()

# the dynamic program keeps going long after n! is out of reach
print("dd({10}; 60) =", counting.dd_count((10,), 60))
print()

# rebuilding dd({6}; 9) from shorter counts
first, second, third = counting.dd_singleton_parts(6, 8)
print("dd({6}; 9) by cases on where the maximum sits:")
print("  max right of the double descent:", first)
print("  max immediately left of it:     ", second)
print("  max farther left:               ", third)
print("  total:", first + second + third, "(= dd_count:",
      counting.dd_count((6,), 9), ")")
print()

# the estimator replaces the third case by ratio-table multiples
estimate = counting.dd_singleton_estimate(6, 8)
exact = counting.dd_count((6,), 9)
print("ratio-table estimate:", decimal_str(estimate, 3))
print("exact value:         ", exact)
print("off by:              ", percent_str(abs(estimate - exact) / exact))
