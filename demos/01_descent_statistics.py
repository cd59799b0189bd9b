#!/usr/bin/env python3
"""Descents, double descents, and peaks on small words.

A descent of w is a position i with w_i > w_{i+1}; a double descent
needs two in a row (w_{i-1} > w_i > w_{i+1}); a peak is a local
maximum.  This script walks through the statistics on a few words and
then lists a full double-descent class of S_4.
"""

import itertools

from ddperm import descent_set, double_descent_set, peak_set

WORD = (1, 7, 3, 2, 6, 4, 5)

print("word:", WORD)
print("  descents:       ", descent_set(WORD))
print("  double descents:", double_descent_set(WORD))
print("  peaks:          ", peak_set(WORD))
print()

print("extremes at n = 5:")
print("  identity   ->", double_descent_set((1, 2, 3, 4, 5)), "(no descents at all)")
print("  reversal   ->", double_descent_set((5, 4, 3, 2, 1)), "(descends everywhere)")
print()

print("the class DD({2}; 4): every w in S_4 whose double-descent set is {2}")
for w in itertools.permutations(range(1, 5)):
    if double_descent_set(w) == (2,):
        print("  ", list(w))
print()
print("three words, matching dd({2};4) = 3")
