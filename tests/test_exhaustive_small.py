"""Exhaustive sweep of every hypermap with up to 4 darts.

Random corpora can miss degenerate shapes (fixed points everywhere,
single faces, self-glued cells); enumerating all 456 transitive pairs
closes that gap for the full identity/equivalence battery.
"""

import itertools

from hypermap_codes import Hypermap, Permutation, is_transitive
from hypermap_codes.verify import VERIFY_CHECKS, Derived


def all_hypermaps(max_n):
    for n in range(1, max_n + 1):
        perms = [Permutation(p) for p in itertools.permutations(range(n))]
        for a, s in itertools.product(perms, perms):
            if is_transitive(a, s):
                yield Hypermap(a, s)


def test_every_check_on_every_small_hypermap():
    count = 0
    for h in all_hypermaps(4):
        x = Derived(h)
        for name, check in VERIFY_CHECKS:
            assert check(x), f"{name} failed on {h!r}"
        count += 1
    assert count == 456
