"""Exhaustive sweeps of small hypermaps.

Random corpora can miss degenerate shapes (fixed points everywhere,
single faces, self-glued cells).  Enumerating all 456 transitive pairs
up to 4 darts closes that gap for the full identity/equivalence battery
on every labelling; every hypermap up to 7 darts, once per isomorphism
class, closes it for every shape.
"""

import functools
import itertools

import pytest

from hypermap_codes import Hypermap, Permutation, is_transitive
from hypermap_codes.verify import VERIFY_CHECKS, Derived

# transitive pairs on n darts with a root, i.e. the subgroups of index n in the
# free group on two generators (Hall 1949), and the isomorphism classes of
# hypermaps on n darts (OEIS A057005), for n = 1..7
ROOTED_PAIR_COUNTS = (1, 3, 13, 71, 461, 3447, 29093)
CLASS_COUNTS = (1, 3, 7, 26, 97, 624, 4163)


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


def rooted_pairs(n):
    """Every transitive pair (alpha, sigma) on n darts labelled in breadth-first
    order from dart 0, each once: the low-index subgroups search (Sims,
    *Computation with finitely presented groups*, 1994, ch. 5).

    The images are filled dart by dart, alpha's before sigma's.  Each is a
    labelled dart that is no image yet under that permutation, or the next
    new label; a dart that no earlier image reached leaves the pair
    disconnected, so the search turns back.
    """
    images = ([0] * n, [0] * n)
    taken = ([False] * n, [False] * n)

    def fill(slot, labelled):
        if slot == 2 * n:
            yield tuple(images[0]), tuple(images[1])
            return
        dart, which = divmod(slot, 2)
        if dart >= labelled:
            return
        for image in range(min(labelled + 1, n)):
            if not taken[which][image]:
                images[which][dart] = image
                taken[which][image] = True
                yield from fill(slot + 1, max(labelled, image + 1))
                taken[which][image] = False

    return fill(0, 1)


def relabelled(alpha, sigma, root):
    """The pair relabelled in breadth-first order from ``root``, alpha's image first."""
    label = {root: 0}
    order = [root]
    for x in order:
        for p in (alpha, sigma):
            if p[x] not in label:
                label[p[x]] = len(order)
                order.append(p[x])
    return (tuple(label[alpha[x]] for x in order), tuple(label[sigma[x]] for x in order))


@functools.cache
def classes(n):
    """The rooted pairs on n darts and one pair per isomorphism class: the least
    breadth-first relabelling over all n roots."""
    pairs = list(rooted_pairs(n))
    return pairs, sorted({min(relabelled(a, s, root) for root in range(n)) for a, s in pairs})


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_counts_subgroups_and_hypermap_classes(n):
    pairs, representatives = classes(n)
    assert len(pairs) == len(set(pairs)) == ROOTED_PAIR_COUNTS[n - 1]
    assert all(relabelled(a, s, 0) == (a, s) for a, s in pairs)
    assert len(representatives) == CLASS_COUNTS[n - 1]


def test_every_check_on_every_hypermap_class_up_to_7_darts():
    assert len(VERIFY_CHECKS) == 17
    count = 0
    for n in range(1, 8):
        for alpha, sigma in classes(n)[1]:
            h = Hypermap(Permutation(alpha), Permutation(sigma))
            x = Derived(h)
            for name, check in VERIFY_CHECKS:
                assert check(x), f"{name} failed on {h!r}"
            count += 1
    assert count == 4921
