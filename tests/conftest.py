import random
from pathlib import Path

import pytest

from hypermap_codes import Hypermap, Permutation, parse_cycles, random_corpus

DATA = Path(__file__).parent / "data"
TORUS8 = DATA / "torus8.hm"

# Seed shared by every corpus-driven test so failures reproduce exactly.
CORPUS_SEED = 7
CORPUS_SIZE = 500
CORPUS_MAX_DARTS = 10


@pytest.fixture(scope="session")
def torus8() -> Hypermap:
    """Genus-1 hypermap on 8 darts: 2 vertices, 2 edges, 4 faces."""
    alpha = parse_cycles("(4 3 2 1)(5 7 8 6)", 8)
    sigma = parse_cycles("(7 1 6 3)(5 2 8 4)", 8)
    return Hypermap(alpha, sigma)


@pytest.fixture(scope="session")
def corpus() -> list[Hypermap]:
    return random_corpus(CORPUS_SIZE, CORPUS_MAX_DARTS, CORPUS_SEED)


# The PSL(2,p) maps (p, (a, s, m)) that tests draw with psl2_hypermap at
# PSL2_SEED: the Klein quartic, a map whose edges have three darts, and a
# (2,3,7) map of genus 14.
PSL2_ROWS = ((7, (2, 3, 7)), (7, (3, 3, 4)), (13, (2, 3, 7)))
PSL2_SEED = 0


@pytest.fixture(scope="session")
def psl2_maps() -> dict[tuple[int, tuple[int, int, int]], Hypermap]:
    return {row: psl2_hypermap(*row, PSL2_SEED) for row in PSL2_ROWS}


def square_torus(size: int) -> Hypermap:
    """The square-lattice torus {4,4}_L with 4L^2 darts.

    Dart ``4 * (x + L * y) + k`` leaves vertex (x, y) eastward, northward,
    westward or southward for k = 0..3; sigma turns it a quarter to the
    left and alpha swaps the two halves of each edge.  Its face code is
    the [[2L^2, 2, L]] toric code.
    """
    def dart(x: int, y: int, k: int) -> int:
        return 4 * (x % size + size * (y % size)) + k

    alpha = [0] * (4 * size * size)
    sigma = [0] * (4 * size * size)
    for x in range(size):
        for y in range(size):
            for k in range(4):
                sigma[dart(x, y, k)] = dart(x, y, (k + 1) % 4)
            for k, far in ((0, dart(x + 1, y, 2)), (1, dart(x, y + 1, 3))):
                alpha[dart(x, y, k)] = far
                alpha[far] = dart(x, y, k)
    return Hypermap(Permutation(tuple(alpha)), Permutation(tuple(sigma)))


def psl2_hypermap(p: int, orders: tuple[int, int, int], seed: int) -> Hypermap:
    """A regular hypermap on the p(p^2-1)/2 elements of PSL(2,p), p prime.

    Its darts are the group elements, 2x2 matrices of determinant 1 mod p
    taken up to sign, numbered in breadth-first order from the identity;
    alpha and sigma are right multiplication by A and S.  With ``orders``
    (a, s, m), A is drawn of order a and S of order s with A^-1 S, which
    steps a face (``Hypermap.faces``), of order m, redrawn until A and S
    generate the whole group.  So every edge has a darts, every vertex s and
    every face m, and the counts give the genus in closed form.
    """
    a, s, m = orders
    rng = random.Random(seed)

    def norm(x):
        return min(x, tuple(-v % p for v in x))

    def mul(x, y):
        return norm(((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
                     (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p))

    one = (1, 0, 0, 1)

    def order(x):
        k, y = 1, x
        while y != one:
            k, y = k + 1, mul(y, x)
        return k

    def draw(k):
        while True:
            x = tuple(rng.randrange(p) for _ in range(4))
            if (x[0] * x[3] - x[1] * x[2]) % p == 1 and order(norm(x)) == k:
                return norm(x)

    size = p * (p * p - 1) // 2
    while True:
        alpha_gen = draw(a)
        inverse = norm((alpha_gen[3], -alpha_gen[1] % p, -alpha_gen[2] % p, alpha_gen[0]))
        sigma_gen = draw(s)
        if order(mul(inverse, sigma_gen)) != m:
            continue
        index, elements = {one: 0}, [one]
        for x in elements:  # grows while it is walked: a breadth-first closure
            for g in (alpha_gen, sigma_gen):
                if (y := mul(x, g)) not in index:
                    index[y] = len(elements)
                    elements.append(y)
        if len(elements) == size:
            alpha = tuple(index[mul(x, alpha_gen)] for x in elements)
            sigma = tuple(index[mul(x, sigma_gen)] for x in elements)
            return Hypermap(Permutation(alpha), Permutation(sigma))


def plane_star(edges: int) -> Hypermap:
    """The star with ``edges`` edges drawn in the plane: 2 * edges darts.

    Dart ``i`` leaves the centre along edge ``i`` and dart ``edges + i``
    is its leaf end.  It has genus 0 and one face, so its face code has
    k = 0 on ``edges`` qubits and its full code k = edges - 1.
    """
    alpha = tuple((i + edges) % (2 * edges) for i in range(2 * edges))
    sigma = tuple((i + 1) % edges if i < edges else i for i in range(2 * edges))
    return Hypermap(Permutation(alpha), Permutation(sigma))
