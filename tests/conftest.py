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


def plane_star(edges: int) -> Hypermap:
    """The star with ``edges`` edges drawn in the plane: 2 * edges darts.

    Dart ``i`` leaves the centre along edge ``i`` and dart ``edges + i``
    is its leaf end.  It has genus 0 and one face, so its face code has
    k = 0 on ``edges`` qubits and its full code k = edges - 1.
    """
    alpha = tuple((i + edges) % (2 * edges) for i in range(2 * edges))
    sigma = tuple((i + 1) % edges if i < edges else i for i in range(2 * edges))
    return Hypermap(Permutation(alpha), Permutation(sigma))
