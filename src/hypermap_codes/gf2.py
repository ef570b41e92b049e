"""GF(2) boundary maps stored as per-qubit check pairs.

Every code and cell complex of a hypermap is a surface code, so each
column of a boundary map has at most two ones and the checks it meets
describe it whole.  A map is stored as the pair of those checks per
qubit: the sorted rows of its column padded with ``none``, the number of
checks, so ``(a, b)`` with a < b, ``(a, none)``, or ``(none, none)``
when the two coincide and cancel.  Pairs and columns of weight <= 2
correspond one to one, and the pairs read as a graph whose nodes are the
checks plus one virtual node and whose edges are the qubits.

This module is the one place that treats pairs as a matrix: it builds
them (:func:`check_pairs`), takes their spanning forests, whose sizes
are the ranks (:func:`forest`), and commutation tests (:func:`commutes`),
groups their qubits by check (:func:`rows`), writes their dense '0'/'1'
rows one at a time for the CLI and JSON export (:func:`dense_rows`), and
reads such rows back (:func:`read_rows`).  A dense matrix is built only as
text, and only up to :data:`BLOCK_BYTES`: :func:`dense_block` writes such
a small matrix in one scatter for the CLI.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

Pairs = tuple[tuple[int, int], ...]  # per qubit, see the module docstring

# The largest matrix text that dense_block and CellComplex.count_block make
# in one piece, and the largest piece of text the CLI joins for one write; a
# larger matrix is made a row at a time.
BLOCK_BYTES = 1 << 20


def check_pairs(qubits: Sequence[int], a_of: Sequence[int], b_of: Sequence[int],
                none: int) -> Pairs:
    """Each qubit's checks ``a_of[q]`` and ``b_of[q]``, ``(none, none)`` when they cancel."""
    pairs = []
    for q in qubits:
        a, b = a_of[q], b_of[q]
        pairs.append((a, b) if a < b else (b, a) if b < a else (none, none))
    return tuple(pairs)


def masks(pairs: Pairs, checks: int) -> list[int]:
    """Each qubit's checks in ``pairs`` as one bitmask, the padding bit left out.
    A mask spans up to ``checks`` bits, so the list takes memory of the order
    of qubits times checks: the commutation guard's cost on large codes."""
    mask = (1 << checks) - 1
    return [(1 << a ^ 1 << b) & mask for a, b in pairs]


def commutes(ends: Pairs, x_checks: int, z_masks: list[int]) -> bool:
    """Whether H_X * H_Z^T = 0, given each qubit's Z checks as a bitmask:
    no X check meets a Z check an odd number of times.  Each X check's
    parities are one mask as wide as the Z masks, so time and memory grow
    with checks times Z checks, not linearly (see :func:`masks`)."""
    odd = [0] * (x_checks + 1)  # the last collects the padding
    for (a, b), meets in zip(ends, z_masks):
        odd[a] ^= meets
        odd[b] ^= meets
    return not any(odd[:x_checks])


def forest(pairs: Pairs, checks: int) -> bytearray:
    """A spanning forest of the graph of ``pairs`` by union-find, as a mark per
    qubit: 1 for each qubit it takes.  Their count is the rank of the check
    matrix, since each other column sums the forest columns on its cycle.

    Any order of the qubits gives a spanning forest of the same size; this
    one runs from the last qubit back, which leaves the {4,4}_L edge code's
    distance search 2L-2 roots for d_X where the first-to-last forest needs
    2L (see :func:`~.css._roots`).
    """
    parent = list(range(checks + 1))
    taken = bytearray(len(pairs))
    j = len(pairs)
    for a, b in reversed(pairs):
        j -= 1
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            taken[j] = 1
    return taken


def rows(pairs: Pairs, checks: int, items: Iterable) -> list[list]:
    """Each check's row of ``pairs``, as the ``items`` of its qubits (one item
    per qubit, in qubit order), the padding row dropped."""
    by_check: list[list] = [[] for _ in range(checks + 1)]  # the last: the padding
    for item, (a, b) in zip(items, pairs):
        by_check[a].append(item)
        by_check[b].append(item)
    return by_check[:checks]


def dense_rows(pairs: Pairs, checks: int) -> Iterator[str]:
    """Each row of the checks x qubits matrix of ``pairs`` as a '0'/'1' string,
    one at a time: the qubits are grouped by check once (:func:`rows`), and
    each row is a copy of one all-zero line with a 1 set at each of its qubits."""
    zeros = b"0" * len(pairs)
    for qubits in rows(pairs, checks, range(len(pairs))):
        line = bytearray(zeros)
        for j in qubits:
            line[j] = 49  # ord("1")
        yield line.decode()


def dense_block(pairs: Pairs, checks: int) -> str | None:
    """The rows of :func:`dense_rows` as one text, each ended by a newline, or
    None when that text is over :data:`BLOCK_BYTES`.  One all-zero row is
    copied ``checks + 1`` times and a 1 set at each qubit's two checks, the
    last row taking the padding and being cut off: no grouping by check and
    no object per row."""
    width = len(pairs) + 1
    if checks * width > BLOCK_BYTES:
        return None
    block = bytearray(b"0" * len(pairs) + b"\n") * (checks + 1)
    for j, (a, b) in enumerate(pairs):
        block[a * width + j] = 49  # ord("1")
        block[b * width + j] = 49
    del block[checks * width:]
    return block.decode()


def read_rows(rows: Sequence[str], cols: int, name: str) -> Pairs:
    """The check pairs of the '0'/'1' rows ``rows``, each ``cols`` long: the
    inverse of :func:`dense_rows`.  ``ValueError`` names ``name`` for a
    column of three or more ones, which no pairs describe."""
    columns: list[list[int]] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        j = row.find("1")
        while j >= 0:
            columns[j].append(i)
            j = row.find("1", j + 1)
    for j, checks in enumerate(columns):
        if len(checks) > 2:
            raise ValueError(f"qubit {j + 1} lies in three or more checks of {name!r}")
    none = len(rows)
    return tuple([(*checks, none, none)[:2] for checks in columns])
