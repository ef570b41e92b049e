"""Stabilizer rendering and exact distance search for the codes of :mod:`.chain`.

Every code built from a hypermap is a surface code, stored as the
per-qubit check pairs of :mod:`~hypermap_codes.gf2`: a graph whose
nodes are the checks plus one virtual node and whose edges are the
qubits.  A minimum-weight logical operator is a shortest homologically
non-trivial cycle of the graph.  :func:`distance` labels the qubits with k bits
from a tree-cotree decomposition (Eppstein 2003; Erickson & Whittlesey
2005), whose trees are the union-find forests that the read of
``QuotientCode.k`` keeps, and finds the cycle with one breadth-first
search from one end of each labelled qubit, a vertex cover, deleting
each root after its search.
"""

from __future__ import annotations

from itertools import compress

from .chain import EDGE, QuotientCode
from .gf2 import Pairs, rows
from .perm import _Record

# Largest n*k that :func:`distance` searches: it holds a k-bit label per qubit.
DISTANCE_LABEL_BITS = 2**31


class DistanceResult(_Record):
    """Outcome of a minimum-weight logical-operator search: four stored facts.

    ``dx``/``dz`` are the per-class minima, or None when that class has no
    logical operator of weight <= budget; ``no_logicals`` marks k = 0.  The
    derived ``d`` is their minimum; it is ``exact`` unless both classes exceed
    the budget, when every logical operator weighs at least budget + 1.
    """

    __slots__ = ("dx", "dz", "no_logicals", "budget")

    def __init__(self, dx: int | None, dz: int | None, no_logicals: bool, budget: int):
        self._fill(dx, dz, no_logicals, budget)

    @property
    def d(self) -> int | None:
        return min((w for w in (self.dx, self.dz) if w is not None), default=None)

    @property
    def exact(self) -> bool:
        return self.no_logicals or self.d is not None


def stabilizer_strings(c: QuotientCode) -> list[str]:
    """One generator description per check row, e.g. ``X_v1 = X1 X3``.

    Qubit labels are rendered 1-based; X generators are named after
    vertices, Z generators after the faces or edges indexing them.  A
    code with no qubits has no operators to describe.  Each label's text
    is made once for both Paulis and grouped by check (:func:`~.gf2.rows`),
    and a row is joined with its Pauli letter in the separator.
    """
    if c.n == 0:
        return []
    names = [str(label + 1) for label in c.qubit_labels]
    out = []
    z_prefix = "e" if c.kind == EDGE else "f"
    for pauli, prefix, pairs, checks in (("X", "v", c.ends, len(c.x_labels)),
                                         ("Z", z_prefix, c.sides, len(c.z_labels))):
        sep = " " + pauli
        out += [f"{pauli}_{prefix}{i} = {pauli + sep.join(row) if row else 'I'}"
                for i, row in enumerate(rows(pairs, checks, names), 1)]
    return out


_Graph = tuple[list[list[tuple[int, int]]], list[int]]


def _qubit_graph(pairs: Pairs, checks: int) -> _Graph:
    """The qubits of ``pairs`` as edges between their checks.

    Node ``i`` is check ``i`` and node ``checks`` is a virtual node, so a
    qubit ``(a, b)`` is an edge ``a``-``b``, one ``(a, none)`` an edge
    ``a``-virtual, and one ``(none, none)`` a loop.  Then ker(check) is
    exactly the cycle space: an edge set with even degree at every check
    has even degree at the virtual node too, since the degrees sum to twice
    the edge count, and rowspace(check) is the cut space, spanned by the
    checks' edge stars.  Returns ``(adjacency, loops)``: ``adjacency[u]``
    lists ``(qubit, neighbour)`` pairs and ``loops`` the loop qubits.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(checks + 1)]
    loops = []
    for j, (a, b) in enumerate(pairs):
        if a == checks:
            loops.append(j)
            continue
        adjacency[a].append((j, b))
        adjacency[b].append((j, a))
    return adjacency, loops


def _forest(adjacency: list[list[tuple[int, int]]],
            used: bytearray) -> tuple[list[int], list[int]]:
    """A breadth-first spanning forest over the qubits ``j`` with ``used[j] == 0``,
    each marked in ``used`` as it is taken.

    Returns ``(order, via)``: the nodes in visiting order, and per node the
    qubit it was reached by (from that qubit's other end), -1 at a root.
    """
    nodes = len(adjacency)
    via = [-1] * nodes
    seen = bytearray(nodes)
    order: list[int] = []
    for root in range(nodes):
        if seen[root]:
            continue
        seen[root] = 1
        i = len(order)
        order.append(root)
        while i < len(order):
            u = order[i]
            i += 1
            for j, w in adjacency[u]:
                if not seen[w] and not used[j]:
                    seen[w] = 1
                    used[j] = 1
                    via[w] = j
                    order.append(w)
    return order, via


def _cotree_labels(tree: bytearray, other: _Graph, other_pairs: Pairs) -> list[int]:
    """Per-qubit logical labels of k bits for the cycles of a graph.

    ``tree`` marks the qubits of a spanning forest T of that graph, such as
    :func:`~.gf2.forest` of its pairs, and ``other`` is :func:`_qubit_graph`
    of ``other_pairs``, the other check matrix on the same qubits.  A
    breadth-first spanning forest C of ``other`` over the qubits outside T
    is grown; each of the k qubits in neither gets its own bit, which is
    also XORed onto the qubits of the path in C between its ends, by one
    pass over C from the leaves up (a node ``x``'s parent is ``a ^ b ^ x``
    over the pair of its qubit in C).  Bit ``i`` of the labels then marks
    the fundamental cycle w_i of C through the ``i``-th left-over qubit,
    and a cycle of the graph is a logical operator exactly when the XOR
    of its labels, its pairings with the w_i, is non-zero: see
    :func:`_min_cycle_weight`.
    """
    used = bytearray(tree)  # the qubits of T, then of T and C
    order, via = _forest(other[0], used)
    labels = [0] * len(tree)
    below = [0] * len(other[0])  # XOR of the left-over bits at each node, then its subtree
    bit = 1
    j = used.find(0)
    while j >= 0:  # the left-over qubits; a loop's bit cancels at its one node
        labels[j] = bit
        a, b = other_pairs[j]
        below[a] ^= bit
        below[b] ^= bit
        bit <<= 1
        j = used.find(0, j + 1)
    for x in reversed(order):
        if (j := via[x]) >= 0:
            labels[j] = below[x]
            a, b = other_pairs[j]
            below[a ^ b ^ x] ^= below[x]
    return labels


def _min_cycle_weight(graph: _Graph, pairs: Pairs, labels: list[int],
                      budget: int) -> int | None:
    """Minimum weight over ker(check) \\ rowspace(other), if <= budget.

    ``graph`` is :func:`_qubit_graph` of ``pairs``, those of ``check``, and
    ``labels`` is :func:`_cotree_labels` of any spanning forest T of
    ``graph`` and the graph of ``other``.  The
    labels are exact: rowspace(check) is the cut space of ``graph``, and
    each tree qubit of T lies in exactly one fundamental cut, so each
    coset of ker(other) / rowspace(check) has exactly one member that is
    zero on T.  Those members are the cycles of ``other``'s graph that
    avoid T, the cycle space that C's fundamental cycles w_i span.  A
    cycle v of ``graph`` is orthogonal to rowspace(check), so v lies in
    rowspace(other) = ker(other)^perp exactly when it is orthogonal to
    every w_i, that is when the XOR of its labels is zero.  A labelled
    loop has weight 1.  Otherwise a breadth-first search pairs each
    non-tree edge ``u``-``w`` with the tree paths to its ends: when their
    labels XOR to non-zero, the closed walk has weight
    ``dist[u] + dist[w] + 1`` and its mod-2 edge set is a logical
    operator at most that heavy, so no candidate undercuts the minimum.
    Conversely the non-zero labels satisfy the 3-path condition
    (Thomassen 1990): for a shortest non-trivial cycle through the root,
    every shorter closed walk has label zero, so the tree paths to the
    ends of one of its middle edges carry the cycle's own labels and the
    search meets the cycle exactly.  Every non-trivial cycle contains a
    labelled qubit, so the searches start only at the roots of
    :func:`_roots`, which cover every labelled qubit, and each root is
    deleted after its search: no later search enters it.  This stays
    exact.  A shortest non-trivial cycle meets a root; at the first root
    it meets, it avoids every root deleted before, so it lies in the graph
    that is left, where it is still shortest and its labels still XOR to
    non-zero, and that root's search meets it.  New candidates from depth
    ``t`` weigh at least ``2t + 1`` (2 at depth 0: one closed from a node
    of depth ``t - 1`` was met at that depth), so each search stops once
    that exceeds ``min(budget, best - 1)``, and at once when a candidate
    weighs just that.
    """
    adjacency, loops = graph
    if budget < 1:
        return None
    if any(labels[j] for j in loops):
        return 1
    best = None
    limit = budget
    nodes = len(adjacency)
    dist = [-1] * nodes
    lab = [0] * nodes
    via = [-1] * nodes
    deleted = budget + 1  # a distance past every limit: no search enters or closes there
    for root in _roots(adjacency, pairs, labels, dist):
        if limit < 2:  # no cycle of the graph is lighter than 2
            break
        dist[root] = 0
        lab[root] = 0
        via[root] = -1
        frontier = [root]
        levels = [frontier]  # each reached level, the last one perhaps in part
        depth = 0
        while frontier and 2 * depth + 1 <= limit:
            floor = 2 * depth + 1 if depth else 2  # the lightest candidate this level
            nxt = []
            levels.append(nxt)
            for u in frontier:
                lu = lab[u]
                pu = via[u]
                for j, w in adjacency[u]:
                    if j == pu:
                        continue
                    lw = lu ^ labels[j]
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = depth + 1
                        lab[w] = lw
                        via[w] = j
                        nxt.append(w)
                    elif lw != lab[w] and depth + dw + 1 <= limit:
                        best = depth + dw + 1
                        limit = best - 1
                        if best == floor:
                            break
                if limit < floor:  # this search can meet nothing lighter
                    break
            frontier = nxt
            depth += 1
        for level in levels:
            for u in level:
                dist[u] = -1
        dist[root] = deleted
    return best


def _roots(adjacency: list[list[tuple[int, int]]], pairs: Pairs, labels: list[int],
           dist: list[int]):
    """The roots of :func:`_min_cycle_weight`, a greedy vertex cover of the
    labelled qubits taken lazily: each check, most labelled qubits first and
    ties in node order, that has a labelled qubit whose other end is not yet
    deleted (``dist`` -1 there; the caller deletes each root after its search).
    The counts are read from the ``pairs`` of the labelled qubits alone.
    Every labelled qubit but a loop has a check at one end, so the virtual node,
    whose search spreads widest, is not needed.  In node order the {4,4}_L edge
    code took 2L+2 roots at even L >= 8; in this order it takes 2L-1 for d_Z
    and, with the trees of :func:`~.gf2.forest`, 2L-2 for d_X."""
    checks = len(adjacency) - 1
    counts = [0] * (checks + 1)  # labelled qubits at each node, the virtual one last
    for j in compress(range(len(labels)), labels):
        a, b = pairs[j]
        counts[a] += 1
        counts[b] += 1
    for u in sorted(compress(range(checks), counts), key=counts.__getitem__, reverse=True):
        if any(labels[j] for j, w in adjacency[u] if dist[w] < 0):
            yield u


def distance(c: QuotientCode, budget: int | None = None) -> DistanceResult:
    """Exact minimum distance by a shortest non-trivial cycle search.

    d_X is the minimum weight over ker(H_Z) outside the row space of H_X,
    d_Z the mirror image, and d their minimum.  Each class minimum is a
    shortest cycle with a non-zero label in the graph of checks and
    qubits (see :func:`_min_cycle_weight`), exact at any qubit count.  The
    read of ``c.k`` runs the commutation guard and keeps the spanning
    forests of both check graphs, which are the trees of the labels.  The
    default budget is the qubit count, which makes the result exact; a
    smaller one stops the search early and, when nothing is found,
    certifies only that every logical operator is heavier.  A code with
    k = 0 reports no weights.  Raises ``ValueError`` for a negative budget,
    and for k > 0 and ``n*k`` over :data:`DISTANCE_LABEL_BITS`, before any
    label is built.  The result is a pure function of the inputs.
    """
    budget = c.n if budget is None else budget
    if budget < 0:
        raise ValueError(f"distance budget must be >= 0, got {budget}")
    if (k := c.k) == 0:
        return DistanceResult(dx=None, dz=None, no_logicals=True, budget=budget)
    if c.n * k > DISTANCE_LABEL_BITS:
        raise ValueError(f"distance search on n = {c.n} qubits with k = {k} holds "
                         f"{c.n * k} label bits, over the limit of {DISTANCE_LABEL_BITS}")
    x_tree, z_tree = c._forests  # filled by the read of k
    gx, gz = _qubit_graph(c.ends, len(c.x_labels)), _qubit_graph(c.sides, len(c.z_labels))
    dx = _min_cycle_weight(gz, c.sides, _cotree_labels(z_tree, gx, c.ends), budget)
    dz = _min_cycle_weight(gx, c.ends, _cotree_labels(x_tree, gz, c.sides), budget)
    return DistanceResult(dx=dx, dz=dz, no_logicals=False, budget=budget)
