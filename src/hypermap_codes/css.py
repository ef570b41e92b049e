"""CSS code assembly, stabilizer rendering, and exact distance search.

Every code built from a hypermap is a surface code: each column of
``H_X`` and of ``H_Z`` has at most two ones.  A minimum-weight logical
operator is then a shortest homologically non-trivial cycle in the graph
whose nodes are the check rows and whose edges are the qubits.
:func:`distance` labels the qubits with k bits from a tree-cotree
decomposition (Eppstein 2003; Erickson & Whittlesey 2005) and finds the
cycle with one breadth-first search per endpoint of a labelled qubit.  A
check matrix with a column of three or more ones is no graph, and
:func:`distance` refuses it.
"""

from __future__ import annotations

from . import gf2
from .chain import EDGE, QuotientCode
from .gf2 import BitMatrix
from .perm import _Record


class CommutationError(RuntimeError):
    """H_X and H_Z fail to commute; impossible for codes built upstream."""


class DistanceResult(_Record):
    """Outcome of a minimum-weight logical-operator search: four stored facts.

    ``dx``/``dz`` are the per-class minima, or None when that class has no
    logical operator of weight <= budget; ``no_logicals`` marks k = 0.  The
    derived ``d`` is their minimum; it is ``exact`` unless both classes exceed
    the budget, when every logical operator weighs at least budget + 1.
    """

    __slots__ = ("dx", "dz", "no_logicals", "budget")

    def __init__(self, dx: int | None, dz: int | None, no_logicals: bool, budget: int):
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dz", dz)
        object.__setattr__(self, "no_logicals", no_logicals)
        object.__setattr__(self, "budget", budget)

    @property
    def d(self) -> int | None:
        return min((w for w in (self.dx, self.dz) if w is not None), default=None)

    @property
    def exact(self) -> bool:
        return self.no_logicals or self.d is not None


class CssCode(_Record):
    """A CSS stabilizer code with its hypermap bookkeeping.

    ``hx`` is X-checks x qubits, ``hz`` is Z-checks x qubits, and
    hx * hz^T = 0.  ``qubit_labels`` are the dart labels carrying the
    qubits; ``x_labels``/``z_labels`` are the orbit minima naming the
    check rows, with ``z_axis`` recording whether the Z checks come from
    faces or edges.
    """

    __slots__ = ("hx", "hz", "qubit_labels", "x_labels", "z_labels", "z_axis", "n", "k", "d")

    def __init__(self, hx: BitMatrix, hz: BitMatrix, qubit_labels: tuple[int, ...],
                 x_labels: tuple[int, ...], z_labels: tuple[int, ...], z_axis: str,
                 n: int, k: int, d: DistanceResult | None = None):
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hz", hz)
        object.__setattr__(self, "qubit_labels", qubit_labels)
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "z_labels", z_labels)
        object.__setattr__(self, "z_axis", z_axis)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)


def assemble(q: QuotientCode) -> CssCode:
    """Assemble the CSS code of a quotient complex.

    H_X is the vertex boundary and H_Z the transpose of the Z-axis
    boundary; the logical count is n minus the two check ranks.  The
    commutation check is a guard against upstream bugs: it cannot fire
    for a well-formed quotient complex.
    """
    hx = q.boundary1
    hz = gf2.transpose(q.boundary2)
    if not gf2.is_zero(gf2.multiply(hx, q.boundary2)):
        raise CommutationError("H_X * H_Z^T != 0; quotient complex is broken")
    n = len(q.qubit_labels)
    k = n - gf2.rank(hx) - gf2.rank(hz)
    return CssCode(
        hx=hx,
        hz=hz,
        qubit_labels=q.qubit_labels,
        x_labels=q.x_labels,
        z_labels=q.z_labels,
        z_axis="edge" if q.kind == EDGE else "face",
        n=n,
        k=k,
    )


def stabilizer_strings(c: CssCode) -> list[str]:
    """One generator description per check row, e.g. ``X_v1 = X1 X3``.

    Qubit labels are rendered 1-based; X generators are named after
    vertices, Z generators after the faces or edges indexing them.  A
    code with no qubits has no operators to describe.
    """
    if c.n == 0:
        return []
    out = []
    for pauli, prefix, m in (("X", "v", c.hx), ("Z", c.z_axis[0], c.hz)):
        names = [f"{pauli}{label + 1}" for label in c.qubit_labels]
        for i, row in enumerate(m.bits):
            support = []
            while row:
                low = row & -row
                support.append(names[low.bit_length() - 1])
                row ^= low
            out.append(f"{pauli}_{prefix}{i + 1} = {' '.join(support) or 'I'}")
    return out


_Graph = tuple[list[list[tuple[int, int]]], list[int]]


def _qubit_graph(check: BitMatrix) -> _Graph:
    """The qubits of ``check`` as edges between its rows.

    Node ``i`` is row ``i`` and node ``check.rows`` is a virtual node.  A
    column with ones in rows ``a`` and ``b`` is an edge ``a``-``b``, a
    column with a single one in row ``a`` an edge ``a``-virtual, and an
    all-zero column a loop.  Then ker(check) is exactly the cycle space:
    an edge set with even degree at every row has even degree at the
    virtual node too, since the degrees sum to twice the edge count, and
    rowspace(check) is the cut space, spanned by the rows' edge stars.
    Returns ``(adjacency, loops)``: ``adjacency[u]`` lists ``(qubit,
    neighbour)`` pairs and ``loops`` the all-zero columns.  Raises
    ``ValueError`` when some column has three or more ones, so the matrix
    is no graph.
    """
    first = [-1] * check.cols
    second = [-1] * check.cols
    for i, row in enumerate(check.bits):
        while row:
            low = row & -row
            j = low.bit_length() - 1
            if first[j] < 0:
                first[j] = i
            elif second[j] < 0:
                second[j] = i
            else:
                raise ValueError(f"qubit {j + 1} lies in three or more checks; "
                                 "distance needs a surface code")
            row ^= low
    virtual = check.rows
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(virtual + 1)]
    loops = []
    for j, (a, b) in enumerate(zip(first, second)):
        if a < 0:
            loops.append(j)
            continue
        if b < 0:
            b = virtual
        adjacency[a].append((j, b))
        adjacency[b].append((j, a))
    return adjacency, loops


def _forest(adjacency: list[list[tuple[int, int]]],
            skip: bytearray) -> tuple[list[int], list[int], list[int]]:
    """A breadth-first spanning forest over the qubits ``j`` with ``skip[j] == 0``.

    Returns ``(order, via, up)``: the nodes in visiting order, and per node
    the qubit and the node it was reached from, both -1 at a root.
    """
    nodes = len(adjacency)
    via = [-1] * nodes
    up = [-1] * nodes
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
                if not seen[w] and not skip[j]:
                    seen[w] = 1
                    via[w] = j
                    up[w] = u
                    order.append(w)
    return order, via, up


def _cotree_labels(graph: _Graph, other: _Graph, n: int) -> list[int]:
    """Per-qubit logical labels of k bits for the cycles of ``graph``.

    ``graph`` and ``other`` are :func:`_qubit_graph` of ``check`` and of
    ``other`` on the same ``n`` qubits.  A spanning forest T of ``graph``
    is taken first, then a spanning forest C of ``other`` over the qubits
    outside T; each of the k qubits in neither gets its own bit, which is
    also XORed onto the qubits of the path in C between its ends, by one
    pass over C from the leaves up.  Bit ``i`` of the labels then marks
    the fundamental cycle w_i of C through the ``i``-th left-over qubit,
    and a cycle of ``graph`` is a logical operator exactly when the XOR
    of its labels, its pairings with the w_i, is non-zero: see
    :func:`_min_cycle_weight`.
    """
    used = bytearray(n)  # the qubits of T, then of T and C
    for j in _forest(graph[0], used)[1]:
        if j >= 0:
            used[j] = 1
    order, via, up = _forest(other[0], used)
    for j in via:
        if j >= 0:
            used[j] = 1
    labels = [0] * n
    bits = 0
    for j in range(n):
        if not used[j]:
            labels[j] = 1 << bits
            bits += 1
    below = [0] * len(other[0])  # XOR of the left-over bits at each node, then its subtree
    for u, edges in enumerate(other[0]):
        for j, _ in edges:
            below[u] ^= labels[j]
    for x in reversed(order):
        if via[x] >= 0:
            labels[via[x]] = below[x]
            below[up[x]] ^= below[x]
    return labels


def _min_cycle_weight(graph: _Graph, labels: list[int], budget: int) -> int | None:
    """Minimum weight over ker(check) \\ rowspace(other), if <= budget.

    ``graph`` is :func:`_qubit_graph` of ``check`` and ``labels`` is
    :func:`_cotree_labels` of ``graph`` and the graph of ``other``.  The
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
    labelled qubit, so the searches start only at the ends of labelled
    qubits.  Candidates from depth ``t`` weigh at least ``2t + 1``, so
    each search stops once that exceeds ``min(budget, best - 1)``.
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
    for root in range(nodes):
        if limit < 2:  # no cycle of the graph is lighter than 2
            break
        if not any(labels[j] for j, _ in adjacency[root]):
            continue
        dist[root] = 0
        lab[root] = 0
        via[root] = -1
        frontier = [root]
        reached = [root]
        depth = 0
        while frontier and 2 * depth + 1 <= limit:
            nxt = []
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
            reached += nxt
            frontier = nxt
            depth += 1
        for u in reached:
            dist[u] = -1
    return best


def distance(c: CssCode, budget: int | None = None) -> DistanceResult:
    """Exact minimum distance by a shortest non-trivial cycle search.

    d_X is the minimum weight over ker(H_Z) outside the row space of H_X,
    d_Z the mirror image, and d their minimum.  Every column of both
    check matrices must have at most two ones, as in every code built
    from a hypermap; each class minimum is then a shortest cycle with a
    non-zero label in the graph of checks and qubits (see
    :func:`_min_cycle_weight`), exact at any qubit count.  The default
    budget is the qubit count, which makes the result exact; a smaller
    one stops the search early and, when nothing is found, certifies only
    that every logical operator is heavier.  A code with k = 0 reports no
    weights.  Raises ``ValueError`` for a negative budget or a check
    matrix with a column of three or more ones.  The result is a pure
    function of the inputs.
    """
    budget = c.n if budget is None else budget
    if budget < 0:
        raise ValueError(f"distance budget must be >= 0, got {budget}")
    gx, gz = _qubit_graph(c.hx), _qubit_graph(c.hz)
    if c.k == 0:
        return DistanceResult(dx=None, dz=None, no_logicals=True, budget=budget)
    return DistanceResult(dx=_min_cycle_weight(gz, _cotree_labels(gz, gx, c.n), budget),
                          dz=_min_cycle_weight(gx, _cotree_labels(gx, gz, c.n), budget),
                          no_logicals=False, budget=budget)
