"""Straightforward GF(2), stabilizer and boundary code kept as test oracles.

These are the per-bit bodies that ``gf2``, ``css`` and ``chain`` used
before their bit-parallel rewrite: column-by-column Gauss-Jordan
elimination, a popcount per output entry, a string character per matrix
entry, a shift per qubit, and the walk of every Z-orbit that expands each
special dart into the rest of its eliminating orbit, with the mod-2
projection of the resulting count table.  The orbit build of a hypermap
is kept too: a union-find transitivity test, then one cycle walk per
orbit family, a composed face permutation and a second pass per family
for the dart -> orbit index.  The fast paths must return exactly what
these do.
"""

from hypermap_codes import PER_EDGE, BitMatrix, compose, inverse, transpose


def echelon(bits, cols):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    work = list(bits)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def echelon_form(m):
    work, pivots = echelon(m.bits, m.cols)
    return BitMatrix(m.rows, m.cols, tuple(work)), tuple(pivots)


def rank(m):
    return len(echelon(m.bits, m.cols)[1])


def kernel_basis(m):
    work, pivots = echelon(m.bits, m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for r, c in enumerate(pivots):
            if (work[r] >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


def in_row_space(m, v):
    work, pivots = echelon(m.bits, m.cols)
    for r, c in enumerate(pivots):
        if (v >> c) & 1:
            v ^= work[r]
    return v == 0


def multiply(a, b):
    bt = transpose(b)
    bits = []
    for row in a.bits:
        out = 0
        for j, col in enumerate(bt.bits):
            if (row & col).bit_count() & 1:
                out |= 1 << j
        bits.append(out)
    return BitMatrix(a.rows, b.cols, tuple(bits))


def to_strings(m):
    return ["".join("1" if (row >> j) & 1 else "0" for j in range(m.cols)) for row in m.bits]


def render(m):
    return "\n".join(to_strings(m))


def stabilizer_strings(c):
    if c.n == 0:
        return []
    out = []
    for i, row in enumerate(c.hx.bits):
        support = " ".join(f"X{c.qubit_labels[j] + 1}" for j in range(c.n) if (row >> j) & 1)
        out.append(f"X_v{i + 1} = {support or 'I'}")
    z_prefix = c.z_axis[0]
    for i, row in enumerate(c.hz.bits):
        support = " ".join(f"Z{c.qubit_labels[j] + 1}" for j in range(c.n) if (row >> j) & 1)
        out.append(f"Z_{z_prefix}{i + 1} = {support or 'I'}")
    return out


def mod2_projection(counts, cols):
    """The qubits x Z-orbits count table reduced mod 2, one bitmask per row."""
    bits = tuple(sum(1 << j for j, c in enumerate(row) if c & 1) for row in counts)
    return BitMatrix(len(bits), cols, bits)


def _quotient_qubits(h, s):
    return tuple(i for i in range(h.n) if i not in s.darts)


def _expansion_hits(h, s, qubits):
    """Yield (qubit row, Z column) once per unit of expansion count.

    Columns are the Z-axis orbits (faces for a per-edge set, edges for a
    per-face set).  A column starts from the orbit's darts and each
    special dart is replaced by the other darts of its own eliminating
    orbit (its edge for per-edge, its face for per-face).
    """
    if s.kind == PER_EDGE:
        z_orbits, eliminating, orbit_of = h.faces, h.edges, h.edge_of
    else:
        z_orbits, eliminating, orbit_of = h.edges, h.faces, h.face_of
    row_of = {dart: r for r, dart in enumerate(qubits)}
    for j, orbit in enumerate(z_orbits):
        for dart in orbit:
            if dart not in s.darts:
                yield row_of[dart], j
            else:
                for other in eliminating[orbit_of(dart)]:
                    if other != dart:
                        yield row_of[other], j


def expansion_counts(h, s):
    """Natural-number boundary counts over the non-special-dart basis.

    Rows are the non-special darts in increasing order; columns are the
    Z-axis orbits, expanded as in :func:`_expansion_hits`.  Counts are
    not reduced mod 2: a dart hit twice in one column records 2.  The
    special set must be valid; this walker does not check it.
    """
    qubits = _quotient_qubits(h, s)
    width = len(h.faces) if s.kind == PER_EDGE else len(h.edges)
    counts = [[0] * width for _ in qubits]
    for r, j in _expansion_hits(h, s, qubits):
        counts[r][j] += 1
    return tuple(tuple(row) for row in counts)


def cycle_decomposition(p):
    seen = [False] * p.degree
    cycles = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        pos = p.images[start]
        while pos != start:
            cycle.append(pos)
            seen[pos] = True
            pos = p.images[pos]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def orbit_index(orbits, n):
    index = [0] * n
    for k, orbit in enumerate(orbits):
        for dart in orbit:
            index[dart] = k
    return tuple(index)


def connected_components(p, q):
    """Orbits of the group generated by p and q by union-find, sorted by minimum."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    parent = list(range(p.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(p.degree):
        for j in (p.images[i], q.images[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(p.degree):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def orbit_build(alpha, sigma):
    """(components, orbits): the vertex, edge and face cycles followed by
    their index maps, or None for orbits when the pair is not transitive."""
    components = connected_components(alpha, sigma)
    if len(components) > 1:
        return components, None
    families = (cycle_decomposition(sigma), cycle_decomposition(alpha),
                cycle_decomposition(compose(inverse(alpha), sigma)))
    return components, families + tuple(orbit_index(f, alpha.degree) for f in families)
