"""Straightforward GF(2), stabilizer and boundary code kept as test oracles.

These are the per-bit bodies that ``gf2``, ``css`` and ``chain`` used
before their bit-parallel rewrite: column-by-column Gauss-Jordan
elimination, a popcount per output entry, a string character per matrix
entry, a shift per qubit, and the mod-2 projection of the dense
expansion-count table.  The fast paths must return exactly what these do.
"""

from hypermap_codes import BitMatrix, transpose


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
