"""Straightforward GF(2), stabilizer and boundary code kept as test oracles.

These are the per-bit bodies that ``gf2``, ``css`` and ``chain`` used
before their bit-parallel rewrite: column-by-column Gauss-Jordan
elimination, a popcount per output entry, a string character per matrix
entry, a shift per qubit, and the walk of every Z-orbit that expands each
special dart into the rest of its eliminating orbit, with the mod-2
projection of the resulting count table.  The face and edge codes are
kept as they were built before they read the orbit index tables: each
tail vertex found through ``inverse(alpha)`` and the special sides held
in a dict.  The orbit build of a hypermap
is kept too: a union-find transitivity test, then one cycle walk per
orbit family, a composed face permutation and a second pass per family
for the dart -> orbit index.  The dual, triangle dual, contrary and nabla
are kept as they were built before they skipped validation: new
permutations, each validated, through the ``Hypermap`` constructor,
which searches transitivity.  The
verify suite is kept as it ran before its checks shared a per-map
record and before it checked each distinct map once: check by check over
the corpus, each predicate taking the hypermap and building every derived
map and code it needs itself, and comparing orbit partitions as sets
(``same_orbits``) where the library compares canonical index tables.  The special-set check is kept as it intersected
the chosen set with every orbit, before it counted hits through the
dart -> orbit table, and the unquotiented complex (d2, d1, iota) as three
matrices built from the orbit cycles.  Special sets are plain sets of
darts, as in the library.  The codes store per-qubit check pairs; the
boundary matrices are rebuilt from them one entry at a time
(``pair_matrix``, ``boundary1``, ``boundary2``), the pairs read back off
a matrix column by column (``matrix_pairs``), and ranks come from the
Gauss-Jordan elimination, never from a spanning forest.  The
cycle-notation parser is kept as the character walker it was before the
grammar scan, and its grammar as the regular expression the library
matched (``CYCLE_TEXT``) before it checked the text's shape with ``str``
scans.  The surface reduction is kept as the dense 1-cells x 2-cells
count table, with its mod-2 projection, validation and ``reduce`` row
rendering, and the sparse count rows as they were rendered before they
were streamed: each cut from one all-zero line by string slices
(``splice_count_lines``); ``reduce_to_surface(h, s)`` and
``validate_surface(c, h, s)`` are kept as they were when each built the
face code of the special set itself.  The distance search is kept twice:
as the exhaustive search over combinations of kernel-basis vectors,
exact for any CSS code, and as the cycle search that labelled each qubit
by its pairing with a kernel basis of the other check matrix and started
a breadth-first search at every node.  Its qubit labels are kept as
they were taken before the search reused the union-find forests of
``QuotientCode.k``: a breadth-first tree of the searched graph, then a
breadth-first cotree of the other, each marked in a pass of its own
(``bfs_cotree_labels``).  The matrix product
(``multiply``, a popcount per output entry) and ``is_zero`` live only
here: the library tests every chain condition on check pairs
(``gf2.commutes``) and multiplies no matrices.  The library keeps no
matrix type either: ``BitMatrix`` and ``from_strings`` below are the
bit-packed matrix and its row parser as ``gf2`` held them, and ``hx``,
``hz``, ``incidence10`` and ``incidence21`` the dense views that codes
and complexes once had.  The CLI's ``--special`` parse is kept as it was
before the flag read its labels as one list: argparse converting each
label through ``dart_label``, then ``DistinctDarts`` naming the first
repeat and storing the 0-based dart set (``per_label_parser``).  The
hypermap text parser is kept as the line parser it was when a second
reader took the files ``format_hypermap`` writes: every field's column worked out as its line is read, and the
``special:`` line read label by label, its cycles through the character
walker ``parse_cycles`` below (``parse_lines``).  The three label
readers (``parse_cycles``, the ``special:`` line of ``parse_lines`` and
``dart_label``) keep their logic but speak the texts of the library's one
label rule: ``'x' is not a decimal label``, ``9 outside 1..8``, ``of 11
digits outside 1..8`` and a repeat named by its value; ``dart_label`` also
refuses a label outside 1..MAX_DARTS, as the flag does.  They, and the line
parser's refusals of a key or a dart count, quote a refused string as the
library does (``quoted``), and the special-set check lists bad orbits as the
library does, whole up to 64 labels and then their count.  The CLI's
argparse parser is kept as it was written by hand, before one table
described every command (``reference_parser``).  The fast paths
must return exactly what these do.
"""

import argparse
import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass

from hypermap_codes import (
    EDGE,
    FACE,
    FULL,
    MAX_DARTS,
    CellComplex,
    CheckResult,
    CycleParseError,
    Hypermap,
    ParseError,
    Permutation,
    QuotientCode,
    SpecialDartError,
    SurfaceReport,
    compose,
    contrary,
    dual,
    edge_code,
    euler_characteristic,
    face_code,
    full_code,
    inverse,
    nabla,
    random_corpus,
    triangle_dual,
)
from hypermap_codes import cli
from hypermap_codes.cli import (
    DEFAULT_DISTANCE_BUDGET,
    _cmd_transform,
    cmd_code,
    cmd_distance,
    cmd_export,
    cmd_info,
    cmd_random,
    cmd_reduce,
    cmd_verify,
)
from hypermap_codes.perm import _Record, _read_labels, decimal_value
from hypermap_codes.verify import CheckOutcome, VerificationReport


class BitMatrix(_Record):
    """A rows x cols matrix over GF(2), one int bitmask per row."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows, cols, bits):
        bits = tuple(bits)
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise ValueError(f"matrix shape {rows!r} x {cols!r} is not two integers >= 0")
        if len(bits) != rows:
            raise ValueError(f"expected {rows} row masks, got {len(bits)}")
        mask = (1 << cols) - 1
        for i, row in enumerate(bits):
            if type(row) is not int:
                raise ValueError(f"row {i} mask {row!r} is not an integer")
            if row < 0 or row & ~mask:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_bits(self, bits)

    def get(self, i, j):
        return (self.bits[i] >> j) & 1


_set_rows, _set_cols, _set_bits = BitMatrix._stores


def from_strings(rows, cols=None):
    """Build from '0'/'1' row strings, e.g. ["110", "011"]."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    bits = []
    for row in rows:
        if not isinstance(row, str) or len(row) != cols or row.strip("01"):
            raise ValueError(f"bad matrix row {row!r}")
        bits.append(int(row[::-1], 2) if cols else 0)
    return BitMatrix(len(bits), cols, tuple(bits))


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


def transpose(m):
    return BitMatrix(m.cols, m.rows, tuple(
        sum(((row >> j) & 1) << i for i, row in enumerate(m.bits)) for j in range(m.cols)))


def as_partition(cycles):
    """Forget cyclic order: the orbits as an unordered set partition."""
    return frozenset(frozenset(c) for c in cycles)


def pair_matrix(pairs, checks):
    """The checks x qubits matrix of per-qubit check pairs padded with
    ``checks``, one entry at a time."""
    bits = [0] * checks
    for j, pair in enumerate(pairs):
        for i in pair:
            if i != checks:
                bits[i] ^= 1 << j
    return BitMatrix(checks, len(pairs), tuple(bits))


def matrix_pairs(m):
    """The per-qubit check pairs of a checks x qubits matrix whose columns
    have at most two ones, column by column."""
    pairs = []
    for j in range(m.cols):
        rows = [i for i in range(m.rows) if (m.bits[i] >> j) & 1]
        assert len(rows) <= 2, rows
        pairs.append(tuple(rows + [m.rows] * (2 - len(rows))))
    return tuple(pairs)


def boundary1(q):
    """X checks x qubits: the vertex boundary of a quotient code or CSS code."""
    return pair_matrix(q.ends, len(q.x_labels))


def boundary2(q):
    """Qubits x Z checks: the qubit-major view of the sides."""
    return transpose(hz(q))


def hx(c):
    """X checks x qubits of a code: its ``ends`` as a matrix, as ``boundary1``."""
    return boundary1(c)


def hz(c):
    """Z checks x qubits of a code: its ``sides`` as a matrix."""
    return pair_matrix(c.sides, len(c.z_labels))


def incidence10(c):
    """0-cells x 1-cells of a cell complex: its ``ends`` as a matrix."""
    return pair_matrix(c.ends, len(c.zero_cells))


def incidence21(c):
    """1-cells x 2-cells of a cell complex: its sparse ``counts21`` as dense rows."""
    rows = [[0] * len(c.two_cells) for _ in c.counts21]
    for row, pairs in zip(rows, c.counts21):
        for j, v in pairs:
            row[j] = v
    return tuple(map(tuple, rows))


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


def mat_vec(m, v):
    """Product m*v with v a column vector packed as an int."""
    out = 0
    for i, row in enumerate(m.bits):
        if (row & v).bit_count() & 1:
            out |= 1 << i
    return out


def is_zero(m):
    return not any(m.bits)


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
    for i, row in enumerate(boundary1(c).bits):
        support = " ".join(f"X{c.qubit_labels[j] + 1}" for j in range(c.n) if (row >> j) & 1)
        out.append(f"X_v{i + 1} = {support or 'I'}")
    z_prefix = "e" if c.kind == EDGE else "f"  # the JSON z_axis: edges, else faces
    for i, row in enumerate(pair_matrix(c.sides, len(c.z_labels)).bits):
        support = " ".join(f"Z{c.qubit_labels[j] + 1}" for j in range(c.n) if (row >> j) & 1)
        out.append(f"Z_{z_prefix}{i + 1} = {support or 'I'}")
    return out


def mod2_projection(counts, cols):
    """The qubits x Z-orbits count table reduced mod 2, one bitmask per row."""
    bits = tuple(sum(1 << j for j, c in enumerate(row) if c & 1) for row in counts)
    return BitMatrix(len(bits), cols, bits)


def _quotient_qubits(h, s):
    return tuple(i for i in range(h.n) if i not in s)


def _expansion_hits(h, s, kind, qubits):
    """Yield (qubit row, Z column) once per unit of expansion count.

    Columns are the Z-axis orbits (faces for a face code, edges for an
    edge code).  A column starts from the orbit's darts and each
    special dart is replaced by the other darts of its own eliminating
    orbit (its edge for a face code, its face for an edge code).
    """
    if kind == FACE:
        z_orbits, eliminating, orbit_of = h.faces, h.edges, h.edge_index.__getitem__
    else:
        z_orbits, eliminating, orbit_of = h.edges, h.faces, h.face_index.__getitem__
    row_of = {dart: r for r, dart in enumerate(qubits)}
    for j, orbit in enumerate(z_orbits):
        for dart in orbit:
            if dart not in s:
                yield row_of[dart], j
            else:
                for other in eliminating[orbit_of(dart)]:
                    if other != dart:
                        yield row_of[other], j


def expansion_counts(h, s, kind):
    """Natural-number boundary counts of the ``kind`` code over the
    non-special-dart basis.

    Rows are the non-special darts in increasing order; columns are the
    Z-axis orbits, expanded as in :func:`_expansion_hits`.  Counts are
    not reduced mod 2: a dart hit twice in one column records 2.  The
    special set must be valid; this walker does not check it.
    """
    qubits = _quotient_qubits(h, s)
    width = len(h.faces) if kind == FACE else len(h.edges)
    counts = [[0] * width for _ in qubits]
    for r, j in _expansion_hits(h, s, kind, qubits):
        counts[r][j] += 1
    return tuple(tuple(row) for row in counts)


def endpoint_matrix(h, qubits):
    """Vertex boundary of the given darts, each tail found through inverse(alpha)."""
    alpha_inv = inverse(h.alpha)
    bits = [0] * len(h.vertices)
    for col, dart in enumerate(qubits):
        head = h.vertex_index[dart]
        tail = h.vertex_index[alpha_inv(dart)]
        if head != tail:
            bits[head] |= 1 << col
            bits[tail] |= 1 << col
    return BitMatrix(len(h.vertices), len(qubits), tuple(bits))


def quotient_code(h, s, kind):
    """The face or edge code of the special set ``s``, its special sides kept
    in a dict by orbit."""
    s = special_darts(h, s, kind)
    if kind == FACE:
        z_orbits, z_of, eliminating_of = h.faces, h.face_index, h.edge_index
    else:
        z_orbits, z_of, eliminating_of = h.edges, h.edge_index, h.face_index
    special_side = {eliminating_of[dart]: 1 << z_of[dart] for dart in s}
    qubits = tuple(i for i in range(h.n) if i not in s)
    b2_bits = tuple((1 << z_of[q]) ^ special_side[eliminating_of[q]] for q in qubits)
    boundary2 = BitMatrix(len(qubits), len(z_orbits), b2_bits)
    return QuotientCode(
        kind=kind,
        special=s,
        qubit_labels=qubits,
        ends=matrix_pairs(endpoint_matrix(h, qubits)),
        sides=matrix_pairs(transpose(boundary2)),
        z_labels=tuple(min(o) for o in z_orbits),
        x_labels=tuple(min(o) for o in h.vertices),
    )


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


# ---------------------------------------------------------------------------
# special darts and orbit partitions, as sets

def special_darts(h, darts, kind):
    """The special-set check of a ``kind`` code, one dart per edge for a face
    code and per face for an edge code, as it intersected the chosen set
    with every orbit."""
    chosen = frozenset(darts)
    for dart in chosen:
        if not 0 <= dart < h.n:
            raise SpecialDartError(f"dart {dart + 1} outside 1..{h.n}")
    orbits = h.edges if kind == FACE else h.faces
    name = "edge" if kind == FACE else "face"
    bad = []
    for orbit in orbits:
        hits = chosen.intersection(orbit)
        if len(hits) != 1:
            bad.append((orbit, len(hits)))
    if bad:
        listed, room = [], 64  # whole orbits up to 64 labels, then the count of bad orbits
        for orbit, hits in bad:
            if len(orbit) > room:
                listed.append(f"... ({len(bad)} {name} orbits)")
                break
            listed.append(
                f"{name} orbit {{{' '.join(str(i + 1) for i in orbit)}}} has {hits} special darts")
            room -= len(orbit)
        raise SpecialDartError(f"not a valid per-{name} special set: {'; '.join(listed)}")
    return chosen


def raw_complex(h):
    """The unquotiented boundary and inclusion matrices (d2, d1, iota), each
    built from the orbit cycles and validated."""
    def incidence(orbits):  # darts x orbits
        bits = [0] * h.n
        for j, orbit in enumerate(orbits):
            for dart in orbit:
                bits[dart] |= 1 << j
        return BitMatrix(h.n, len(orbits), tuple(bits))
    return incidence(h.faces), endpoint_matrix(h, range(h.n)), incidence(h.edges)


def same_orbits(a, b):
    """Whether ``a`` and ``b`` have the same vertex, edge and face partitions."""
    return all(as_partition(getattr(a, family)) == as_partition(getattr(b, family))
               for family in ("vertices", "edges", "faces"))


# ---------------------------------------------------------------------------
# the derived maps, each a validating build of its permutation pair

def _inverse(p):
    inv = [0] * p.degree
    for i, pi in enumerate(p.images):
        inv[pi] = i
    return Permutation(tuple(inv))


def _compose(p, q):
    return Permutation(tuple(q.images[x] for x in p.images))


def validated_dual(h):
    alpha_inv = _inverse(h.alpha)
    return Hypermap(alpha_inv, _compose(alpha_inv, h.sigma))


def validated_triangle_dual(h):
    sigma_inv = _inverse(h.sigma)
    return Hypermap(_compose(sigma_inv, h.alpha), sigma_inv)


def validated_contrary(h):
    return Hypermap(Permutation(h.sigma.images), Permutation(h.alpha.images))


def validated_nabla(h):
    return validated_contrary(validated_triangle_dual(h))


# ---------------------------------------------------------------------------
# the verify suite, check-major, each predicate on the hypermap itself

def _same_partitions(a, b):
    return as_partition(a) == as_partition(b)


def _check_dual_involution(h):
    return dual(dual(h)) == h


def _check_dual_preserves_edges(h):
    return _same_partitions(dual(h).edges, h.edges)


def _check_dual_swaps_vertices_faces(h):
    d = dual(h)
    return (_same_partitions(d.vertices, h.faces)
            and _same_partitions(d.faces, h.vertices))


def _check_triangle_dual_involution(h):
    return triangle_dual(triangle_dual(h)) == h


def _check_triangle_dual_preserves_vertices(h):
    return _same_partitions(triangle_dual(h).vertices, h.vertices)


def _check_triangle_dual_swaps_edges_faces(h):
    t = triangle_dual(h)
    return (_same_partitions(t.faces, h.edges)
            and _same_partitions(t.edges, h.faces))


def _check_contrary_involution(h):
    return contrary(contrary(h)) == h


def _check_contrary_swaps_vertices_edges(h):
    c = contrary(h)
    return (_same_partitions(c.vertices, h.edges)
            and _same_partitions(c.edges, h.vertices))


def _check_nabla_swaps_dual_orbits(h):
    nb, d = nabla(h), dual(h)
    return (_same_partitions(nb.edges, d.faces)
            and _same_partitions(nb.faces, d.edges))


def _check_nabla_is_triangle_dual_of_dual(h):
    return same_orbits(nabla(h), triangle_dual(dual(h)))


def _check_special_dart_transfer(h):
    t = triangle_dual(h)
    try:
        special_darts(t, face_code(h).special, EDGE)
        special_darts(t, edge_code(h).special, FACE)
    except SpecialDartError:
        return False
    return True


def _codes_equal(a, b):
    return (a.qubit_labels == b.qubit_labels
            and boundary1(a) == boundary1(b)
            and boundary2(a) == boundary2(b))


def _edge_minima(h):
    return frozenset(min(orbit) for orbit in h.edges)


def _check_face_edge_code_transfer(h):
    fc = face_code(h, _edge_minima(h))
    ec = edge_code(triangle_dual(h), fc.special)
    return _codes_equal(fc, ec)


def _check_dual_face_nabla_edge_transfer(h):
    s = _edge_minima(h)
    fc = face_code(dual(h), s)
    ec = edge_code(nabla(h), s)
    return _codes_equal(fc, ec)


def _check_euler_logical_count(h):
    chi = euler_characteristic(h)
    if chi % 2 != 0:
        return False
    code = face_code(h, _edge_minima(h))
    return code.k == 2 - chi


def _check_full_code_logical_gap(h):
    k_face = face_code(h, _edge_minima(h)).k
    k_full = full_code(h).k
    return k_full - k_face == len(h.edges) - 1


def _check_chain_conditions(h):
    d2, d1, iota = raw_complex(h)
    if not is_zero(multiply(d1, d2)):
        return False
    if not is_zero(multiply(d1, iota)):
        return False
    quotients = [
        face_code(h, _edge_minima(h)),
        edge_code(h, frozenset(min(orbit) for orbit in h.faces)),
        full_code(h),
    ]
    return all(is_zero(multiply(boundary1(q), boundary2(q))) for q in quotients)


def _check_closed_surface(h):
    s = _edge_minima(h)
    return validate_surface(reduce_to_surface(h, s), h, s).passed


VERIFY_CHECKS = [
    ("dual-involution", _check_dual_involution),
    ("dual-preserves-edges", _check_dual_preserves_edges),
    ("dual-swaps-vertices-faces", _check_dual_swaps_vertices_faces),
    ("triangle-dual-involution", _check_triangle_dual_involution),
    ("triangle-dual-preserves-vertices", _check_triangle_dual_preserves_vertices),
    ("triangle-dual-swaps-edges-faces", _check_triangle_dual_swaps_edges_faces),
    ("contrary-involution", _check_contrary_involution),
    ("contrary-swaps-vertices-edges", _check_contrary_swaps_vertices_edges),
    ("nabla-swaps-dual-edges-faces", _check_nabla_swaps_dual_orbits),
    ("nabla-is-triangle-dual-of-dual", _check_nabla_is_triangle_dual_of_dual),
    ("special-dart-transfer", _check_special_dart_transfer),
    ("face-edge-code-transfer", _check_face_edge_code_transfer),
    ("dual-face-nabla-edge-transfer", _check_dual_face_nabla_edge_transfer),
    ("euler-logical-count", _check_euler_logical_count),
    ("full-code-logical-gap", _check_full_code_logical_gap),
    ("chain-conditions", _check_chain_conditions),
    ("closed-surface", _check_closed_surface),
]


def run_verification(trials, max_darts, seed, checks=None):
    """Every check over the whole corpus, one check after another."""
    corpus = random_corpus(trials, max_darts, seed)
    outcomes = []
    for name, predicate in VERIFY_CHECKS if checks is None else checks:
        failures = 0
        first = ""
        for h in corpus:
            error = ""
            try:
                ok = predicate(h)
            except Exception as exc:  # a crash is a failure, not a verdict
                ok, error = False, f" raised {type(exc).__name__}: {exc}"
            if not ok:
                failures += 1
                if failures == 1:
                    first = repr(h) + error
        outcomes.append(CheckOutcome(name, failures, len(corpus), first))
    return VerificationReport(trials, max_darts, seed, tuple(outcomes))


# ---------------------------------------------------------------------------
# the cycle-notation parser, one character at a time, and its grammar

# The cycle grammar (``\s`` is the str.isspace set).  A label run ends at whitespace
# or ")", so a failed match backtracks over each character a bounded number of times.
CYCLE_TEXT = re.compile(r"\s*(?:\(\s*(?:[0-9]+(?:\s+[0-9]+)*\s*)?\)\s*)*")


def quoted(text):
    """A refused string as every refusal quotes it: whole up to 64 characters,
    else its first 64 and ``...``."""
    return repr(text) if len(text) <= 64 else repr(text[:64]) + "..."


def parse_cycles(text, degree):
    if degree < 1:
        raise CycleParseError("degree must be at least 1", 1)
    if degree > MAX_DARTS:
        raise CycleParseError(f"degree must be at most {MAX_DARTS}", 1)
    width = len(str(degree))
    images = list(range(degree))
    used = [False] * degree
    pos = 0
    n_chars = len(text)
    while pos < n_chars:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise CycleParseError(f"expected '(' but found {ch!r}", pos + 1)
        pos += 1
        entries = []
        while True:
            while pos < n_chars and text[pos].isspace():
                pos += 1
            if pos >= n_chars:
                raise CycleParseError("unclosed cycle: missing ')'", n_chars + 1)
            if text[pos] == ")":
                pos += 1
                break
            start = pos
            while pos < n_chars and not text[pos].isspace() and text[pos] != ")":
                pos += 1
            token = text[start:pos]
            if not (token.isascii() and token.isdigit()):
                raise CycleParseError(f"dart label {quoted(token)} is not a decimal label",
                                      start + 1)
            if len(token) > width and len(token.lstrip("0")) > width:
                raise CycleParseError(
                    f"dart label of {len(token.lstrip('0'))} digits outside 1..{degree}",
                    start + 1)
            label = int(token.lstrip("0") or "0")  # int() counts zero padding to its limit
            if not 1 <= label <= degree:
                raise CycleParseError(f"dart label {label} outside 1..{degree}", start + 1)
            if used[label - 1]:
                raise CycleParseError(f"dart label {label} appears twice", start + 1)
            used[label - 1] = True
            entries.append(label - 1)
        for i, a in enumerate(entries):
            images[a] = entries[(i + 1) % len(entries)]
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# the hypermap text parser, one line and one special label at a time

def parse_lines(text: str) -> tuple[Hypermap, frozenset[int] | None]:
    """The line parser of :func:`parse_hypermap`: reads any text of the format
    line by line and raises :class:`ParseError` at the first fault."""
    fields: list[tuple[int, int, str, str]] = []  # (line, value col, key, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in raw:
            raise ParseError(lineno, 1, "expected 'key: value'")
        key, _, value = raw.partition(":")
        # 1-based column where the stripped value begins
        value_col = len(key) + 2 + (len(value) - len(value.lstrip()))
        fields.append((lineno, value_col, key.strip(), value.strip()))

    expected = ["darts", "alpha", "sigma"]
    for (lineno, col, key, _), want in zip(fields, expected):
        if key != want:
            raise ParseError(lineno, 1, f"expected {want!r} line, found {quoted(key)}")
    if len(fields) < 3:
        raise ParseError(len(text.splitlines()) + 1, 1,
                         "expected 'darts:', 'alpha:' and 'sigma:' lines")
    if len(fields) > 4:
        lineno, _, key, _ = fields[4]
        raise ParseError(lineno, 1, f"unexpected extra line {quoted(key)}")
    if len(fields) == 4 and fields[3][2] != "special":
        raise ParseError(fields[3][0], 1, f"expected 'special' line, found {quoted(fields[3][2])}")

    lineno, col, _, value = fields[0]
    if not (value.isascii() and value.isdigit()):
        raise ParseError(lineno, col,
                         f"dart count must be a positive integer, found {quoted(value)}")
    # the length check runs first: int() refuses more than 4300 digits
    if len(value.lstrip("0")) > len(str(MAX_DARTS)) or (n := decimal_value(value)) > MAX_DARTS:
        raise ParseError(lineno, col, f"dart count exceeds the limit of {MAX_DARTS}")
    if n < 1:
        raise ParseError(lineno, col,
                         f"dart count must be a positive integer, found {quoted(value)}")

    perms = []
    for lineno, col, key, value in fields[1:3]:
        try:
            perms.append(parse_cycles(value, n))
        except ValueError as exc:
            offset = getattr(exc, "col", 1)
            raise ParseError(lineno, col + offset - 1, f"bad {key} cycles: {exc}") from exc

    special: frozenset[int] | None = None
    if len(fields) == 4:
        lineno, col, _, value = fields[3]
        labels: set[int] = set()
        offset = 0
        for token in value.split():
            offset = value.index(token, offset)
            if not (token.isascii() and token.isdigit()):
                raise ParseError(lineno, col + offset,
                                 f"special dart {quoted(token)} is not a decimal label")
            if len(token.lstrip("0")) > len(str(n)):
                raise ParseError(lineno, col + offset, f"special dart of "
                                 f"{len(token.lstrip('0'))} digits outside 1..{n}")
            if not 1 <= decimal_value(token) <= n:
                raise ParseError(lineno, col + offset,
                                 f"special dart {decimal_value(token)} outside 1..{n}")
            label = decimal_value(token) - 1
            if label in labels:
                raise ParseError(lineno, col + offset,
                                 f"special dart {label + 1} appears twice")
            labels.add(label)
            offset += len(token)
        special = frozenset(labels)

    return Hypermap(perms[0], perms[1]), special


# ---------------------------------------------------------------------------
# the surface reduction as a dense count table

@dataclass(frozen=True)
class DenseComplex:
    zero_cells: tuple
    one_cells: tuple
    two_cells: tuple
    incidence21: tuple  # one row of counts per 1-cell, one column per 2-cell
    incidence10: BitMatrix

    @property
    def euler_characteristic(self):
        return len(self.zero_cells) - len(self.one_cells) + len(self.two_cells)

    def incidence21_mod2(self):
        return mod2_projection(self.incidence21, len(self.two_cells))


def dense_reduce_to_surface(h, s):
    code = face_code(h, s)
    width = len(code.z_labels)
    counts = []
    for dart, row in zip(code.qubit_labels, boundary2(code).bits):
        entries = [0] * width
        if row:  # exactly two bits, one per side
            top = row.bit_length() - 1
            entries[top] = entries[(row ^ (1 << top)).bit_length() - 1] = 1
        else:  # both sides are the dart's own face
            entries[h.face_index[dart]] = 2
        counts.append(tuple(entries))
    return DenseComplex(code.x_labels, code.qubit_labels, code.z_labels,
                        tuple(counts), boundary1(code))


def dense_validate_surface(c, h=None, s=None):
    checks = []

    def check(name, ok, detail):
        checks.append(CheckResult(name, ok, "" if ok else detail))

    bad_closure = [(c.one_cells[i], sum(row)) for i, row in enumerate(c.incidence21)
                   if sum(row) != 2]
    check("one-cell-closure", not bad_closure, "1-cells with incidence != 2: " + ", ".join(
        f"{dart + 1} (total {total})" for dart, total in bad_closure))
    mod2 = c.incidence21_mod2()
    check("chain-condition", is_zero(multiply(c.incidence10, mod2)),
          "incidence10 * incidence21 != 0 mod 2")
    chi = c.euler_characteristic
    check("euler-even", chi % 2 == 0, f"chi = {chi} is odd")
    if h is not None and s is not None:
        code = face_code(h, s)
        check("face-code-z-match", mod2 == boundary2(code),
              "incidence21 mod 2 differs from the face-code boundary")
        check("face-code-x-match", c.incidence10 == boundary1(code),
              "incidence10 differs from the face-code vertex boundary")
        check("euler-match", chi == euler_characteristic(h),
              f"complex chi {chi} != hypermap chi {euler_characteristic(h)}")
    return SurfaceReport(checks=tuple(checks), euler_characteristic=chi)


# ---------------------------------------------------------------------------
# the surface reduction and its validation, each building the face code itself

def reduce_to_surface(h, s):
    code = face_code(h, s)
    counts = tuple(
        (((row & -row).bit_length() - 1, 1), (row.bit_length() - 1, 1)) if row
        else ((h.face_index[dart], 2),)
        for dart, row in zip(code.qubit_labels, boundary2(code).bits))
    return CellComplex(
        zero_cells=code.x_labels,
        one_cells=code.qubit_labels,
        two_cells=code.z_labels,
        counts21=counts,
        ends=matrix_pairs(boundary1(code)),
    )


def validate_surface(c, h=None, s=None):
    checks = []

    def check(name, ok, detail):
        checks.append(CheckResult(name, ok, "" if ok else detail))

    bad_closure = [(dart, total) for dart, pairs in zip(c.one_cells, c.counts21)
                   if (total := sum(v for _, v in pairs)) != 2]
    check("one-cell-closure", not bad_closure, "1-cells with incidence != 2: " + ", ".join(
        f"{dart + 1} (total {total})" for dart, total in bad_closure))
    incidence21_mod2 = mod2_projection(incidence21(c), len(c.two_cells))
    check("chain-condition", is_zero(multiply(incidence10(c), incidence21_mod2)),
          "incidence10 * incidence21 != 0 mod 2")
    chi = c.euler_characteristic
    check("euler-even", chi % 2 == 0, f"chi = {chi} is odd")
    if h is not None and s is not None:
        code = face_code(h, s)
        check("face-code-z-match", incidence21_mod2 == boundary2(code),
              "incidence21 mod 2 differs from the face-code boundary")
        check("face-code-x-match", incidence10(c) == boundary1(code),
              "incidence10 differs from the face-code vertex boundary")
        check("euler-match", chi == euler_characteristic(h),
              f"complex chi {chi} != hypermap chi {euler_characteristic(h)}")
    return SurfaceReport(checks=tuple(checks), euler_characteristic=chi)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # counts below 10 -> ASCII


def render_count_rows(c):
    """The ``reduce`` table: one line per 1-cell, its counts joined by spaces."""
    return [" ".join(bytes(row).translate(_DIGITS).decode()) for row in c.incidence21]


def splice_count_lines(c, sep):
    """Each 1-cell's dense row of ``c.counts21`` joined by ``sep``, spliced
    together from slices of one all-zero line and the counts between them."""
    zeros, step, lines = sep.join("0" * len(c.two_cells)), len(sep) + 1, []
    for pairs in c.counts21:
        parts, at = [], 0
        for j, v in pairs:
            parts += zeros[at:step * j], str(v)
            at = step * j + 1
        lines.append("".join(parts) + zeros[at:])
    return lines


# ---------------------------------------------------------------------------
# the distance searches

def min_logical_weight(check, other, budget):
    """Minimum weight over ker(check) \\ rowspace(other), if <= budget.

    The kernel basis is in reduced echelon form, so each basis vector
    owns a coordinate where the others vanish: a sum of t basis vectors
    has weight >= t, and a weight-w vector is a sum of at most w of them.
    Enumerating combinations of size t <= budget therefore visits every
    logical operator of weight <= budget, and the t >= best cutoff keeps
    the result exact.
    """
    basis = kernel_basis(check).bits
    reduced, pivots = echelon(other.bits, other.cols)

    def is_stabilizer(v):
        for r, c in enumerate(pivots):
            if (v >> c) & 1:
                v ^= reduced[r]
        return v == 0

    best = None
    for t in range(1, min(len(basis), budget) + 1):
        if best is not None and t >= best:
            break
        for combo in itertools.combinations(basis, t):
            v = 0
            for b in combo:
                v ^= b
            w = v.bit_count()
            if best is not None and w >= best:
                continue
            if not is_stabilizer(v):
                best = w
    if best is not None and best <= budget:
        return best
    return None


def kernel_label_min_cycle_weight(graph, other, budget):
    """The cycle search over ``(adjacency, loops)`` with dim ker(other) label
    bits, the pairings with ``kernel_basis(other)``, and a breadth-first
    search from every node."""
    adjacency, loops = graph
    if budget < 1:
        return None
    labels = transpose(kernel_basis(other)).bits
    if any(labels[j] for j in loops):
        return 1
    best = None
    limit = budget
    nodes = len(adjacency)
    dist = [-1] * nodes
    lab = [0] * nodes
    via = [-1] * nodes
    for root in range(nodes):
        if limit < 2:
            break
        dist[root] = 0
        lab[root] = 0
        via[root] = -1
        frontier = [root]
        reached = [root]
        depth = 0
        while frontier and 2 * depth + 1 <= limit:
            nxt = []
            for u in frontier:
                for j, w in adjacency[u]:
                    if j == via[u]:
                        continue
                    lw = lab[u] ^ labels[j]
                    if dist[w] < 0:
                        dist[w] = depth + 1
                        lab[w] = lw
                        via[w] = j
                        nxt.append(w)
                    elif lw != lab[w] and depth + dist[w] + 1 <= limit:
                        best = depth + dist[w] + 1
                        limit = best - 1
            reached += nxt
            frontier = nxt
            depth += 1
        for u in reached:
            dist[u] = -1
    return best


def bfs_forest(adjacency, skip):
    """A breadth-first spanning forest over the qubits ``j`` with ``skip[j] == 0``.

    Returns ``(order, via, up)``: the nodes in visiting order, and per node
    the qubit and the node it was reached from, both -1 at a root.
    """
    nodes = len(adjacency)
    via = [-1] * nodes
    up = [-1] * nodes
    seen = bytearray(nodes)
    order = []
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


def bfs_cotree_labels(graph, other, n):
    """Per-qubit logical labels of k bits for the cycles of ``graph``.

    ``graph`` and ``other`` are ``css._qubit_graph`` of ``check`` and of
    ``other`` on the same ``n`` qubits.  A spanning forest T of ``graph``
    is taken first, then a spanning forest C of ``other`` over the qubits
    outside T; each of the k qubits in neither gets its own bit, which is
    also XORed onto the qubits of the path in C between its ends, by one
    pass over C from the leaves up.
    """
    used = bytearray(n)  # the qubits of T, then of T and C
    for j in bfs_forest(graph[0], used)[1]:
        if j >= 0:
            used[j] = 1
    order, via, up = bfs_forest(other[0], used)
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


def dart_label(text):
    """``type=`` of --special: ASCII decimal digits, with no more significant
    digits than ``MAX_DARTS``, in 1..MAX_DARTS."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"special dart {quoted(text)} is not a decimal label")
    significant = len(text.lstrip("0"))
    if significant > len(str(MAX_DARTS)):
        raise argparse.ArgumentTypeError(
            f"special dart of {significant} digits outside 1..{MAX_DARTS}")
    if not 1 <= decimal_value(text) <= MAX_DARTS:
        raise argparse.ArgumentTypeError(
            f"special dart {decimal_value(text)} outside 1..{MAX_DARTS}")
    return decimal_value(text)


class DistinctDarts(argparse.Action):
    """Names the first repeated label, else stores the set of 0-based darts."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = set()
        for value in values:
            if value in seen:
                raise argparse.ArgumentError(self, f"special dart {value} appears twice")
            seen.add(value)
        setattr(namespace, self.dest, frozenset(value - 1 for value in values))


def per_label_parser():
    """The CLI's parser with every --special option read label by label:
    ``type=dart_label`` and the ``DistinctDarts`` action."""
    parser = cli.build_parser()
    specials = [action for subparser in subparsers(parser).values()
                for action in subparser._actions if action.dest == "special"]
    assert specials, "no --special option to read label by label"
    for action in specials:
        action.type = dart_label
        action.__class__ = DistinctDarts
    return parser


# ---------------------------------------------------------------------------
# the CLI's hand-written parser

def _int_in_range(low: int | None = None, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type=``: ASCII ``-?[0-9]+`` read past its zero padding,
    >= ``low`` and <= ``high`` where given."""
    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (text.isascii() and digits.isdigit()):
            raise ValueError(text)  # argparse: "invalid int value: '+3'"
        sign = text[:len(text) - len(digits)]
        significant = digits.lstrip("0") or "0"
        try:
            value = shown = int(sign + significant)
        except ValueError:  # int() refuses more than 4300 digits: past any bound on its side
            value = float(sign + "inf")
            shown = f"a {'negative ' if sign else ''}number of {len(significant)} digits"
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {shown}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {shown}")
        if shown is not value:
            raise ValueError(text)  # unbounded on its side: "invalid int value"
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


class _DistinctDarts(argparse.Action):
    """The --special action: reads its labels as one list by the rule of a file's
    special line (:func:`~hypermap_codes.perm._read_labels`), each in
    1..MAX_DARTS and each once, to the set of 0-based darts a file's line gives.
    Whether each is a dart of the map, and one per edge or face, is checked
    when the code is built."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            darts = _read_labels(values, MAX_DARTS)
        except ValueError as exc:
            raise argparse.ArgumentError(self, f"special dart {exc}") from None
        setattr(namespace, self.dest, darts)


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser as ``cli.build_parser`` built it by hand, before one table
    described each command: copied verbatim, with its helpers, from that
    version, but for this name, this docstring and the help of ``--allow-large``,
    which no longer changes anything.  The parser built from ``cli.COMMANDS``
    must print and read exactly as this one does."""
    parser = argparse.ArgumentParser(
        prog="hypermap-codes",
        description="CSS codes from combinatorial hypermaps: construction, "
                    "dualities, surface reduction, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        return p.add_argument("file", metavar="FILE", help="hypermap text file")

    def add_special(p):
        return p.add_argument("--special", nargs="+", action=_DistinctDarts,
                              metavar="DART",
                              help="1-based special darts (overrides the file's choice)")

    p = sub.add_parser("info", help="orbits, Euler characteristic, genus")
    _plain_arguments(p, add_file(p))
    p.set_defaults(func=cmd_info)

    for name, op, blurb in [("dual", dual, "the dual hypermap"),
                            ("tri-dual", triangle_dual, "the triangle dual"),
                            ("contrary", contrary, "the contrary map")]:
        p = sub.add_parser(name, help=f"print {blurb}")
        _plain_arguments(p, add_file(p))
        p.set_defaults(func=lambda a, op=op: _cmd_transform(a, op))

    p = sub.add_parser("code", help="build a CSS code")
    _plain_arguments(p, add_file(p),
                     p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True),
                     add_special(p))
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("reduce", help="surface-code cell complex of the face code")
    _plain_arguments(p, add_file(p), add_special(p))
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("distance", help="minimum-distance search")
    _plain_arguments(
        p, add_file(p),
        p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True),
        add_special(p),
        p.add_argument("--budget", type=_int_in_range(0), default=DEFAULT_DISTANCE_BUDGET,
                       help="maximum logical-operator weight to search "
                            f"(default {DEFAULT_DISTANCE_BUDGET})"),
        p.add_argument("--allow-large", action="store_true", help="no effect; still accepted"))
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run the identity/equivalence suite on random hypermaps")
    _plain_arguments(p, p.add_argument("--trials", type=_int_in_range(1), default=500),
                     p.add_argument("--max-darts", type=_int_in_range(1, MAX_DARTS), default=10),
                     p.add_argument("--seed", type=_int_in_range(), default=7))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="emit a random hypermap file")
    _plain_arguments(p,
                     p.add_argument("--darts", type=_int_in_range(1, MAX_DARTS), required=True),
                     p.add_argument("--seed", type=_int_in_range(), default=0))
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("export", help="DOT or JSON export")
    _plain_arguments(
        p, add_file(p),
        p.add_argument("--format", choices=["dot", "json"], required=True),
        p.add_argument("--what", choices=["hypermap", "code", "complex"], default="hypermap"),
        p.add_argument("--kind", choices=[FACE, EDGE, FULL],
                       help="code kind when --what code (default face)"),
        add_special(p))
    p.set_defaults(func=cmd_export)

    parser.commands = sub.choices  # command name -> its subparser, read by _parse_args
    return parser


def _plain_arguments(p: argparse.ArgumentParser, *actions: argparse.Action) -> None:
    """Keep on ``p`` the Action objects of its arguments that :func:`_read_plain`
    reads: its FILE action (None for a command without one) and its options
    by option string."""
    positional = [action for action in actions if not action.option_strings]
    p.plain = (positional[0] if positional else None,
               {option: action for action in actions for option in action.option_strings})


def subparsers(parser):
    """Command name -> subparser of an argparse parser with subcommands."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices
