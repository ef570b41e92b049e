"""Chain complexes of a hypermap and their quotient codes.

The raw complex has one basis element per face, dart, and vertex:

- ``d2`` sends a face to the sum of its darts            (darts x faces),
- ``iota`` sends an edge to the sum of its darts         (darts x edges),
- ``d1`` sends dart i to the two endpoints v(i) and
  v(alpha^-1(i)), which cancel when they coincide        (vertices x darts).

Both d1*d2 = 0 and d1*iota = 0 hold, so quotienting the dart space by the
image of ``iota`` (face codes) or of ``d2`` (edge codes) leaves a
two-step complex.  Choosing one special dart per edge (resp. per face)
turns the non-special darts into a basis of the quotient: a special dart
equals the sum of the other darts of its orbit, so each boundary column
is expanded by that substitution.  One walker yields the expansion's
(qubit, Z-orbit) hits: the surface reduction sums them into
natural-number counts, and the code matrices XOR them into bitmasks,
which is the counts' mod-2 projection without the dense table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import BitMatrix
from .hypermap import (
    PER_EDGE,
    PER_FACE,
    Hypermap,
    SpecialDartError,
    SpecialDarts,
    special_darts,
)
from .perm import inverse

FACE = "face"
EDGE = "edge"
FULL = "full"


@dataclass(frozen=True)
class RawComplex:
    """Unquotiented boundary and inclusion matrices with axis labels.

    Axis labels are the minimum dart of each orbit (0-based); the dart
    axis is simply 0..n-1.  Orbits are ordered by minimum label.
    """

    d2: BitMatrix        # darts x faces
    d1: BitMatrix        # vertices x darts
    iota: BitMatrix      # darts x edges
    dart_labels: tuple[int, ...]
    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]
    face_labels: tuple[int, ...]


@dataclass(frozen=True)
class QuotientCode:
    """A two-step quotient complex ready for CSS assembly.

    ``boundary2`` is qubits x Z-generators, ``boundary1`` is
    X-generators x qubits.  For face codes the Z axis is the faces and a
    qubit is a non-special dart (one special dart per edge); for edge
    codes the Z axis is the edges (one special dart per face); the full
    kind keeps every dart and needs no special set.
    """

    kind: str
    special: SpecialDarts | None
    qubit_labels: tuple[int, ...]
    boundary2: BitMatrix
    boundary1: BitMatrix
    z_labels: tuple[int, ...]
    x_labels: tuple[int, ...]


def _orbit_labels(orbits) -> tuple[int, ...]:
    return tuple(min(o) for o in orbits)


def _dart_incidence(h: Hypermap, orbits) -> BitMatrix:
    """Darts x orbits: each dart has a 1 in the column of its own orbit."""
    bits = [0] * h.n
    for j, orbit in enumerate(orbits):
        for dart in orbit:
            bits[dart] |= 1 << j
    return BitMatrix(h.n, len(orbits), tuple(bits))


def _endpoint_matrix(h: Hypermap, qubits: Sequence[int]) -> BitMatrix:
    """Vertex boundary restricted to the given darts (vertices x qubits)."""
    alpha_inv = inverse(h.alpha)
    bits = [0] * len(h.vertices)
    for col, dart in enumerate(qubits):
        head = h.vertex_of(dart)
        tail = h.vertex_of(alpha_inv(dart))
        if head != tail:
            bits[head] |= 1 << col
            bits[tail] |= 1 << col
    return BitMatrix(len(h.vertices), len(qubits), tuple(bits))


def raw_complex(h: Hypermap) -> RawComplex:
    """The unquotiented complex of ``h``; satisfies d1*d2 = 0 = d1*iota."""
    return RawComplex(
        d2=_dart_incidence(h, h.faces),
        d1=_endpoint_matrix(h, range(h.n)),
        iota=_dart_incidence(h, h.edges),
        dart_labels=tuple(range(h.n)),
        vertex_labels=_orbit_labels(h.vertices),
        edge_labels=_orbit_labels(h.edges),
        face_labels=_orbit_labels(h.faces),
    )


def _quotient_qubits(h: Hypermap, s: SpecialDarts) -> tuple[int, ...]:
    return tuple(i for i in range(h.n) if i not in s.darts)


def _expansion_hits(h: Hypermap, s: SpecialDarts, qubits: tuple[int, ...]):
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


def expansion_counts(h: Hypermap, s: SpecialDarts) -> tuple[tuple[int, ...], ...]:
    """Natural-number boundary counts over the non-special-dart basis.

    Rows are the non-special darts in increasing order; columns are the
    Z-axis orbits, expanded as in :func:`_expansion_hits`.  Counts are
    not reduced mod 2: a dart hit twice in one column records 2.  Every
    row sums to exactly 2 across all columns: once from the dart's own
    Z-orbit, once from the expansion of the unique special dart it shares
    an eliminating orbit with.
    """
    qubits = _quotient_qubits(h, s)
    width = len(h.faces) if s.kind == PER_EDGE else len(h.edges)
    counts = [[0] * width for _ in qubits]
    for r, j in _expansion_hits(h, s, qubits):
        counts[r][j] += 1
    return tuple(tuple(row) for row in counts)


def _quotient_code(h: Hypermap, s: SpecialDarts, kind: str) -> QuotientCode:
    """The face or edge code; the one place a special set is validated."""
    per = PER_EDGE if kind == FACE else PER_FACE
    if s.kind != per:
        raise SpecialDartError(f"{kind} codes need a {per} special set, got {s.kind}")
    special_darts(h, s.darts, per)
    qubits = _quotient_qubits(h, s)
    z_orbits = h.faces if kind == FACE else h.edges
    b2_bits = [0] * len(qubits)
    for r, j in _expansion_hits(h, s, qubits):
        b2_bits[r] ^= 1 << j
    return QuotientCode(
        kind=kind,
        special=s,
        qubit_labels=qubits,
        boundary2=BitMatrix(len(qubits), len(z_orbits), tuple(b2_bits)),
        boundary1=_endpoint_matrix(h, qubits),
        z_labels=_orbit_labels(z_orbits),
        x_labels=_orbit_labels(h.vertices),
    )


def face_code(h: Hypermap, s: SpecialDarts) -> QuotientCode:
    """Quotient complex faces -> darts/edges -> vertices.

    ``s`` must pick one dart per edge orbit of ``h``; the qubits are the
    remaining n - |edges| darts.
    """
    return _quotient_code(h, s, FACE)


def edge_code(h: Hypermap, s: SpecialDarts) -> QuotientCode:
    """Quotient complex edges -> darts/faces -> vertices.

    The mirror of :func:`face_code` with edges and faces interchanged:
    ``s`` picks one dart per face orbit and the qubits are the remaining
    n - |faces| darts.
    """
    return _quotient_code(h, s, EDGE)


def full_code(h: Hypermap) -> QuotientCode:
    """The unquotiented complex as a code: every dart is a qubit.

    No special darts are needed, and the logical count exceeds the face
    code's by |edges| - 1.
    """
    darts = tuple(range(h.n))
    return QuotientCode(
        kind=FULL,
        special=None,
        qubit_labels=darts,
        boundary2=_dart_incidence(h, h.faces),
        boundary1=_endpoint_matrix(h, darts),
        z_labels=_orbit_labels(h.faces),
        x_labels=_orbit_labels(h.vertices),
    )
