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
is expanded by that substitution.  After it every qubit has exactly two
sides: its own Z-orbit, and the Z-orbit of the special dart of its
eliminating orbit (its edge for face codes, its face for edge codes).
Its ``boundary2`` row is the XOR of those two bits, zero when they
coincide.  Sides and endpoints are read from the orbit index tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import BitMatrix, _unchecked
from .hypermap import (
    PER_EDGE,
    PER_FACE,
    Hypermap,
    SpecialDartError,
    SpecialDarts,
    special_darts,
)

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
    kind keeps every dart and needs no special set.  A face or edge
    qubit's ``boundary2`` row holds its two sides, its own Z-orbit and
    that of its eliminating orbit's special dart, so it has weight 2, or
    0 when the two sides coincide.
    """

    kind: str
    special: SpecialDarts | None
    qubit_labels: tuple[int, ...]
    boundary2: BitMatrix
    boundary1: BitMatrix
    z_labels: tuple[int, ...]
    x_labels: tuple[int, ...]


def _orbit_labels(orbits) -> tuple[int, ...]:
    """The minimum dart of each orbit: a canonical cycle starts at its minimum."""
    return tuple([c[0] for c in orbits])


def _dart_incidence(index: Sequence[int], orbit_count: int) -> BitMatrix:
    """Darts x orbits from a dart -> orbit table: row ``dart`` is ``1 << index[dart]``."""
    return _unchecked(len(index), orbit_count, tuple([1 << j for j in index]))


def _endpoint_matrix(h: Hypermap, qubits: Sequence[int]) -> BitMatrix:
    """Vertex boundary restricted to the given darts (vertices x qubits)."""
    head_of = h.vertex_index
    tail_of = [0] * h.n  # tail_of[d] = v(alpha^-1(d)): alpha sends i to d
    for i, d in enumerate(h.alpha.images):
        tail_of[d] = head_of[i]
    bits = [0] * len(h.vertices)
    for col, dart in enumerate(qubits):
        head, tail = head_of[dart], tail_of[dart]
        if head != tail:
            bits[head] |= 1 << col
            bits[tail] |= 1 << col
    return _unchecked(len(h.vertices), len(qubits), tuple(bits))


def raw_complex(h: Hypermap) -> RawComplex:
    """The unquotiented complex of ``h``; satisfies d1*d2 = 0 = d1*iota."""
    return RawComplex(
        d2=_dart_incidence(h.face_index, len(h.faces)),
        d1=_endpoint_matrix(h, range(h.n)),
        iota=_dart_incidence(h.edge_index, len(h.edges)),
        dart_labels=tuple(range(h.n)),
        vertex_labels=_orbit_labels(h.vertices),
        edge_labels=_orbit_labels(h.edges),
        face_labels=_orbit_labels(h.faces),
    )


def _quotient_code(h: Hypermap, s: SpecialDarts, kind: str) -> QuotientCode:
    """The face or edge code; the one place a special set is validated."""
    per = PER_EDGE if kind == FACE else PER_FACE
    if s.kind != per:
        raise SpecialDartError(f"{kind} codes need a {per} special set, got {s.kind}")
    special_darts(h, s.darts, per)
    if kind == FACE:
        z_orbits, z_of, eliminating, eliminating_of = h.faces, h.face_index, h.edges, h.edge_index
    else:
        z_orbits, z_of, eliminating, eliminating_of = h.edges, h.edge_index, h.faces, h.face_index
    # the second side of a qubit: the Z-orbit of its eliminating orbit's special dart
    special_side = [0] * len(eliminating)
    for dart in s.darts:
        special_side[eliminating_of[dart]] = 1 << z_of[dart]
    qubits = tuple(i for i in range(h.n) if i not in s.darts)
    b2_bits = tuple((1 << z_of[q]) ^ special_side[eliminating_of[q]] for q in qubits)
    return QuotientCode(
        kind=kind,
        special=s,
        qubit_labels=qubits,
        boundary2=_unchecked(len(qubits), len(z_orbits), b2_bits),
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
        boundary2=_dart_incidence(h.face_index, len(h.faces)),
        boundary1=_endpoint_matrix(h, darts),
        z_labels=_orbit_labels(h.faces),
        x_labels=_orbit_labels(h.vertices),
    )
