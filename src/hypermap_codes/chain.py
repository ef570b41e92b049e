"""Chain complexes of a hypermap and their quotient codes.

The raw complex has one basis element per face, dart, and vertex:

- ``d2`` sends a face to the sum of its darts            (darts x faces),
- ``iota`` sends an edge to the sum of its darts         (darts x edges),
- ``d1`` sends dart i to the two endpoints v(i) and
  v(alpha^-1(i)), which cancel when they coincide        (vertices x darts).

Both d1*d2 = 0 and d1*iota = 0 hold; :func:`full_code` is this complex
as a code, ``boundary2`` = d2 and ``boundary1`` = d1.  Quotienting the
dart space by the image of ``iota`` (face codes) or of ``d2`` (edge
codes) leaves a two-step complex.  A special set is a plain set of darts:
one per edge for a face code, one per face for an edge code, by default
the minimum of each orbit.  (One dart per edge of ``h`` is one per face
of ``triangle_dual(h)``, so a set is not tied to a code kind.)  It turns
the non-special darts into a basis of the quotient: a special dart
equals the sum of the other darts of its orbit, so each boundary column
is expanded by that substitution.  After it every qubit has exactly two
sides: its own Z-orbit, and the Z-orbit of the special dart of its
eliminating orbit (its edge for face codes, its face for edge codes).
Its ``boundary2`` row is the XOR of those two bits, zero when they
coincide.  Sides and endpoints are read from the orbit index tables.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Sequence

from .gf2 import BitMatrix, _unchecked
from .hypermap import Hypermap
from .perm import _Record

FACE = "face"
EDGE = "edge"
FULL = "full"


class SpecialDartError(ValueError):
    """A special-dart set that does not pick exactly one dart per orbit."""


class QuotientCode(_Record):
    """A two-step quotient complex ready for CSS assembly.

    ``boundary2`` is qubits x Z-generators, ``boundary1`` is
    X-generators x qubits.  For face codes the Z axis is the faces and a
    qubit is a non-special dart (one special dart per edge); for edge
    codes the Z axis is the edges (one special dart per face); the full
    kind keeps every dart and has no special set.  A face or edge
    qubit's ``boundary2`` row holds its two sides, its own Z-orbit and
    that of its eliminating orbit's special dart, so it has weight 2, or
    0 when the two sides coincide.
    """

    __slots__ = ("kind", "special", "qubit_labels", "boundary2", "boundary1",
                 "z_labels", "x_labels")

    def __init__(self, kind: str, special: frozenset[int] | None,
                 qubit_labels: tuple[int, ...], boundary2: BitMatrix, boundary1: BitMatrix,
                 z_labels: tuple[int, ...], x_labels: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "special", special)
        object.__setattr__(self, "qubit_labels", qubit_labels)
        object.__setattr__(self, "boundary2", boundary2)
        object.__setattr__(self, "boundary1", boundary1)
        object.__setattr__(self, "z_labels", z_labels)
        object.__setattr__(self, "x_labels", x_labels)


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


def _special_set(h: Hypermap, darts: Iterable[int] | None, kind: str) -> frozenset[int]:
    """The special set of the ``kind`` code of ``h``: one dart per edge for a
    face code, per face for an edge code; the orbit minima when ``darts`` is None.

    Raises :class:`SpecialDartError` unless ``darts`` picks exactly one dart
    of every such orbit.  Hits are counted per orbit through the dart ->
    orbit table.
    """
    name, orbits, index = ("edge", h.edges, h.edge_index) if kind == FACE \
        else ("face", h.faces, h.face_index)
    if darts is None:
        return frozenset(_orbit_labels(orbits))
    chosen = frozenset(darts)
    n, hits = h.n, [0] * len(orbits)  # special darts per orbit
    for dart in chosen:
        if not 0 <= dart < n:
            raise SpecialDartError(f"dart {dart + 1} outside 1..{n}")
        hits[index[dart]] += 1
    bad = [(orbit, count) for orbit, count in zip(orbits, hits) if count != 1]
    if bad:
        pretty = "; ".join(
            f"{name} orbit {{{' '.join(str(i + 1) for i in orbit)}}} has {count} special darts"
            for orbit, count in bad
        )
        raise SpecialDartError(f"not a valid per-{name} special set: {pretty}")
    return chosen


def _quotient_code(h: Hypermap, darts: Iterable[int] | None, kind: str) -> QuotientCode:
    """The face or edge code of the special set ``darts`` (see :func:`_special_set`)."""
    special = _special_set(h, darts, kind)
    if kind == FACE:
        z_orbits, z_of, eliminating, eliminating_of = h.faces, h.face_index, h.edges, h.edge_index
    else:
        z_orbits, z_of, eliminating, eliminating_of = h.edges, h.edge_index, h.faces, h.face_index
    # the second side of a qubit: the Z-orbit of its eliminating orbit's special dart
    special_side = [0] * len(eliminating)
    for dart in special:
        special_side[eliminating_of[dart]] = 1 << z_of[dart]
    qubits = tuple(i for i in range(h.n) if i not in special)
    b2_bits = tuple((1 << z_of[q]) ^ special_side[eliminating_of[q]] for q in qubits)
    return QuotientCode(
        kind=kind,
        special=special,
        qubit_labels=qubits,
        boundary2=_unchecked(len(qubits), len(z_orbits), b2_bits),
        boundary1=_endpoint_matrix(h, qubits),
        z_labels=_orbit_labels(z_orbits),
        x_labels=_orbit_labels(h.vertices),
    )


def face_code(h: Hypermap, special: Iterable[int] | None = None) -> QuotientCode:
    """Quotient complex faces -> darts/edges -> vertices.

    ``special`` (0-based darts) must pick one dart per edge orbit of ``h``,
    and defaults to the minimum of each; the qubits are the remaining
    n - |edges| darts.
    """
    return _quotient_code(h, special, FACE)


def edge_code(h: Hypermap, special: Iterable[int] | None = None) -> QuotientCode:
    """Quotient complex edges -> darts/faces -> vertices.

    The mirror of :func:`face_code` with edges and faces interchanged:
    ``special`` picks one dart per face orbit (by default the minimum of
    each) and the qubits are the remaining n - |faces| darts.
    """
    return _quotient_code(h, special, EDGE)


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
