"""Chain complexes of a hypermap and their quotient codes, stored as check pairs.

The raw complex has one basis element per face, dart, and vertex:

- ``d2`` sends a face to the sum of its darts            (darts x faces),
- ``iota`` sends an edge to the sum of its darts         (darts x edges),
- ``d1`` sends dart i to the two endpoints v(i) and
  v(alpha^-1(i)), which cancel when they coincide        (vertices x darts).

Both d1*d2 = 0 and d1*iota = 0 hold; :func:`full_code` is this complex
as a code, with d1 as its X checks and d2 as its Z checks.  Quotienting
the dart space by the image of ``iota`` (face codes) or of ``d2`` (edge
codes) leaves a two-step complex.  A special set is a plain set of darts:
one per edge for a face code, one per face for an edge code, by default
the minimum of each orbit.  (One dart per edge of ``h`` is one per face
of ``triangle_dual(h)``, so a set is not tied to a code kind.)  It turns
the non-special darts into a basis of the quotient: a special dart
equals the sum of the other darts of its orbit, so each boundary column
is expanded by that substitution.  After it every qubit has exactly two
sides: its own Z-orbit, and the Z-orbit of the special dart of its
eliminating orbit (its edge for face codes, its face for edge codes).

So every code is a graph code, stored per qubit as the pair of its X
checks (``ends``) and of its Z checks (``sides``), read from the orbit
index tables in the check-pair format of :mod:`~hypermap_codes.gf2`.
:class:`QuotientCode` is the one code record: the quotient complex is
also the CSS code, with H_X the vertex boundary and H_Z the Z-axis
boundary, and its logical count ``k`` is taken from the spanning forests
of its two check graphs on first read, which it keeps for the distance
search.
"""

from __future__ import annotations

from collections.abc import Iterable

from .gf2 import Pairs, check_pairs, commutes, forest, masks
from .hypermap import Hypermap
from .perm import _orbit_list, _quoted, _Record

FACE = "face"
EDGE = "edge"
FULL = "full"


class SpecialDartError(ValueError):
    """A special-dart set that does not pick exactly one dart per orbit."""


class CommutationError(RuntimeError):
    """H_X and H_Z fail to commute; impossible for codes built upstream."""


class QuotientCode(_Record):
    """A two-step quotient complex and its CSS code.

    ``ends`` holds each qubit's X checks (vertices) and ``sides`` its Z
    checks, as pairs.  For face codes the Z axis is the faces and a qubit
    is a non-special dart (one special dart per edge); for edge codes the
    Z axis is the edges (one special dart per face); the full kind keeps
    every dart, has no special set, and gives each its face as ``(f, none)``.
    ``n`` is the qubit count and ``k`` the logical count, n minus the two
    check ranks, the sizes of two spanning forests (:func:`~.gf2.forest`)
    of the X and Z check graphs.  The first read of ``k`` builds them and
    keeps them, for the distance search too, in the cache ``_forests``,
    after the commutation test, a guard against upstream bugs that raises
    :class:`CommutationError`: it cannot fire for a well-formed quotient
    complex.
    """

    __slots__ = ("kind", "special", "qubit_labels", "ends", "sides", "z_labels", "x_labels",
                 "_forests")

    def __init__(self, kind: str, special: frozenset[int] | None,
                 qubit_labels: tuple[int, ...], ends: Pairs, sides: Pairs,
                 z_labels: tuple[int, ...], x_labels: tuple[int, ...]):
        self._fill(kind, special, qubit_labels, ends, sides, z_labels, x_labels)

    @property
    def n(self) -> int:
        return len(self.qubit_labels)

    @property
    def k(self) -> int:
        if self._forests is None:
            x_checks, z_checks = len(self.x_labels), len(self.z_labels)
            if not commutes(self.ends, x_checks, masks(self.sides, z_checks)):
                raise CommutationError("H_X * H_Z^T != 0; quotient complex is broken")
            _set_forests(self, (forest(self.ends, x_checks), forest(self.sides, z_checks)))
        x, z = self._forests
        return self.n - x.count(1) - z.count(1)


_set_forests = QuotientCode._stores[-1]


def _orbit_labels(orbits) -> tuple[int, ...]:
    """The minimum dart of each orbit: a canonical cycle starts at its minimum."""
    return tuple([c[0] for c in orbits])


def _code(h: Hypermap, kind: str, special: frozenset[int] | None, qubits: tuple[int, ...],
          sides: Pairs, z_orbits) -> QuotientCode:
    """The ``kind`` code on the darts ``qubits``; dart d's ends are v(d) and v(alpha^-1(d))."""
    head_of = h.vertex_index
    tail_of = [0] * h.n  # tail_of[d] = v(alpha^-1(d)): alpha sends i to d
    for i, d in enumerate(h.alpha.images):
        tail_of[d] = head_of[i]
    return QuotientCode(kind=kind, special=special, qubit_labels=qubits,
                        ends=check_pairs(qubits, head_of, tail_of, len(h.vertices)), sides=sides,
                        z_labels=_orbit_labels(z_orbits), x_labels=_orbit_labels(h.vertices))


def _special_set(h: Hypermap, darts: Iterable[int] | None, kind: str) -> frozenset[int]:
    """The special set of the ``kind`` code of ``h``: one dart per edge for a
    face code, per face for an edge code; the orbit minima when ``darts`` is None.

    Raises :class:`SpecialDartError` unless ``darts`` picks exactly one dart
    of every such orbit, each once, each an ``int``.  Hits are counted per
    orbit through the dart -> orbit table.
    """
    name, orbits, index = ("edge", h.edges, h.edge_index) if kind == FACE \
        else ("face", h.faces, h.face_index)
    if darts is None:
        return frozenset(_orbit_labels(orbits))
    darts = darts if isinstance(darts, (set, frozenset)) else list(darts)  # an iterator, once
    chosen = frozenset(darts)  # a frozenset is kept as it is
    if not {int}.issuperset(map(type, chosen)):  # so True, 1.0 and '1' are refused
        odd = next(dart for dart in chosen if type(dart) is not int)
        raise SpecialDartError(f"special dart {_quoted(odd)} is not an integer")
    if len(chosen) < len(darts):
        seen: set[int] = set()
        for dart in darts:
            if dart in seen:
                raise SpecialDartError(f"special dart {dart + 1} appears twice")
            seen.add(dart)
    n, hits = h.n, [0] * len(orbits)  # special darts per orbit
    for dart in chosen:
        if not 0 <= dart < n:
            raise SpecialDartError(f"dart {dart + 1} outside 1..{n}")
        hits[index[dart]] += 1
    bad = [(orbit, count) for orbit, count in zip(orbits, hits) if count != 1]
    if bad:
        pretty = _orbit_list(bad, name + " orbit {} has {} special darts", "; ",
                             f"... ({len(bad)} {name} orbits)")
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
        special_side[eliminating_of[dart]] = z_of[dart]
    qubits = tuple(i for i in range(h.n) if i not in special)
    sides = check_pairs(qubits, z_of, [special_side[e] for e in eliminating_of], len(z_orbits))
    return _code(h, kind, special, qubits, sides, z_orbits)


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
    none = len(h.faces)
    sides = tuple([(f, none) for f in h.face_index])
    return _code(h, FULL, None, tuple(range(h.n)), sides, h.faces)
