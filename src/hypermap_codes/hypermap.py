"""Combinatorial hypermaps and their dual constructions.

A combinatorial hypermap is a pair of permutations (alpha, sigma) of the
dart set {0..n-1} that together act transitively.  Orbits of sigma are
the vertices, orbits of alpha the edges, and orbits of alpha^-1 * sigma
(left-to-right) the faces.  The counts satisfy

    chi = (|vertices| + |edges|) - n + |faces|,

the Euler characteristic of the closed orientable surface on which the
hypermap embeds, so chi is even and the genus is (2 - chi) / 2.

Three derived hypermaps share the surface:

- dual:           (alpha^-1, alpha^-1 sigma)   -- same edges, vertices and
                                                  faces swapped;
- triangle dual:  (sigma^-1 alpha, sigma^-1)   -- same vertices, edges and
                                                  faces swapped;
- contrary:       (sigma, alpha)               -- vertices and edges swapped.

The contrary of the triangle dual equals the triangle dual of the dual;
``verify`` checks these identities on the canonical dart -> orbit tables.

Every map walks its own orbit families (:func:`_walk_orbits`) on the
first read of an orbit field, so a map whose orbits are never read is
never walked.  A derived map is built from its two permutations alone
(``_derived``): they generate the group of ``h``, so no transitivity
search runs either.

Orientation reversal has no carrier in this purely combinatorial model:
the dual constructions above flip the underlying surface orientation, but
every orbit-level statement is insensitive to that, so it is recorded
here in prose only.

A special set is not part of a hypermap: it is a plain set of darts, which
the file format may carry and which the face and edge codes of
:mod:`~hypermap_codes.chain` check against the map they are built on.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import islice

from .perm import (
    MAX_DARTS,
    Cycles,
    Permutation,
    compose,
    connected_components,
    decimal_value,
    format_cycles,
    inverse,
    is_transitive,
    parse_cycles,
    random_permutation,
    _components,
    _LabelError,
    _orbit_list,
    _orbits,
    _quoted,
    _read_labels,
    _Record,
)


class DisconnectedError(ValueError):
    """The pair (alpha, sigma) is not transitive.  The message comes from one walk
    that counts the components and sorts only those it shows; ``components``
    holds them all, found on first read."""

    def __init__(self, alpha: Permutation, sigma: Permutation):
        walk = _components(alpha, sigma)
        firsts = list(islice(walk, 65))  # the list shows at most 64, whole ones up to 64 labels
        count = len(firsts) + sum(1 for _ in walk)
        listed = _orbit_list(((sorted(c),) for c in firsts), "{}", ", ",
                             f"... ({count} components)")
        super().__init__(f"hypermap is not connected; dart components: {listed}")
        self._pair = alpha, sigma

    @cached_property
    def components(self) -> Cycles:
        """The components, sorted by minimum (:func:`~.perm.connected_components`)."""
        return connected_components(*self._pair)


def _orbit_field(i: int, doc: str) -> property:
    """Field ``i`` of the walked families, walking them on the first read."""
    return property(lambda h: (h._families or _walk_orbits(h))[i], doc=doc)


class Hypermap(_Record):
    """A validated hypermap with cached orbit decompositions.

    A record of ``alpha`` and ``sigma``, so equal, hashed and pickled by
    them alone.  The constructor checks the degrees and, by one flat search,
    transitivity.  The cache ``_families`` holds None until the first read of
    an orbit field, which walks each orbit family once (:func:`_walk_orbits`)
    for the vertex, edge and face decompositions and their dart -> orbit
    tables (``*_index``).
    """

    __slots__ = ("alpha", "sigma", "_families")

    def __init__(self, alpha: Permutation, sigma: Permutation):
        if alpha.degree != sigma.degree:
            raise ValueError(f"degree mismatch: alpha {alpha.degree}, sigma {sigma.degree}")
        if not is_transitive(alpha, sigma):
            raise DisconnectedError(alpha, sigma)
        _set_alpha(self, alpha)
        _set_sigma(self, sigma)
        _set_families(self, None)

    vertices = _orbit_field(0, "The orbits of sigma, as canonical cycles.")
    vertex_index = _orbit_field(1, "Each dart's index into ``vertices``.")
    edges = _orbit_field(2, "The orbits of alpha, as canonical cycles.")
    edge_index = _orbit_field(3, "Each dart's index into ``edges``.")
    faces = _orbit_field(4, "The orbits of alpha^-1 sigma, as canonical cycles.")
    face_index = _orbit_field(5, "Each dart's index into ``faces``.")

    @property
    def n(self) -> int:
        """Number of darts."""
        return self.alpha.degree

    def __repr__(self) -> str:
        return (f"Hypermap(alpha={format_cycles(self.alpha)!r}, "
                f"sigma={format_cycles(self.sigma)!r}, n={self.n})")


_set_alpha, _set_sigma, _set_families = Hypermap._stores


def _walk_orbits(h: Hypermap) -> tuple:
    """Walk the vertex, edge and face families of the permutations of ``h``,
    one orbit walk each, and store them in ``h``: (vertices, vertex_index,
    edges, edge_index, faces, face_index).

    The only producer of orbit families.  Two threads that read a map's
    orbits first at once both walk it and store equal values.
    """
    alpha, sigma = h.alpha, h.sigma
    faces = [0] * alpha.degree  # alpha^-1 sigma: alpha(dart) -> sigma(dart)
    any(map(faces.__setitem__, alpha.images, sigma.images))  # each call returns None
    families = (*_orbits(sigma.images), *_orbits(alpha.images), *_orbits(faces))
    _set_families(h, families)
    return families


def _derived(alpha: Permutation, sigma: Permutation) -> Hypermap:
    """The hypermap (alpha, sigma) of two permutations that generate the group
    of a hypermap, so act transitively.  Trusted: nothing is checked, and the
    orbits are walked on first read."""
    h = Hypermap.__new__(Hypermap)
    _set_alpha(h, alpha)
    _set_sigma(h, sigma)
    _set_families(h, None)
    return h


def euler_characteristic(h: Hypermap) -> int:
    """chi of the carrier surface: sites minus darts plus faces.

    Sites are the vertices and edges together (the 0-cells of the
    bipartite incidence embedding), darts are the 1-cells, faces the
    2-cells.  Always even; at most 2.
    """
    return (len(h.vertices) + len(h.edges)) - h.n + len(h.faces)


def genus(h: Hypermap) -> int:
    return (2 - euler_characteristic(h)) // 2


def dual(h: Hypermap) -> Hypermap:
    """The dual hypermap (alpha^-1, alpha^-1 sigma).

    Shares its edges with ``h``; its vertices are the faces of ``h`` and
    its faces the vertices of ``h``.  An involution: dual(dual(h)) == h.
    """
    alpha_inv = inverse(h.alpha)
    return _derived(alpha_inv, compose(alpha_inv, h.sigma))


def triangle_dual(h: Hypermap) -> Hypermap:
    """The triangle dual (sigma^-1 alpha, sigma^-1).

    Shares its vertices with ``h``; its faces are the edges of ``h`` and
    its edges the faces of ``h``.  Also an involution.
    """
    sigma_inv = inverse(h.sigma)
    return _derived(compose(sigma_inv, h.alpha), sigma_inv)


def contrary(h: Hypermap) -> Hypermap:
    """Interchange vertices and edges: the hypermap (sigma, alpha)."""
    return _derived(h.sigma, h.alpha)


def nabla(h: Hypermap) -> Hypermap:
    """Contrary of the triangle dual: the pair (sigma^-1, sigma^-1 alpha).

    Its edges are the faces of dual(h) and its faces the edges of
    dual(h).
    """
    return contrary(triangle_dual(h))


def _random_transitive_pair(n: int, rng) -> Hypermap:
    """The first transitive pair of random permutations of degree ``n`` that
    ``rng`` draws; a rejected draw is tested once and builds no error."""
    while True:
        alpha = random_permutation(n, rng)
        sigma = random_permutation(n, rng)
        if is_transitive(alpha, sigma):
            return _derived(alpha, sigma)


def random_hypermap(n: int, seed: int) -> Hypermap:
    """Uniform random hypermap on n darts (rejection until transitive).

    Deterministic for a fixed seed.  Random pairs are transitive with
    high probability, so rejection terminates quickly even at small n.
    """
    if n < 1:
        raise ValueError("need at least one dart")
    import random  # not at start-up: only random maps draw
    return _random_transitive_pair(n, random.Random(seed))


def _random_draws(count: int, max_darts: int, seed: int) -> Iterator[Hypermap]:
    """The maps of :func:`random_corpus`, drawn one at a time as they are read."""
    if max_darts < 1:
        raise ValueError("need at least one dart")
    import random  # not at start-up: only random maps draw
    rng = random.Random(seed)
    return (_random_transitive_pair(rng.randint(1, max_darts), rng) for _ in range(count))


def random_corpus(count: int, max_darts: int, seed: int) -> list[Hypermap]:
    """A reproducible sample of hypermaps with 1 <= n <= max_darts."""
    return list(_random_draws(count, max_darts, seed))


class ParseError(ValueError):
    """Hypermap file syntax error with 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


def parse_hypermap(text: str) -> tuple[Hypermap, frozenset[int] | None]:
    """Parse the hypermap text format.

    ::

        # comments start with '#'
        darts: 8
        alpha: (4 3 2 1)(5 7 8 6)
        sigma: (7 1 6 3)(5 2 8 4)
        # the special line is optional
        special: 2 5

    Numbers are ASCII decimal digits, and the dart count is at most
    :data:`~hypermap_codes.perm.MAX_DARTS`.  Labels in the file are 1-based.
    The special darts (if any) are the set of 0-based darts that
    :func:`~hypermap_codes.perm._read_labels` reads from the line, with the
    range 1..n, as ``--special`` is read.  The line picks one dart per edge:
    it is the special set of the face code, which checks it.

    One parser reads every text the format allows: lines as ``str.splitlines``
    splits them, blank lines and whole-line ``#`` comments skipped, spaces
    free around keys and values.  Every fault raises :class:`ParseError`
    with its line and column.
    """
    lines = text.splitlines()
    fields: list[tuple[int, str, str, str]] = []  # (line number, line, key, value)
    for lineno, raw in enumerate(lines, start=1):
        key, colon, value = raw.partition(":")
        key = key.strip()
        if key.startswith("#") or not (key or colon):
            continue  # a comment or a blank line
        if not colon:
            raise ParseError(lineno, 1, "expected 'key: value'")
        fields.append((lineno, raw, key, value.strip()))

    for (lineno, _, key, _), want in zip(fields, ("darts", "alpha", "sigma")):
        if key != want:
            raise ParseError(lineno, 1, f"expected {want!r} line, found {_quoted(key)}")
    if len(fields) < 3:
        raise ParseError(len(lines) + 1, 1, "expected 'darts:', 'alpha:' and 'sigma:' lines")
    if len(fields) > 4:
        raise ParseError(fields[4][0], 1, f"unexpected extra line {_quoted(fields[4][2])}")
    if len(fields) == 4 and fields[3][2] != "special":
        raise ParseError(fields[3][0], 1, f"expected 'special' line, found {_quoted(fields[3][2])}")

    lineno, raw, _, value = fields[0]
    if not (value.isascii() and value.isdigit() and value.strip("0")):
        raise ParseError(lineno, _value_col(raw),
                         f"dart count must be a positive integer, found {_quoted(value)}")
    # the length check runs first: int() refuses more than 4300 digits
    if len(value.lstrip("0")) > len(str(MAX_DARTS)) or (n := decimal_value(value)) > MAX_DARTS:
        raise ParseError(lineno, _value_col(raw), f"dart count exceeds the limit of {MAX_DARTS}")

    perms = []
    for lineno, raw, key, value in fields[1:3]:
        try:
            perms.append(parse_cycles(value, n))
        except ValueError as exc:
            col = _value_col(raw) + getattr(exc, "col", 1) - 1
            raise ParseError(lineno, col, f"bad {key} cycles: {exc}") from exc

    special: frozenset[int] | None = None
    if len(fields) == 4:
        lineno, raw, _, value = fields[3]
        try:
            special = _read_labels(value.split(), n)
        except _LabelError as exc:  # the column of the token at fault: its start in value
            offset = len(value) - len(value.split(None, exc.index)[exc.index])
            raise ParseError(lineno, _value_col(raw) + offset, f"special dart {exc}") from None
    return Hypermap(perms[0], perms[1]), special


def _value_col(raw: str) -> int:
    """The 1-based column where the value of the ``key: value`` line ``raw`` begins."""
    return len(raw) - len(raw.partition(":")[2].lstrip()) + 1


def format_hypermap(h: Hypermap, special=None) -> str:
    """Render in the hypermap text format (1-based labels); a ``special`` set of
    darts 0..n-1 adds the ``special:`` line, or raises."""
    lines = [f"darts: {h.n}",
             f"alpha: {format_cycles(h.alpha)}",
             f"sigma: {format_cycles(h.sigma)}"]
    if special is not None:
        lines.append(_special_line(h, special))
    return "\n".join(lines) + "\n"


def _special_labels(h: Hypermap, special) -> list[int]:
    """The 1-based labels of ``special``, ascending, as every writer of a special
    set writes them: a ValueError refuses anything but distinct ``int`` darts 0..n-1."""
    labels = {i + 1 for i in special if type(i) is int and 0 <= i < h.n}
    if len(labels) != len(special):
        raise ValueError(f"special {_quoted(special)} is not a set of darts 0..{h.n - 1}")
    return sorted(labels)


def _special_line(h: Hypermap, special) -> str:
    """The ``special:`` line of a set of darts of ``h`` (1-based, ascending)."""
    return "special: " + " ".join(map(str, _special_labels(h, special)))
