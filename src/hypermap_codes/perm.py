"""Permutations of {0, ..., n-1} with left-to-right composition.

Conventions used throughout the package:

- A permutation is stored as its image table: position ``i`` holds the
  image of ``i``.
- Composition is left to right: ``compose(p, q)`` applies ``p`` first and
  then ``q``, so ``compose(p, q)(i) == q(p(i))``.  Every caller relies on
  this; do not flip it.
- ``_orbits`` is the one orbit walker: ``cycle_decomposition`` and the
  orbit families of ``Hypermap``, with their index maps, come from it.
- Labels are 0-based internally.  The cycle-notation text format
  (``"(4 3 2 1)(5 7 8 6)"``) is 1-based and is the only place where the
  off-by-one conversion happens.  ``parse_cycles`` reads it with one
  grammar scan and list checks; a character walker only names errors.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import NoReturn

Cycles = tuple[tuple[int, ...], ...]

# Largest dart count the parsers and the CLI accept.  Parsing allocates
# tables of this length, so the cap is checked before anything else; it
# sits well above the 16,384 darts of the square-lattice torus {4,4}_64.
MAX_DARTS = 1_000_000


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images {self.images!r} are not a bijection on 0..{n - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"Permutation.parse({format_cycles(self)!r}, {self.degree})"

    @staticmethod
    def parse(text: str, degree: int) -> "Permutation":
        return parse_cycles(text, degree)


def identity(n: int) -> Permutation:
    """The identity permutation on {0..n-1}."""
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: apply ``p`` first, then ``q``.

    >>> p = Permutation((1, 2, 0))
    >>> q = Permutation((0, 2, 1))
    >>> compose(p, q).images     # i -> q(p(i))
    (2, 1, 0)
    """
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(q.images[x] for x in p.images))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation: ``compose(p, inverse(p))`` is the identity."""
    inv = [0] * p.degree
    for i, pi in enumerate(p.images):
        inv[pi] = i
    return Permutation(tuple(inv))


def cycle_decomposition(p: Permutation) -> Cycles:
    """Disjoint cycles of ``p`` in canonical form.

    Each cycle starts at its minimum label and cycles are sorted by that
    minimum; fixed points appear as length-1 cycles, so the cycles
    partition {0..n-1}.

    >>> cycle_decomposition(Permutation((1, 0, 2)))
    ((0, 1), (2,))
    """
    return _orbits(p.images)[0]


def _orbits(images) -> tuple[Cycles, tuple[int, ...]]:
    """The one orbit walker: the canonical cycles of an image table, and
    for each label the index of its cycle.  The table is not validated."""
    index = [-1] * len(images)
    cycles = []
    for start in range(len(images)):
        if index[start] < 0:
            k = len(cycles)
            cycle = [start]
            index[start] = k
            pos = images[start]
            while pos != start:
                cycle.append(pos)
                index[pos] = k
                pos = images[pos]
            cycles.append(tuple(cycle))
    return tuple(cycles), tuple(index)


def as_partition(cycles: Cycles) -> frozenset[frozenset[int]]:
    """Forget cyclic order: the orbits as an unordered set partition."""
    return frozenset(frozenset(c) for c in cycles)


def _reach(a, b, start: int, seen: list[bool]) -> list[int]:
    """Labels reached from ``start`` by the images in ``a`` and ``b``, marked in
    ``seen``; a set closed under a permutation is closed under its inverse."""
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
    seen[start] = True
    order = [start]
    for x in order:  # the list grows while it is walked: a flat BFS queue
        for y in (a[x], b[x]):
            if not seen[y]:
                seen[y] = True
                order.append(y)
    return order


def connected_components(p: Permutation, q: Permutation) -> Cycles:
    """Orbits of the group generated by ``p`` and ``q``, sorted by minimum.

    Two labels are in the same component when some word in p, q (and
    their inverses) maps one to the other.
    """
    seen = [False] * p.degree
    return tuple(tuple(sorted(_reach(p.images, q.images, i, seen)))
                 for i in range(p.degree) if not seen[i])


def is_transitive(p: Permutation, q: Permutation) -> bool:
    """True when the group generated by ``p`` and ``q`` has a single orbit."""
    return len(_reach(p.images, q.images, 0, [False] * p.degree)) == p.degree


def random_permutation(n: int, rng: random.Random) -> Permutation:
    """Uniformly random permutation drawn from ``rng``."""
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def decimal_value(digits: str) -> int:
    """ASCII decimal digits read past their zero padding, which ``int()`` counts to its limit."""
    return int(digits.lstrip("0") or "0")


class CycleParseError(ValueError):
    """Malformed cycle-notation text; ``col`` is the 1-based offending column."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


# The cycle grammar (``\s`` is the str.isspace set).  A label run ends at whitespace
# or ")", so a failed match backtracks over each character a bounded number of times.
_CYCLE_TEXT = re.compile(r"\s*(?:\(\s*(?:[0-9]+(?:\s+[0-9]+)*\s*)?\)\s*)*")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``"(4 3 2 1)(5 7 8 6)"``.

    Labels omitted from every cycle are fixed points; the degree cannot be
    recovered from the cycles alone, so it is passed in and must lie in
    1..MAX_DARTS.  A label that appears twice (in one cycle or across
    cycles) is an error.

    Text that matches the grammar is split and checked as lists; text that
    the scan or a check refuses goes to the walker, to name the first error.
    """
    if degree < 1:
        raise CycleParseError("degree must be at least 1", 1)
    if degree > MAX_DARTS:
        raise CycleParseError(f"degree must be at most {MAX_DARTS}", 1)
    if not _CYCLE_TEXT.fullmatch(text):
        _raise_first_error(text, degree)
    pieces = [piece.partition("(")[2].split() for piece in text.split(")")[:-1]]
    try:
        cycles = [list(map(int, labels)) for labels in pieces]
    except ValueError:  # int() refuses over 4300 digits, leading zeros included
        if any(len(label.lstrip("0")) > len(str(degree)) for labels in pieces for label in labels):
            _raise_first_error(text, degree)
        cycles = [list(map(decimal_value, labels)) for labels in pieces]
    labels = [label for cycle in cycles for label in cycle]
    if labels and (min(labels) < 1 or max(labels) > degree) or len(set(labels)) < len(labels):
        _raise_first_error(text, degree)
    images = list(range(degree))
    for cycle in filter(None, cycles):  # "()" is an empty cycle
        b = cycle[0]  # each label maps to the next; the last to the first
        for a in reversed(cycle):
            images[a - 1] = b - 1
            b = a
    return Permutation(tuple(images))


def _raise_first_error(text: str, degree: int) -> NoReturn:
    """Walk refused cycle text one character at a time and raise its first error."""
    width = len(str(degree))
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
                raise CycleParseError(f"expected a dart label, found {token!r}", start + 1)
            # checked before int(), which refuses more than 4300 digits
            if len(token) > width and len(token.lstrip("0")) > width:
                raise CycleParseError(
                    f"dart label of {len(token.lstrip('0'))} digits outside 1..{degree}",
                    start + 1)
            label = decimal_value(token)
            if not 1 <= label <= degree:
                raise CycleParseError(f"dart label {label} outside 1..{degree}", start + 1)
            if used[label - 1]:
                raise CycleParseError(f"dart label {label} appears twice", start + 1)
            used[label - 1] = True
    raise AssertionError(f"no error found in refused cycle text {text!r}")


def format_cycles(p: Permutation) -> str:
    """Render in 1-based cycle notation, omitting fixed points.

    The identity renders as ``"()"``.  Inverse of :func:`parse_cycles` up
    to the canonical choice of starting each cycle at its minimum label.
    """
    parts = [
        "(" + " ".join(str(x + 1) for x in cycle) + ")"
        for cycle in cycle_decomposition(p)
        if len(cycle) > 1
    ]
    return "".join(parts) if parts else "()"
