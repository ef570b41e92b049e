"""Permutations of {0, ..., n-1} with left-to-right composition.

Conventions used throughout the package:

- A permutation is stored as its image table: position ``i`` holds the
  image of ``i``.
- Composition is left to right: ``compose(p, q)`` applies ``p`` first and
  then ``q``, so ``compose(p, q)(i) == q(p(i))``.  Every caller relies on
  this; do not flip it.
- ``_orbits`` is the one orbit walker: ``cycle_decomposition`` and the
  orbit families of ``Hypermap``, with their index maps, come from it.
- ``Permutation(images)`` validates its input.  Permutations this module
  makes itself (``compose``, ``inverse``, ``parse_cycles`` after its own
  range and repeat checks, ``random_permutation``) are bijections by
  construction and come from ``_unchecked``, which skips that sort.
- ``_Record`` is the base of the package's immutable records, here and in
  the layers above: equality, hashing, repr, pickling and refused
  assignment over the fields a subclass names in ``__slots__``, and the
  one way to write those fields (``_stores``).  A slot whose name starts
  with ``_`` is a cache, not a field.
- Labels are 0-based in memory and 1-based in text.  Text labels become
  darts here, by one rule: cycle text in ``parse_cycles`` and a label list
  (a ``special:`` line, ``--special``) in ``_read_labels``; only JSON is
  read elsewhere, in ``export``.  Each writer of text (``format_cycles``,
  the ``special:`` line, CLI output, JSON, error messages) adds the 1 back.
  ``parse_cycles`` checks ``"(4 3 2 1)(5 7 8 6)"`` by its shape (``_SHAPE``),
  then tokenizes the whole text once, with each ``)`` as the sentinel
  label 0, and checks the one label list; a character walker only names
  errors.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import attrgetter

Cycles = tuple[tuple[int, ...], ...]

# Largest dart count the parsers and the CLI accept.  Parsing allocates
# tables of this length, so the cap is checked before anything else; it
# sits well above the 16,384 darts of the square-lattice torus {4,4}_64.
MAX_DARTS = 1_000_000


class _Record:
    """Base of an immutable record whose ``__slots__`` name its fields in constructor order.

    A slot whose name starts with ``_`` is a cache, not a field: the caches
    follow the fields in ``__slots__``, hold None until a record fills them,
    and take no part in equality, hashing, repr or pickling.  ``_fields``
    names the fields, and ``_stores`` holds each slot's own setter, in
    ``__slots__`` order, which the refusing ``__setattr__`` does not reach.
    The subclass ``__init__`` checks its arguments, then calls each slot's
    setter, unpacked from ``_stores`` at module level, once: a value for
    each field and None for each cache, with no loop between the calls.
    Records are equal when they are of one class with equal fields, hash
    over their fields, print as ``Name(field=value, ...)``, pickle through
    their constructor, and refuse assignment and deletion with
    ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)  # the fields' tuple; a lone field's bare value
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Record):
    """A bijection on {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        if set(map(type, images)) != {int}:  # so 1.0 and True are refused
            raise ValueError(f"images {_quoted(images)} are not all integers")
        if sorted(images) != list(range(n)):
            raise ValueError(f"images {_quoted(images)} are not a bijection on 0..{n - 1}")
        _set_images(self, images)

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


_set_images, = Permutation._stores  # inlined below: ~7,000 calls per corpus pass


def _unchecked(images: tuple[int, ...]) -> Permutation:
    """A permutation of an image tuple already known to be a bijection on 0..n-1, n >= 1."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


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
    return _unchecked(tuple(map(q.images.__getitem__, p.images)))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation: ``compose(p, inverse(p))`` is the identity."""
    inv = [0] * p.degree
    for i, pi in enumerate(p.images):
        inv[pi] = i
    return _unchecked(tuple(inv))


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


def _reach(a, b, start: int, seen: list[bool]) -> list[int]:
    """Labels reached from ``start`` by the images in ``a`` and ``b``, marked in
    ``seen``; a set closed under a permutation is closed under its inverse."""
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
    seen[start] = True
    order = [start]
    for x in order:  # the list grows while it is walked: a flat BFS queue
        y = a[x]
        if not seen[y]:
            seen[y] = True
            order.append(y)
        y = b[x]
        if not seen[y]:
            seen[y] = True
            order.append(y)
    return order


def _components(p: Permutation, q: Permutation) -> Iterator[list[int]]:
    """The components of ``p`` and ``q`` in order of their minimum, each walked
    by :func:`_reach` as it is read, in the order that walk reaches its labels."""
    seen = [False] * p.degree
    return (_reach(p.images, q.images, i, seen) for i in range(p.degree) if not seen[i])


def connected_components(p: Permutation, q: Permutation) -> Cycles:
    """Orbits of the group generated by ``p`` and ``q``, sorted by minimum.

    Two labels are in the same component when some word in p, q (and
    their inverses) maps one to the other.
    """
    return tuple(tuple(sorted(c)) for c in _components(p, q))


def is_transitive(p: Permutation, q: Permutation) -> bool:
    """True when the group generated by ``p`` and ``q`` has a single orbit."""
    return len(_reach(p.images, q.images, 0, [False] * p.degree)) == p.degree


def random_permutation(n: int, rng) -> Permutation:
    """Uniformly random permutation drawn from ``rng``, a ``random.Random``."""
    if n < 1:
        raise ValueError("permutation degree must be at least 1")
    images = list(range(n))
    rng.shuffle(images)
    return _unchecked(tuple(images))


def decimal_value(digits: str) -> int:
    """ASCII decimal digits read past their zero padding, which ``int()`` counts to its limit."""
    return int(digits.lstrip("0") or "0")


def _quoted(value) -> str:
    """``repr(value)`` as a refusal quotes it: past 64 characters of a string, or of a
    repr, their first 64 and ``...``."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 64 else repr(value[:64]) + "..."
    text = repr(value)
    return text if len(text) <= 64 else text[:64] + "..."


def _orbit_list(rows, form: str, sep: str, tail: str) -> str:
    """``form`` filled with each row's orbit, in 1-based braces, and its other fields,
    joined by ``sep``: whole orbits up to 64 labels in all, then ``tail`` if any is left out."""
    shown, room = [], 64
    for orbit, *fields in rows:
        if len(orbit) > room:
            return sep.join([*shown, tail])
        shown.append(form.format("{" + " ".join(str(i + 1) for i in orbit) + "}", *fields))
        room -= len(orbit)
    return sep.join(shown)


class CycleParseError(ValueError):
    """Malformed cycle-notation text; ``col`` is the 1-based offending column."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


class _LabelError(ValueError):
    """A refused label list; ``index`` is the position of its first token at fault."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _label(token: str, high: int, seen: set[int]) -> int:
    """The one label rule: ``token`` is ASCII decimal digits, read by value past
    their zero padding, its width checked before ``int()`` (which refuses 4300
    digits), in 1..``high`` and not in ``seen``, which takes it.  A ValueError
    names the fault."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{_quoted(token)} is not a decimal label")
    significant = token.lstrip("0")
    if len(significant) > len(str(high)):
        raise ValueError(f"of {len(significant)} digits outside 1..{high}")
    label = decimal_value(token)
    if not 1 <= label <= high:
        raise ValueError(f"{label} outside 1..{high}")
    if label in seen:
        raise ValueError(f"{label} appears twice")
    seen.add(label)
    return label


def _read_labels(tokens: list[str], high: int) -> frozenset[int]:
    """The set of 0-based darts of the labels ``tokens`` under :func:`_label`'s
    rule: when the joined tokens are ASCII digits, one ``int`` pass reads them,
    and any list it refuses (an empty token, one over ``int()``'s 4300 digits,
    a label out of range or repeated) is walked with :func:`_label`, to its
    darts or to a :class:`_LabelError`."""
    joined = "".join(tokens)
    if joined.isascii() and joined.isdigit():
        try:
            darts = frozenset(map((-1).__add__, map(int, tokens)))
        except ValueError:
            pass
        else:
            if 0 <= min(darts) and max(darts) < high and len(darts) == len(tokens):
                return darts
    seen: set[int] = set()
    try:
        return frozenset([_label(token, high, seen) - 1 for token in tokens])
    except ValueError as exc:  # each label before the fault added one value to seen
        raise _LabelError(str(exc), len(seen)) from None


_SHAPE = str.maketrans(  # the shape parse_cycles checks: ASCII digits as 1, str.isspace dropped
    "0123456789", "1" * 10, "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_PARENS = str.maketrans("", "", "1")  # the shape less its 1s; str.replace takes 7x as long


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``"(4 3 2 1)(5 7 8 6)"``.

    Labels omitted from every cycle are fixed points; the degree cannot be
    recovered from the cycles alone, so it is passed in and must lie in
    1..MAX_DARTS.  A label that appears twice (in one cycle or across
    cycles) is an error.

    Text of the grammar's shape (digit runs only inside unnested ``()``
    pairs) is split once into labels, each ``)`` read as the sentinel 0
    that closes a cycle; one range check and one repeat check on that
    list, which also catches a label 0, accept it.  Text that the shape
    or a check refuses goes to the walker, to name the first error.
    """
    if degree < 1:
        raise CycleParseError("degree must be at least 1", 1)
    if degree > MAX_DARTS:
        raise CycleParseError(f"degree must be at most {MAX_DARTS}", 1)
    closes = text.count(")")
    shape = text.translate(_SHAPE)
    if shape.translate(_PARENS) != "()" * closes or ")1" in shape or shape.startswith("1"):
        _raise_first_error(text, degree)
    tokens = text.replace("(", " ").replace(")", " 0 ").split()  # each ")" as the label 0
    try:
        labels = list(map(int, tokens))
    except ValueError:  # int() refuses over 4300 digits, leading zeros included
        if any(len(token.lstrip("0")) > len(str(degree)) for token in tokens):
            _raise_first_error(text, degree)
        labels = list(map(decimal_value, tokens))
    # the closing zeros and the real labels are distinct only when no label is 0 or repeated
    if labels and (max(labels) > degree or len(set(labels)) != len(labels) - closes + 1):
        _raise_first_error(text, degree)
    images = list(range(-1, degree))  # by 1-based label; slot 0 keeps an open cycle's first image
    last = 0
    for label in labels:
        if label:  # the previous label maps to this one
            images[last] = label - 1
            last = label
        else:  # ")": the cycle's last label maps to its first
            images[last] = images[0]
            last = 0
    del images[0]
    return _unchecked(tuple(images))


def _raise_first_error(text: str, degree: int) -> "NoReturn":
    """Walk refused cycle text one character at a time and raise its first error."""
    used: set[int] = set()
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
            try:
                _label(text[start:pos], degree, used)
            except ValueError as exc:
                raise CycleParseError(f"dart label {exc}", start + 1) from None
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
