"""Reduction of a face code to a surface-code cell complex.

The cell complex keeps the hypermap's vertices as 0-cells, one 1-cell per
non-special dart, and one 2-cell per face.  Each 1-cell has two sides: the
face of its own dart and the face of the special dart of its edge.  The
2-cell/1-cell incidence counts those sides over the natural numbers, so it
is the lift of the face code's side pairs: two sides become two 1s, and a
pair ``(none, none)``, whose two sides are one face, becomes a 2 at that
face.  Mod 2 the counts give the face code back, while their row totals
witness the closed-surface condition: every 1-cell must be traversed
exactly twice overall.

The counts are stored sparse, as each 1-cell's nonzero ``(column, count)``
pairs, and the 1-cell/0-cell incidence as the face code's own ``ends``
pairs, so the complex is built and checked in time linear in the darts.
The sparse counts are the complex's one form: ``CellComplex.count_lines``
yields their dense rows one at a time, so the ``reduce`` command writes
them without holding the whole table, and ``CellComplex.count_block``
writes a table of at most ``gf2.BLOCK_BYTES`` in one scatter.
Validation works on the pairs alone: the chain condition is the
commutation test of :mod:`~hypermap_codes.gf2` fed with each 1-cell's
odd counts, and the match with the face code compares pairs and masks.
Both functions below take the face code that the caller built once; the
face code also fixes the hypermap's Euler characteristic, since its
qubits are the darts less one special dart per edge.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import gf2
from .chain import FACE, QuotientCode
from .gf2 import Pairs, commutes, masks
from .hypermap import Hypermap
from .perm import _Record


class CellComplex(_Record):
    """A 2-dimensional cell complex with natural-number 2->1 incidence.

    ``zero_cells`` are vertex orbit minima, ``one_cells`` non-special
    dart labels, ``two_cells`` face orbit minima (all 0-based).
    ``counts21`` holds each 1-cell's ``(column, count)`` pairs, sorted by
    2-cell column with zero counts left out, which ``count_lines`` writes as
    dense 1-cells x 2-cells rows.  ``ends`` holds each 1-cell's two 0-cells
    as a pair padded with the 0-cell count, like a code's X-check pairs:
    the 0-cells x 1-cells incidence over GF(2).
    """

    __slots__ = ("zero_cells", "one_cells", "two_cells", "counts21", "ends")

    def __init__(self, zero_cells: tuple[int, ...], one_cells: tuple[int, ...],
                 two_cells: tuple[int, ...], counts21: tuple[tuple[tuple[int, int], ...], ...],
                 ends: Pairs):
        _set_zero_cells(self, zero_cells)
        _set_one_cells(self, one_cells)
        _set_two_cells(self, two_cells)
        _set_counts21(self, counts21)
        _set_ends(self, ends)

    @property
    def euler_characteristic(self) -> int:
        return len(self.zero_cells) - len(self.one_cells) + len(self.two_cells)

    def count_lines(self, sep: str) -> Iterator[str]:
        """Each 1-cell's dense row joined by ``sep``, one at a time: its counts
        are scattered into a copy of one all-zero line, right to left, so that
        a wider count such as ``10`` or ``-1`` shifts only the bytes after it."""
        zeros, step = sep.join("0" * len(self.two_cells)).encode(), len(sep.encode()) + 1
        for pairs in self.counts21:
            line = bytearray(zeros)
            for j, v in reversed(pairs):
                at = step * j
                if 0 <= v <= 9:
                    line[at] = 48 + v  # ord("0") + v
                else:
                    line[at:at + 1] = str(v).encode()
            yield line.decode()

    def count_block(self, sep: str) -> str | None:
        """The lines of :meth:`count_lines` as one text, each ended by a
        newline, or None when its all-zero text is over ``gf2.BLOCK_BYTES``.
        One all-zero line is copied per 1-cell and the counts scattered into
        the copies.  A wider count such as ``10`` or ``-1`` goes in by one
        join over the unshifted block at the end, not by a splice each, so
        that each byte moves once however many counts are wide."""
        zeros = (sep.join("0" * len(self.two_cells)) + "\n").encode()
        width, step = len(zeros), len(sep.encode()) + 1
        if len(self.counts21) * width > gf2.BLOCK_BYTES:
            return None
        block = bytearray(zeros) * len(self.counts21)
        wide, row = [], 0  # wide: the offset and text of each wider count, in order
        for pairs in self.counts21:
            for j, v in pairs:
                if 0 <= v <= 9:
                    block[row + step * j] = 48 + v  # ord("0") + v
                else:
                    wide.append((row + step * j, str(v).encode()))
            row += width
        if wide:
            parts, start = [], 0
            for at, text in wide:
                parts += block[start:at], text
                start = at + 1
            block = b"".join([*parts, block[start:]])
        return block.decode()


_set_zero_cells, _set_one_cells, _set_two_cells, _set_counts21, _set_ends = CellComplex._stores


class CheckResult(_Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        _set_name(self, name)
        _set_passed(self, passed)
        _set_detail(self, detail)


_set_name, _set_passed, _set_detail = CheckResult._stores


class SurfaceReport(_Record):
    """Per-invariant validation outcome for a cell complex."""

    __slots__ = ("checks", "euler_characteristic")

    def __init__(self, checks: tuple[CheckResult, ...], euler_characteristic: int):
        _set_checks(self, checks)
        _set_euler_characteristic(self, euler_characteristic)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"euler-characteristic: {self.euler_characteristic}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name}: {status}{suffix}")
        lines.append("surface-validation: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


_set_checks, _set_euler_characteristic = SurfaceReport._stores


def reduce_to_surface(h: Hypermap, code: QuotientCode) -> CellComplex:
    """Build the surface-code cell complex of ``code``, a face code of ``h``
    (``ValueError`` for another kind).

    The counts lift the face code's sides, so their mod-2 projection is
    exactly the face code, and the complex keeps the code's ``ends`` as
    they are: same boundary matrices, hence the same stabilizer code and
    homology.
    """
    if code.kind != FACE:
        raise ValueError(f"the surface reduction needs a face code, got a {code.kind} code")
    none, face_of = len(code.z_labels), h.face_index
    counts = tuple(
        # two sides: one in each of two faces; none: both in the dart's face
        ((a, 1), (b, 1)) if a != none else ((face_of[dart], 2),)
        for dart, (a, b) in zip(code.qubit_labels, code.sides))
    return CellComplex(
        zero_cells=code.x_labels,
        one_cells=code.qubit_labels,
        two_cells=code.z_labels,
        counts21=counts,
        ends=code.ends,
    )


def validate_surface(c: CellComplex, code: QuotientCode | None = None) -> SurfaceReport:
    """Check the cell-complex invariants; failures become report entries.

    Standalone checks: every 1-cell is traversed exactly twice in total,
    the two incidence maps compose to zero mod 2, and the Euler
    characteristic is even.  Given the face code of the source hypermap
    (``ValueError`` for another kind), additionally check that the mod-2
    complex reproduces that code and that the Euler characteristic matches
    the hypermap's, which the code's check and qubit counts fix:
    V - (n - E) + F.
    """
    if code is not None and code.kind != FACE:
        raise ValueError(f"surface validation needs a face code, got a {code.kind} code")
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(CheckResult(name, ok, "" if ok else detail))

    bad_closure, odd = [], []  # odd: each 1-cell's counts mod 2, as a mask
    for dart, pairs in zip(c.one_cells, c.counts21):
        total = mask = 0
        for j, v in pairs:
            total += v
            mask += (v & 1) << j
        if total != 2:
            bad_closure.append((dart, total))
        odd.append(mask)
    check("one-cell-closure", not bad_closure, "1-cells with incidence != 2: " + ", ".join(
        f"{dart + 1} (total {total})" for dart, total in bad_closure))

    check("chain-condition", commutes(c.ends, len(c.zero_cells), odd),
          "incidence10 * incidence21 != 0 mod 2")

    chi = c.euler_characteristic
    check("euler-even", chi % 2 == 0, f"chi = {chi} is odd")

    if code is not None:
        faces = len(code.z_labels)
        check("face-code-z-match", len(c.two_cells) == faces and odd == masks(code.sides, faces),
              "incidence21 mod 2 differs from the face-code boundary")
        check("face-code-x-match", len(c.zero_cells) == len(code.x_labels) and c.ends == code.ends,
              "incidence10 differs from the face-code vertex boundary")
        chi_h = len(code.x_labels) - len(code.qubit_labels) + faces
        check("euler-match", chi == chi_h, f"complex chi {chi} != hypermap chi {chi_h}")

    return SurfaceReport(checks=tuple(checks), euler_characteristic=chi)
