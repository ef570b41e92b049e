"""Reduction of a face code to a surface-code cell complex.

The cell complex keeps the hypermap's vertices as 0-cells, one 1-cell per
non-special dart, and one 2-cell per face.  Each 1-cell has two sides: the
face of its own dart and the face of the special dart of its edge.  The
2-cell/1-cell incidence counts those sides over the natural numbers, so it
is the lift of the face code's boundary matrix: a weight-2 row becomes two
1s, and a zero row, whose two sides are one face, becomes a 2 at that
face.  Mod 2 the counts give the face code back, while their row totals
witness the closed-surface condition: every 1-cell must be traversed
exactly twice overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from . import gf2
from .chain import face_code
from .gf2 import BitMatrix
from .hypermap import Hypermap, SpecialDarts, euler_characteristic


@dataclass(frozen=True)
class CellComplex:
    """A 2-dimensional cell complex with natural-number 2->1 incidence.

    ``zero_cells`` are vertex orbit minima, ``one_cells`` non-special
    dart labels, ``two_cells`` face orbit minima (all 0-based).
    ``incidence21`` has one row per 1-cell and one column per 2-cell;
    ``incidence10`` is 0-cells x 1-cells over GF(2).
    """

    zero_cells: tuple[int, ...]
    one_cells: tuple[int, ...]
    two_cells: tuple[int, ...]
    incidence21: tuple[tuple[int, ...], ...]
    incidence10: BitMatrix

    @property
    def euler_characteristic(self) -> int:
        return len(self.zero_cells) - len(self.one_cells) + len(self.two_cells)

    def incidence21_mod2(self) -> BitMatrix:
        # compress(count(), row) visits only the columns with a nonzero count
        bits = tuple(
            sum(1 << j for j in compress(count(), row) if row[j] & 1)
            for row in self.incidence21
        )
        return BitMatrix(len(self.one_cells), len(self.two_cells), bits)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SurfaceReport:
    """Per-invariant validation outcome for a cell complex."""

    checks: tuple[CheckResult, ...]
    euler_characteristic: int

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


def reduce_to_surface(h: Hypermap, s: SpecialDarts) -> CellComplex:
    """Build the surface-code cell complex of the face code of (h, s).

    The counts lift the face code's ``boundary2``, so their mod-2
    projection is exactly the face code: same boundary matrices, hence
    the same stabilizer code and homology.
    """
    code = face_code(h, s)
    width = len(code.z_labels)
    counts = []
    for dart, row in zip(code.qubit_labels, code.boundary2.bits):
        entries = [0] * width
        if row:  # exactly two bits, one per side
            top = row.bit_length() - 1
            entries[top] = entries[(row ^ (1 << top)).bit_length() - 1] = 1
        else:  # both sides are the dart's own face
            entries[h.face_of(dart)] = 2
        counts.append(tuple(entries))
    return CellComplex(
        zero_cells=code.x_labels,
        one_cells=code.qubit_labels,
        two_cells=code.z_labels,
        incidence21=tuple(counts),
        incidence10=code.boundary1,
    )


def validate_surface(c: CellComplex, h: Hypermap | None = None,
                     s: SpecialDarts | None = None) -> SurfaceReport:
    """Check the cell-complex invariants; failures become report entries.

    Standalone checks: every 1-cell is traversed exactly twice in total,
    the two incidence maps compose to zero mod 2, and the Euler
    characteristic is even.  Given the source hypermap and special set,
    additionally check that the mod-2 complex reproduces the face code
    and that the Euler characteristic matches the hypermap's.
    """
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(CheckResult(name, ok, "" if ok else detail))

    bad_closure = [
        (c.one_cells[i], total)
        for i, row in enumerate(c.incidence21)
        if (total := sum(row)) != 2
    ]
    check("one-cell-closure", not bad_closure, "1-cells with incidence != 2: " + ", ".join(
        f"{dart + 1} (total {total})" for dart, total in bad_closure))

    incidence21_mod2 = c.incidence21_mod2()
    check("chain-condition", gf2.is_zero(gf2.multiply(c.incidence10, incidence21_mod2)),
          "incidence10 * incidence21 != 0 mod 2")

    chi = c.euler_characteristic
    check("euler-even", chi % 2 == 0, f"chi = {chi} is odd")

    if h is not None and s is not None:
        code = face_code(h, s)
        check("face-code-z-match", incidence21_mod2 == code.boundary2,
              "incidence21 mod 2 differs from the face-code boundary")
        check("face-code-x-match", c.incidence10 == code.boundary1,
              "incidence10 differs from the face-code vertex boundary")
        check("euler-match", chi == euler_characteristic(h),
              f"complex chi {chi} != hypermap chi {euler_characteristic(h)}")

    return SurfaceReport(checks=tuple(checks), euler_characteristic=chi)
