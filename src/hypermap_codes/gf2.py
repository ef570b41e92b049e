"""Bit-packed GF(2) matrices: validate, parse, render.

Each matrix row is one Python int; bit ``j`` of a row is the entry in
column ``j``.  Everything is immutable.

Cost model: ``render`` and ``to_strings`` format each row with
``format``, one C-level call per row, never a Python loop over every
entry.  They serve the public matrix views only: the CLI and JSON export
write their dense blocks straight from check pairs, one row at a time
(``chain.dense_rows``), and build no matrix.  No arithmetic lives here:
every code and cell complex is stored as per-qubit check pairs, and
ranks and chain conditions are computed on those pairs
(:mod:`~hypermap_codes.css`).

``BitMatrix(rows, cols, bits)`` validates its shape and rows.  The
matrices this package builds itself, the views that
``chain.check_major`` makes from pairs, fit their shape by construction
and come from ``BitMatrix._trusted``, which skips that check.
"""

from __future__ import annotations

from typing import Sequence

from .perm import _Record


class BitMatrix(_Record):
    """A rows x cols matrix over GF(2), one int bitmask per row."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: Sequence[int]):
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
        self._fill(rows, cols, bits)

    def get(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1


def from_strings(rows: Sequence[str], cols: int | None = None) -> BitMatrix:
    """Build from '0'/'1' row strings, e.g. ["110", "011"]."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    bits = []
    for row in rows:
        if not isinstance(row, str) or len(row) != cols or row.strip("01"):
            raise ValueError(f"bad matrix row {row!r}")
        bits.append(int(row[::-1], 2) if cols else 0)
    return BitMatrix(len(bits), cols, tuple(bits))


def to_strings(m: BitMatrix) -> list[str]:
    if m.cols == 0:
        return [""] * m.rows
    spec = f"0{m.cols}b"
    return [format(row, spec)[::-1] for row in m.bits]


def render(m: BitMatrix) -> str:
    """Newline-separated '0'/'1' rows; the text format used by the CLI."""
    return "\n".join(to_strings(m))
