"""CSS code assembly, stabilizer rendering, and exact distance search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf2
from .chain import EDGE, QuotientCode
from .gf2 import BitMatrix

# Exhaustive-by-weight search gets expensive past this many qubits.
DISTANCE_QUBIT_CAP = 28


class CommutationError(RuntimeError):
    """H_X and H_Z fail to commute; impossible for codes built upstream."""


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a minimum-weight logical-operator search.

    ``dx``/``dz`` are the per-class minima, or None when that class has
    no logical operator of weight <= budget.  ``d`` is their minimum and
    is exact unless both classes exceeded the budget, in which case every
    logical operator has weight at least budget + 1.
    """

    dx: int | None
    dz: int | None
    d: int | None
    exact: bool
    no_logicals: bool
    budget: int


@dataclass(frozen=True)
class CssCode:
    """A CSS stabilizer code with its hypermap bookkeeping.

    ``hx`` is X-checks x qubits, ``hz`` is Z-checks x qubits, and
    hx * hz^T = 0.  ``qubit_labels`` are the dart labels carrying the
    qubits; ``x_labels``/``z_labels`` are the orbit minima naming the
    check rows, with ``z_axis`` recording whether the Z checks come from
    faces or edges.
    """

    hx: BitMatrix
    hz: BitMatrix
    qubit_labels: tuple[int, ...]
    x_labels: tuple[int, ...]
    z_labels: tuple[int, ...]
    z_axis: str
    n: int
    k: int
    d: DistanceResult | None = None


def assemble(q: QuotientCode) -> CssCode:
    """Assemble the CSS code of a quotient complex.

    H_X is the vertex boundary and H_Z the transpose of the Z-axis
    boundary; the logical count is n minus the two check ranks.  The
    commutation check is a guard against upstream bugs: it cannot fire
    for a well-formed quotient complex.
    """
    hx = q.boundary1
    hz = gf2.transpose(q.boundary2)
    if not gf2.is_zero(gf2.multiply(hx, q.boundary2)):
        raise CommutationError("H_X * H_Z^T != 0; quotient complex is broken")
    n = len(q.qubit_labels)
    k = n - gf2.rank(hx) - gf2.rank(hz)
    return CssCode(
        hx=hx,
        hz=hz,
        qubit_labels=q.qubit_labels,
        x_labels=q.x_labels,
        z_labels=q.z_labels,
        z_axis="edge" if q.kind == EDGE else "face",
        n=n,
        k=k,
    )


def stabilizer_strings(c: CssCode) -> list[str]:
    """One generator description per check row, e.g. ``X_v1 = X1 X3``.

    Qubit labels are rendered 1-based; X generators are named after
    vertices, Z generators after the faces or edges indexing them.  A
    code with no qubits has no operators to describe.
    """
    if c.n == 0:
        return []
    out = []
    for pauli, prefix, m in (("X", "v", c.hx), ("Z", c.z_axis[0], c.hz)):
        names = [f"{pauli}{label + 1}" for label in c.qubit_labels]
        for i, row in enumerate(m.bits):
            support = []
            while row:
                low = row & -row
                support.append(names[low.bit_length() - 1])
                row ^= low
            out.append(f"{pauli}_{prefix}{i + 1} = {' '.join(support) or 'I'}")
    return out


def _min_logical_weight(check: BitMatrix, other: BitMatrix, budget: int) -> int | None:
    """Minimum weight over ker(check) \\ rowspace(other), if <= budget.

    The kernel basis is in reduced echelon form, so each basis vector
    owns a coordinate where the others vanish: a sum of t basis vectors
    has weight >= t, and a weight-w vector is a sum of at most w of them.
    Enumerating combinations of size t <= budget therefore visits every
    logical operator of weight <= budget, and the t >= best cutoff keeps
    the result exact.
    """
    basis = gf2.kernel_basis(check).bits
    reduced, pivots = gf2.echelon_form(other)

    def is_stabilizer(v: int) -> bool:
        for r, c in enumerate(pivots):
            if (v >> c) & 1:
                v ^= reduced.bits[r]
        return v == 0

    best: int | None = None
    for t in range(1, min(len(basis), budget) + 1):
        if best is not None and t >= best:
            break
        for combo in itertools.combinations(basis, t):
            v = 0
            for b in combo:
                v ^= b
            w = v.bit_count()
            if best is not None and w >= best:
                continue
            if not is_stabilizer(v):
                best = w
    if best is not None and best <= budget:
        return best
    return None


def distance(c: CssCode, budget: int | None = None, allow_large: bool = False) -> DistanceResult:
    """Exact minimum distance by increasing-weight search.

    d_X is the minimum weight over ker(H_Z) outside the row space of H_X,
    d_Z the mirror image, and d their minimum.  With the default budget
    (the qubit count) the result is always exact; a smaller budget stops
    the search early and, when nothing is found, certifies only that
    every logical operator is heavier than the budget.  The result is a
    pure function of the inputs.
    """
    if c.k == 0:
        return DistanceResult(dx=None, dz=None, d=None, exact=True,
                              no_logicals=True, budget=budget or 0)
    if c.n > DISTANCE_QUBIT_CAP and not allow_large:
        raise ValueError(
            f"distance search on {c.n} qubits exceeds the cap of "
            f"{DISTANCE_QUBIT_CAP}; pass allow_large=True to force it")
    if budget is None:
        budget = c.n
    dx = _min_logical_weight(c.hz, c.hx, budget)
    dz = _min_logical_weight(c.hx, c.hz, budget)
    found = [w for w in (dx, dz) if w is not None]
    d = min(found) if found else None
    return DistanceResult(dx=dx, dz=dz, d=d, exact=d is not None,
                          no_logicals=False, budget=budget)
