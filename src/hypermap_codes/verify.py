"""The verification suite: named identity and equivalence checks.

Each check is a predicate on one hypermap, run over a seeded random
corpus; a predicate that raises counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import gf2
from .chain import QuotientCode, edge_code, face_code, full_code, raw_complex
from .css import assemble
from .hypermap import (
    PER_EDGE,
    PER_FACE,
    Hypermap,
    SpecialDartError,
    SpecialDarts,
    check_nabla_identity,
    contrary,
    default_special_darts,
    dual,
    euler_characteristic,
    nabla,
    random_corpus,
    special_darts,
    triangle_dual,
)
from .perm import as_partition
from .reduce import reduce_to_surface, validate_surface


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    failures: int
    total: int
    first_failure: str = ""


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    max_darts: int
    seed: int
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def render(self) -> str:
        lines = [f"trials: {self.trials}", f"max-darts: {self.max_darts}", f"seed: {self.seed}"]
        for c in self.checks:
            if c.failures == 0:
                lines.append(f"{c.name}: PASS ({c.total}/{c.total})")
            else:
                lines.append(f"{c.name}: FAIL ({c.failures}/{c.total} failed; "
                             f"first: {c.first_failure})")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"verification: {verdict} ({len(self.checks)} checks, "
                     f"{self.trials} hypermaps)")
        return "\n".join(lines) + "\n"


def _same_partitions(a, b) -> bool:
    return as_partition(a) == as_partition(b)


def _check_dual_involution(h):
    return dual(dual(h)) == h


def _check_dual_preserves_edges(h):
    return _same_partitions(dual(h).edges, h.edges)


def _check_dual_swaps_vertices_faces(h):
    d = dual(h)
    return (_same_partitions(d.vertices, h.faces)
            and _same_partitions(d.faces, h.vertices))


def _check_triangle_dual_involution(h):
    return triangle_dual(triangle_dual(h)) == h


def _check_triangle_dual_preserves_vertices(h):
    return _same_partitions(triangle_dual(h).vertices, h.vertices)


def _check_triangle_dual_swaps_edges_faces(h):
    t = triangle_dual(h)
    return (_same_partitions(t.faces, h.edges)
            and _same_partitions(t.edges, h.faces))


def _check_contrary_involution(h):
    return contrary(contrary(h)) == h


def _check_contrary_swaps_vertices_edges(h):
    c = contrary(h)
    return (_same_partitions(c.vertices, h.edges)
            and _same_partitions(c.edges, h.vertices))


def _check_nabla_swaps_dual_orbits(h):
    nb, d = nabla(h), dual(h)
    return (_same_partitions(nb.edges, d.faces)
            and _same_partitions(nb.faces, d.edges))


def _check_special_dart_transfer(h):
    t = triangle_dual(h)
    try:
        special_darts(t, default_special_darts(h, PER_EDGE).darts, PER_FACE)
        special_darts(t, default_special_darts(h, PER_FACE).darts, PER_EDGE)
    except SpecialDartError:
        return False
    return True


def _codes_equal(a: QuotientCode, b: QuotientCode) -> bool:
    return (a.qubit_labels == b.qubit_labels
            and a.boundary1 == b.boundary1
            and a.boundary2 == b.boundary2)


def _check_face_edge_code_transfer(h):
    s = default_special_darts(h, PER_EDGE)
    fc = face_code(h, s)
    ec = edge_code(triangle_dual(h), SpecialDarts(s.darts, PER_FACE))
    return _codes_equal(fc, ec)


def _check_dual_face_nabla_edge_transfer(h):
    s = default_special_darts(h, PER_EDGE)
    fc = face_code(dual(h), SpecialDarts(s.darts, PER_EDGE))
    ec = edge_code(nabla(h), SpecialDarts(s.darts, PER_FACE))
    return _codes_equal(fc, ec)


def _check_euler_logical_count(h):
    chi = euler_characteristic(h)
    if chi % 2 != 0:
        return False
    code = assemble(face_code(h, default_special_darts(h, PER_EDGE)))
    return code.k == 2 - chi


def _check_full_code_logical_gap(h):
    k_face = assemble(face_code(h, default_special_darts(h, PER_EDGE))).k
    k_full = assemble(full_code(h)).k
    return k_full - k_face == len(h.edges) - 1


def _check_chain_conditions(h):
    raw = raw_complex(h)
    if not gf2.is_zero(gf2.multiply(raw.d1, raw.d2)):
        return False
    if not gf2.is_zero(gf2.multiply(raw.d1, raw.iota)):
        return False
    quotients = [
        face_code(h, default_special_darts(h, PER_EDGE)),
        edge_code(h, default_special_darts(h, PER_FACE)),
        full_code(h),
    ]
    return all(gf2.is_zero(gf2.multiply(q.boundary1, q.boundary2)) for q in quotients)


def _check_closed_surface(h):
    s = default_special_darts(h, PER_EDGE)
    return validate_surface(reduce_to_surface(h, s), h, s).passed


VERIFY_CHECKS: list[tuple[str, Callable[[Hypermap], bool]]] = [
    ("dual-involution", _check_dual_involution),
    ("dual-preserves-edges", _check_dual_preserves_edges),
    ("dual-swaps-vertices-faces", _check_dual_swaps_vertices_faces),
    ("triangle-dual-involution", _check_triangle_dual_involution),
    ("triangle-dual-preserves-vertices", _check_triangle_dual_preserves_vertices),
    ("triangle-dual-swaps-edges-faces", _check_triangle_dual_swaps_edges_faces),
    ("contrary-involution", _check_contrary_involution),
    ("contrary-swaps-vertices-edges", _check_contrary_swaps_vertices_edges),
    ("nabla-swaps-dual-edges-faces", _check_nabla_swaps_dual_orbits),
    ("nabla-is-triangle-dual-of-dual", check_nabla_identity),
    ("special-dart-transfer", _check_special_dart_transfer),
    ("face-edge-code-transfer", _check_face_edge_code_transfer),
    ("dual-face-nabla-edge-transfer", _check_dual_face_nabla_edge_transfer),
    ("euler-logical-count", _check_euler_logical_count),
    ("full-code-logical-gap", _check_full_code_logical_gap),
    ("chain-conditions", _check_chain_conditions),
    ("closed-surface", _check_closed_surface),
]


def run_verification(trials: int, max_darts: int, seed: int) -> VerificationReport:
    """Run every named identity and equivalence check over a random corpus."""
    corpus = random_corpus(trials, max_darts, seed)
    outcomes = []
    for name, predicate in VERIFY_CHECKS:
        failures = 0
        first = ""
        for h in corpus:
            error = ""
            try:
                ok = predicate(h)
            except Exception as exc:  # a crash is a failure, not a verdict
                ok, error = False, f" raised {type(exc).__name__}: {exc}"
            if not ok:
                failures += 1
                if failures == 1:
                    first = repr(h) + error
        outcomes.append(CheckOutcome(name, failures, len(corpus), first))
    return VerificationReport(trials, max_darts, seed, tuple(outcomes))
