"""The verification suite: named identity and equivalence checks.

Each check is a predicate on the :class:`Derived` record of one map of a
seeded random corpus; a predicate that raises counts as a failure.  A map
drawn more than once is checked once, and its verdicts count for every
draw of it.

Each map, drawn or derived, fills its orbit fields from its own
permutations on their first read, so an orbit check states its identity
on canonical dart -> orbit tables, such as
``x.dual.edge_index == x.h.edge_index``.  Canonical tables number the
orbits by their minimum dart, so two equal tables are one partition of
the darts.  The maps a record derives share one walk table with its map,
so the six maps whose orbits the checks read walk sigma, alpha,
alpha^-1 sigma and their inverses once each (see
:mod:`~hypermap_codes.hypermap`).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .chain import (
    EDGE,
    FACE,
    QuotientCode,
    SpecialDartError,
    _special_set,
    edge_code,
    face_code,
    full_code,
)
from .gf2 import commutes, masks
from .hypermap import (
    Hypermap,
    _random_draws,
    contrary,
    dual,
    euler_characteristic,
    nabla,
    triangle_dual,
)
from .perm import _Record
from .reduce import reduce_to_surface, validate_surface


class CheckOutcome(_Record):
    __slots__ = ("name", "failures", "total", "first_failure")

    def __init__(self, name: str, failures: int, total: int, first_failure: str = ""):
        _set_name(self, name)
        _set_failures(self, failures)
        _set_total(self, total)
        _set_first_failure(self, first_failure)


_set_name, _set_failures, _set_total, _set_first_failure = CheckOutcome._stores


class VerificationReport(_Record):
    __slots__ = ("trials", "max_darts", "seed", "checks")

    def __init__(self, trials: int, max_darts: int, seed: int,
                 checks: tuple[CheckOutcome, ...]):
        _set_trials(self, trials)
        _set_max_darts(self, max_darts)
        _set_seed(self, seed)
        _set_checks(self, checks)

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


_set_trials, _set_max_darts, _set_seed, _set_checks = VerificationReport._stores


class Derived:
    """A corpus map and what its checks derive from it, each built on first read.

    Each property calls the module-level function of its name, so a check runs
    the construction it tests; one that raises is not cached, and raises again.
    Two records are equal when their maps are; a record is mutable, as its
    cache fills, so it has no hash.
    """

    def __init__(self, h: Hypermap):
        self.h = h

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.h == other.h
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Derived(h={self.h!r})"

    dual = cached_property(lambda x: dual(x.h))
    triangle_dual = cached_property(lambda x: triangle_dual(x.h))
    contrary = cached_property(lambda x: contrary(x.h))
    nabla = cached_property(lambda x: nabla(x.h))
    face_code = cached_property(lambda x: face_code(x.h))
    edge_code = cached_property(lambda x: edge_code(x.h))
    full_code = cached_property(lambda x: full_code(x.h))


def _check_dual_involution(x):
    return dual(x.dual) == x.h


def _check_dual_preserves_edges(x):
    return x.dual.edge_index == x.h.edge_index


def _check_dual_swaps_vertices_faces(x):
    d, h = x.dual, x.h
    return d.vertex_index == h.face_index and d.face_index == h.vertex_index


def _check_triangle_dual_involution(x):
    return triangle_dual(x.triangle_dual) == x.h


def _check_triangle_dual_preserves_vertices(x):
    return x.triangle_dual.vertex_index == x.h.vertex_index


def _check_triangle_dual_swaps_edges_faces(x):
    t, h = x.triangle_dual, x.h
    return t.face_index == h.edge_index and t.edge_index == h.face_index


def _check_contrary_involution(x):
    return contrary(x.contrary) == x.h


def _check_contrary_swaps_vertices_edges(x):
    c, h = x.contrary, x.h
    return c.vertex_index == h.edge_index and c.edge_index == h.vertex_index


def _check_nabla_swaps_dual_orbits(x):
    nb, d = x.nabla, x.dual
    return nb.edge_index == d.face_index and nb.face_index == d.edge_index


def _check_nabla_is_triangle_dual_of_dual(x):
    t, nb = triangle_dual(x.dual), x.nabla
    return (t.vertex_index == nb.vertex_index and t.edge_index == nb.edge_index
            and t.face_index == nb.face_index)


def _check_special_dart_transfer(x):
    try:
        _special_set(x.triangle_dual, x.face_code.special, EDGE)
        _special_set(x.triangle_dual, x.edge_code.special, FACE)
    except SpecialDartError:
        return False
    return True


def _codes_equal(a: QuotientCode, b: QuotientCode) -> bool:
    """Same qubits and same check matrices: equal pairs over equal check counts."""
    return (a.qubit_labels == b.qubit_labels and a.ends == b.ends and a.sides == b.sides
            and len(a.x_labels) == len(b.x_labels) and len(a.z_labels) == len(b.z_labels))


def _check_face_edge_code_transfer(x):
    ec = edge_code(x.triangle_dual, x.face_code.special)
    return _codes_equal(x.face_code, ec)


def _check_dual_face_nabla_edge_transfer(x):
    return _codes_equal(face_code(x.dual, x.face_code.special),
                        edge_code(x.nabla, x.face_code.special))


def _check_euler_logical_count(x):
    chi = euler_characteristic(x.h)
    return chi % 2 == 0 and x.face_code.k == 2 - chi


def _check_full_code_logical_gap(x):
    return x.full_code.k - x.face_code.k == len(x.h.edges) - 1


def _check_chain_conditions(x):
    # the full code's pairs are d1 and d2; iota puts dart d in its edge alone
    full = x.full_code
    return (commutes(full.ends, len(full.x_labels), [1 << e for e in x.h.edge_index])
            and all(commutes(q.ends, len(q.x_labels), masks(q.sides, len(q.z_labels)))
                    for q in (x.face_code, x.edge_code, full)))


def _check_closed_surface(x):
    return validate_surface(reduce_to_surface(x.h, x.face_code), x.face_code).passed


VERIFY_CHECKS: list[tuple[str, Callable[[Derived], bool]]] = [
    ("dual-involution", _check_dual_involution),
    ("dual-preserves-edges", _check_dual_preserves_edges),
    ("dual-swaps-vertices-faces", _check_dual_swaps_vertices_faces),
    ("triangle-dual-involution", _check_triangle_dual_involution),
    ("triangle-dual-preserves-vertices", _check_triangle_dual_preserves_vertices),
    ("triangle-dual-swaps-edges-faces", _check_triangle_dual_swaps_edges_faces),
    ("contrary-involution", _check_contrary_involution),
    ("contrary-swaps-vertices-edges", _check_contrary_swaps_vertices_edges),
    ("nabla-swaps-dual-edges-faces", _check_nabla_swaps_dual_orbits),
    ("nabla-is-triangle-dual-of-dual", _check_nabla_is_triangle_dual_of_dual),
    ("special-dart-transfer", _check_special_dart_transfer),
    ("face-edge-code-transfer", _check_face_edge_code_transfer),
    ("dual-face-nabla-edge-transfer", _check_dual_face_nabla_edge_transfer),
    ("euler-logical-count", _check_euler_logical_count),
    ("full-code-logical-gap", _check_full_code_logical_gap),
    ("chain-conditions", _check_chain_conditions),
    ("closed-surface", _check_closed_surface),
]


_PASSED = (None,) * len(VERIFY_CHECKS)  # the verdicts of a map that passes every check


def _verdicts(x: Derived) -> tuple[str | None, ...]:
    """Per check, None if it holds on ``x`` and otherwise the suffix its
    failure report adds: empty, or the error the predicate raised.  Every
    map that passes all checks shares the one tuple ``_PASSED``."""
    verdicts = []
    for _, predicate in VERIFY_CHECKS:
        try:
            verdicts.append(None if predicate(x) else "")
        except Exception as exc:  # a crash is a failure, not a verdict
            verdicts.append(f" raised {type(exc).__name__}: {exc}")
    out = tuple(verdicts)
    return _PASSED if out == _PASSED else out


def run_verification(trials: int, max_darts: int, seed: int) -> VerificationReport:
    """Run every named identity and equivalence check over a random corpus.

    The maps are those of ``random_corpus(trials, max_darts, seed)``, each
    drawn as it is checked, so the corpus is never held whole.  Each
    distinct map (its ``alpha`` and ``sigma`` images) is checked once;
    failures are counted per draw, and a check's first failure is its first
    failing draw.
    """
    failures = [0] * len(VERIFY_CHECKS)
    first = [""] * len(VERIFY_CHECKS)
    seen: dict[tuple, tuple[str | None, ...]] = {}
    for h in _random_draws(trials, max_darts, seed):
        key = (h.alpha.images, h.sigma.images)
        verdicts = seen.get(key)
        if verdicts is None:
            verdicts = seen[key] = _verdicts(Derived(h))
        for i, error in enumerate(verdicts):
            if error is not None:
                if not failures[i]:
                    first[i] = repr(h) + error
                failures[i] += 1
    draws = max(trials, 0)
    outcomes = (CheckOutcome(name, fails, draws, text)
                for (name, _), fails, text in zip(VERIFY_CHECKS, failures, first))
    return VerificationReport(trials, max_darts, seed, tuple(outcomes))
