"""Command-line front end and serialization (text, DOT, JSON).

Subcommands: info, dual, tri-dual, contrary, code, reduce, distance,
verify, random, export.  All user-facing labels are 1-based; every output
is deterministic for fixed inputs and seeds.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import css, gf2
from .chain import EDGE, FACE, FULL, QuotientCode, edge_code, face_code, full_code, raw_complex
from .css import CommutationError, CssCode, DistanceResult, assemble, distance, stabilizer_strings
from .gf2 import BitMatrix
from .hypermap import (
    PER_EDGE,
    PER_FACE,
    DisconnectedError,
    Hypermap,
    ParseError,
    SpecialDartError,
    SpecialDarts,
    check_nabla_identity,
    contrary,
    default_special_darts,
    dual,
    euler_characteristic,
    format_hypermap,
    genus,
    nabla,
    parse_hypermap,
    random_corpus,
    random_hypermap,
    special_darts,
    triangle_dual,
)
from .perm import MAX_DARTS, as_partition, format_cycles, parse_cycles
from .reduce import CellComplex, reduce_to_surface, validate_surface

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4

FORMAT_NAME = "hypermap-codes"
FORMAT_VERSION = 1

DEFAULT_DISTANCE_BUDGET = 6


def load_hypermap(path: str) -> tuple[Hypermap, frozenset[int] | None]:
    """Read and parse a hypermap file; text that is not UTF-8 is a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, exc.start - line_start + 1,
                         f"not UTF-8 text ({exc.reason})") from exc
    return parse_hypermap(text)


def _resolve_special(h: Hypermap, kind: str, cli_special: list[int] | None,
                     file_special: frozenset[int] | None) -> SpecialDarts:
    """Pick special darts: explicit flag > file's special line > orbit minima."""
    per = PER_EDGE if kind == FACE else PER_FACE
    if cli_special is not None:
        return special_darts(h, frozenset(x - 1 for x in cli_special), per)
    if file_special is not None:
        return special_darts(h, file_special, per)
    return default_special_darts(h, per)


def _build_quotient(h: Hypermap, kind: str, cli_special, file_special) -> QuotientCode:
    if kind == FULL:
        return full_code(h)
    s = _resolve_special(h, kind, cli_special, file_special)
    return face_code(h, s) if kind == FACE else edge_code(h, s)


# ---------------------------------------------------------------------------
# exports

def export_walsh_dot(h: Hypermap) -> str:
    """The bipartite incidence graph in DOT: round vertices, square edges.

    One link per dart, labeled with its 1-based number, so the vertex and
    edge orbits can be read back off the adjacency lists.
    """
    lines = ["graph walsh {"]
    for i in range(len(h.vertices)):
        lines.append(f"  v{i + 1} [shape=circle];")
    for i in range(len(h.edges)):
        lines.append(f"  e{i + 1} [shape=square];")
    for dart in range(h.n):
        lines.append(
            f"  v{h.vertex_of(dart) + 1} -- e{h.edge_of(dart) + 1} [label=\"{dart + 1}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _matrix_json(m: BitMatrix) -> dict:
    return {"cols": m.cols, "rows": gf2.to_strings(m)}


def _matrix_from_json(obj: dict) -> BitMatrix:
    return gf2.from_strings(obj["rows"], cols=obj["cols"])


def export_json(artifact, special: frozenset[int] | None = None) -> str:
    """Stable JSON rendering of a Hypermap, CssCode, or CellComplex."""
    doc: dict = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "indexing": "1-based"}
    if isinstance(artifact, Hypermap):
        doc["type"] = "hypermap"
        doc["darts"] = artifact.n
        doc["alpha"] = format_cycles(artifact.alpha)
        doc["sigma"] = format_cycles(artifact.sigma)
        if special is not None:
            doc["special"] = sorted(i + 1 for i in special)
    elif isinstance(artifact, CssCode):
        doc["type"] = "css-code"
        doc["n"] = artifact.n
        doc["k"] = artifact.k
        doc["z_axis"] = artifact.z_axis
        doc["qubits"] = [i + 1 for i in artifact.qubit_labels]
        doc["x_checks"] = [i + 1 for i in artifact.x_labels]
        doc["z_checks"] = [i + 1 for i in artifact.z_labels]
        doc["hx"] = _matrix_json(artifact.hx)
        doc["hz"] = _matrix_json(artifact.hz)
        if artifact.d is not None:
            doc["distance"] = {
                "d_x": artifact.d.dx, "d_z": artifact.d.dz, "d": artifact.d.d,
                "exact": artifact.d.exact, "no_logicals": artifact.d.no_logicals,
                "budget": artifact.d.budget,
            }
    elif isinstance(artifact, CellComplex):
        doc["type"] = "cell-complex"
        doc["zero_cells"] = [i + 1 for i in artifact.zero_cells]
        doc["one_cells"] = [i + 1 for i in artifact.one_cells]
        doc["two_cells"] = [i + 1 for i in artifact.two_cells]
        doc["incidence21"] = [list(row) for row in artifact.incidence21]
        doc["incidence10"] = _matrix_json(artifact.incidence10)
    else:
        raise TypeError(f"cannot export {type(artifact).__name__} as JSON")
    return json.dumps(doc, indent=2) + "\n"


def parse_json(text: str):
    """Inverse of :func:`export_json`; validates shape and consistency."""
    doc = json.loads(text)
    if doc.get("format") != FORMAT_NAME or doc.get("version") != FORMAT_VERSION:
        raise ValueError("not a recognized artifact document")
    kind = doc.get("type")
    if kind == "hypermap":
        n = doc["darts"]
        return Hypermap(parse_cycles(doc["alpha"], n), parse_cycles(doc["sigma"], n))
    if kind == "css-code":
        hx = _matrix_from_json(doc["hx"])
        hz = _matrix_from_json(doc["hz"])
        n = doc["n"]
        if hx.cols != n or hz.cols != n:
            raise ValueError("check matrices do not match the qubit count")
        for key, size in (("qubits", n), ("x_checks", hx.rows), ("z_checks", hz.rows)):
            if len(doc[key]) != size:
                raise ValueError(f"{key} has {len(doc[key])} labels, expected {size}")
        if not gf2.is_zero(gf2.multiply(hx, gf2.transpose(hz))):
            raise ValueError("H_X * H_Z^T != 0: the checks do not commute")
        k = n - gf2.rank(hx) - gf2.rank(hz)
        if k != doc["k"]:
            raise ValueError(f"stored k={doc['k']} but check ranks give k={k}")
        d = None
        if "distance" in doc:
            dd = doc["distance"]
            d = DistanceResult(dx=dd["d_x"], dz=dd["d_z"], d=dd["d"], exact=dd["exact"],
                               no_logicals=dd["no_logicals"], budget=dd["budget"])
        return CssCode(
            hx=hx, hz=hz,
            qubit_labels=tuple(i - 1 for i in doc["qubits"]),
            x_labels=tuple(i - 1 for i in doc["x_checks"]),
            z_labels=tuple(i - 1 for i in doc["z_checks"]),
            z_axis=doc["z_axis"], n=n, k=k, d=d,
        )
    if kind == "cell-complex":
        return CellComplex(
            zero_cells=tuple(i - 1 for i in doc["zero_cells"]),
            one_cells=tuple(i - 1 for i in doc["one_cells"]),
            two_cells=tuple(i - 1 for i in doc["two_cells"]),
            incidence21=tuple(tuple(row) for row in doc["incidence21"]),
            incidence10=_matrix_from_json(doc["incidence10"]),
        )
    raise ValueError(f"unknown artifact type {kind!r}")


# ---------------------------------------------------------------------------
# verification suite

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
    s = default_special_darts(h, PER_EDGE)
    special_darts(triangle_dual(h), s.darts, PER_FACE)
    t = default_special_darts(h, PER_FACE)
    special_darts(triangle_dual(h), t.darts, PER_EDGE)
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
            try:
                ok = predicate(h)
            except Exception as exc:  # a crash is a failure, not a verdict
                ok = False
                detail = f"{h!r} raised {type(exc).__name__}: {exc}"
            else:
                detail = repr(h)
            if not ok:
                failures += 1
                if not first:
                    first = detail
        outcomes.append(CheckOutcome(name, failures, len(corpus), first))
    return VerificationReport(trials, max_darts, seed, tuple(outcomes))


# ---------------------------------------------------------------------------
# commands

def _print_orbits(title: str, prefix: str, orbits) -> None:
    print(f"{title}: {len(orbits)}")
    for i, orbit in enumerate(orbits):
        cycle = "(" + " ".join(str(x + 1) for x in orbit) + ")"
        print(f"  {prefix}{i + 1}: {cycle}")


def cmd_info(args) -> int:
    h, special = load_hypermap(args.file)
    print(f"darts: {h.n}")
    print(f"alpha: {format_cycles(h.alpha)}")
    print(f"sigma: {format_cycles(h.sigma)}")
    if special is not None:
        print("special: " + " ".join(str(i + 1) for i in sorted(special)))
    _print_orbits("vertices", "v", h.vertices)
    _print_orbits("edges", "e", h.edges)
    _print_orbits("faces", "f", h.faces)
    print(f"euler-characteristic: {euler_characteristic(h)}")
    print(f"genus: {genus(h)}")
    return EXIT_OK


def _cmd_transform(args, op) -> int:
    h, special = load_hypermap(args.file)
    sys.stdout.write(format_hypermap(op(h), special))
    return EXIT_OK


def cmd_code(args) -> int:
    h, file_special = load_hypermap(args.file)
    q = _build_quotient(h, args.kind, args.special, file_special)
    code = assemble(q)
    print(f"kind: {q.kind}")
    print(f"darts: {h.n}")
    if q.special is not None:
        print("special: " + " ".join(str(i + 1) for i in sorted(q.special.darts)))
    print("qubits: " + " ".join(str(i + 1) for i in code.qubit_labels))
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    z_prefix = code.z_axis[0]
    print(f"H_X (rows X_v1..X_v{code.hx.rows}):")
    print(gf2.render(code.hx))
    print(f"H_Z (rows Z_{z_prefix}1..Z_{z_prefix}{code.hz.rows}):")
    print(gf2.render(code.hz))
    print("generators:")
    for line in stabilizer_strings(code):
        print(line)
    return EXIT_OK


def cmd_reduce(args) -> int:
    h, file_special = load_hypermap(args.file)
    s = _resolve_special(h, FACE, args.special, file_special)
    complex_ = reduce_to_surface(h, s)
    print(f"zero-cells: {len(complex_.zero_cells)}")
    print("one-cells: " + " ".join(str(i + 1) for i in complex_.one_cells))
    print(f"two-cells: {len(complex_.two_cells)}")
    print("incidence 2->1 counts (rows = 1-cells, cols = 2-cells):")
    for row in complex_.incidence21:
        print(" ".join(str(c) for c in row))
    print("incidence 1->0 (rows = 0-cells, cols = 1-cells):")
    print(gf2.render(complex_.incidence10))
    print(validate_surface(complex_, h, s).render())
    return EXIT_OK


def _render_weight(w: int | None, budget: int) -> str:
    return str(w) if w is not None else f">{budget}"


def cmd_distance(args) -> int:
    h, file_special = load_hypermap(args.file)
    q = _build_quotient(h, args.kind, args.special, file_special)
    code = assemble(q)
    result = distance(code, budget=args.budget, allow_large=args.allow_large)
    print(f"kind: {q.kind}")
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    print(f"budget: {result.budget}")
    if result.no_logicals:
        print("status: no-logical-operators")
        return EXIT_OK
    print(f"d_X: {_render_weight(result.dx, result.budget)}")
    print(f"d_Z: {_render_weight(result.dz, result.budget)}")
    print(f"d: {_render_weight(result.d, result.budget)}")
    print("status: " + ("exact" if result.exact
                        else f"lower-bound (every logical operator has weight >= {result.budget + 1})"))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(args.trials, args.max_darts, args.seed)
    sys.stdout.write(report.render())
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_random(args) -> int:
    h = random_hypermap(args.darts, args.seed)
    sys.stdout.write(format_hypermap(h))
    return EXIT_OK


def cmd_export(args) -> int:
    h, file_special = load_hypermap(args.file)
    if args.format == "dot":
        if args.what != "hypermap":
            print("error: DOT export is only available for the hypermap itself",
                  file=sys.stderr)
            return EXIT_INVALID
        sys.stdout.write(export_walsh_dot(h))
        return EXIT_OK
    if args.what == "hypermap":
        sys.stdout.write(export_json(h, special=file_special))
    elif args.what == "code":
        code = assemble(_build_quotient(h, args.kind, args.special, file_special))
        sys.stdout.write(export_json(code))
    else:
        s = _resolve_special(h, FACE, args.special, file_special)
        sys.stdout.write(export_json(reduce_to_surface(h, s)))
    return EXIT_OK


def _int_in_range(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type=`` that accepts integers >= ``low`` and, if given, <= ``high``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermap-codes",
        description="CSS codes from combinatorial hypermaps: construction, "
                    "dualities, surface reduction, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", metavar="FILE", help="hypermap text file")

    def add_special(p):
        p.add_argument("--special", nargs="+", type=int, metavar="DART",
                       help="1-based special darts (overrides the file's choice)")

    p = sub.add_parser("info", help="orbits, Euler characteristic, genus")
    add_file(p)
    p.set_defaults(func=cmd_info)

    for name, op, blurb in [("dual", dual, "the dual hypermap"),
                            ("tri-dual", triangle_dual, "the triangle dual"),
                            ("contrary", contrary, "the contrary map")]:
        p = sub.add_parser(name, help=f"print {blurb}")
        add_file(p)
        p.set_defaults(func=lambda a, op=op: _cmd_transform(a, op))

    p = sub.add_parser("code", help="build a CSS code")
    add_file(p)
    p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True)
    add_special(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("reduce", help="surface-code cell complex of the face code")
    add_file(p)
    add_special(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("distance", help="minimum-distance search")
    add_file(p)
    p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True)
    add_special(p)
    p.add_argument("--budget", type=_int_in_range(0), default=DEFAULT_DISTANCE_BUDGET,
                   help="maximum logical-operator weight to search "
                        f"(default {DEFAULT_DISTANCE_BUDGET})")
    p.add_argument("--allow-large", action="store_true",
                   help=f"search even with more than {css.DISTANCE_QUBIT_CAP} qubits")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run the identity/equivalence suite on random hypermaps")
    p.add_argument("--trials", type=_int_in_range(1), default=500)
    p.add_argument("--max-darts", type=_int_in_range(1, MAX_DARTS), default=10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="emit a random hypermap file")
    p.add_argument("--darts", type=_int_in_range(1, MAX_DARTS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("export", help="DOT or JSON export")
    add_file(p)
    p.add_argument("--format", choices=["dot", "json"], required=True)
    p.add_argument("--what", choices=["hypermap", "code", "complex"], default="hypermap")
    p.add_argument("--kind", choices=[FACE, EDGE, FULL], default=FACE,
                   help="code kind when --what code")
    add_special(p)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "file", None)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DisconnectedError, SpecialDartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CommutationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
