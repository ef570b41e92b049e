"""Inputs, command lists and output checks for the three benchmark workloads.

The hypermap arithmetic here (cycle text, orbits, duals, the {4,4}_L
lattice, random maps) is a separate implementation from the package under
test, so every check compares the CLI's output against an answer the CLI
did not compute.  Permutations are 0-based image lists and compose left
to right, as in the package: ``compose(p, q)[i] == q[p[i]]``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

LATTICE_SIZES = (5, 10, 20)
DISTANCE_SIZES = {"face": (3, 4, 5, 6), "edge": (3, 4, 5), "full": (3, 4, 5, 6)}
CORPUS_DART_COUNTS = tuple(3 + i % 10 for i in range(40))
VERIFY_RUNS = 5
VERIFY_TRIALS = 100
VERIFY_MAX_DARTS = 10
CLI_DISTANCE_BUDGET = 6
TORUS8 = Path("tests/data/torus8.hm")

# Quoted in README.md and tests/test_acceptance.py for torus8's face code.
TORUS8_HX = ["111111", "111111"]
TORUS8_HZ = ["100001", "111010", "010111", "001100"]
TORUS8_GENERATORS = [
    "X_v1 = X1 X3 X4 X6 X7 X8",
    "X_v2 = X1 X3 X4 X6 X7 X8",
    "Z_f1 = Z1 Z8",
    "Z_f2 = Z1 Z3 Z4 Z7",
    "Z_f3 = Z3 Z6 Z7 Z8",
    "Z_f4 = Z4 Z6",
]


# ---------------------------------------------------------------------------
# reference hypermap arithmetic

def compose(p: list[int], q: list[int]) -> list[int]:
    return [q[x] for x in p]


def inverse(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def orbits(p: list[int]) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if not seen[start]:
            cycle = []
            i = start
            while not seen[i]:
                seen[i] = True
                cycle.append(i)
                i = p[i]
            out.append(tuple(cycle))
    return out


def partition(cycles) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(c) for c in cycles)


def cycles_text(p: list[int]) -> str:
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in orbits(p))


def parse_cycles(text: str, n: int) -> list[int]:
    images = list(range(n))
    for group in re.findall(r"\(([^)]*)\)", text):
        cycle = [int(tok) - 1 for tok in group.split()]
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]
    return images


def is_transitive(alpha: list[int], sigma: list[int]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in (alpha[i], sigma[i]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(alpha)


@dataclass(frozen=True)
class Map:
    """A hypermap with its orbit decompositions, computed here."""

    alpha: list[int]
    sigma: list[int]

    @property
    def n(self) -> int:
        return len(self.alpha)

    @cached_property
    def vertices(self):
        return orbits(self.sigma)

    @cached_property
    def edges(self):
        return orbits(self.alpha)

    @cached_property
    def faces(self):
        return orbits(compose(inverse(self.alpha), self.sigma))

    @property
    def chi(self) -> int:
        return len(self.vertices) + len(self.edges) - self.n + len(self.faces)

    @property
    def genus(self) -> int:
        return (2 - self.chi) // 2


def dual(m: Map) -> Map:
    a = inverse(m.alpha)
    return Map(a, compose(a, m.sigma))


def triangle_dual(m: Map) -> Map:
    s = inverse(m.sigma)
    return Map(compose(s, m.alpha), s)


def contrary(m: Map) -> Map:
    return Map(m.sigma, m.alpha)


def lattice(size: int) -> Map:
    """The square-lattice torus {4,4}_L: dart 4v+k leaves vertex v heading E, N, W, S."""
    n = 4 * size * size
    sigma = [4 * (d // 4) + (d + 1) % 4 for d in range(n)]
    alpha = [0] * n
    for x in range(size):
        for y in range(size):
            v = x * size + y
            east = ((x + 1) % size) * size + y
            north = x * size + (y + 1) % size
            for a, b in ((4 * v, 4 * east + 2), (4 * v + 1, 4 * north + 3)):
                alpha[a], alpha[b] = b, a
    return Map(alpha, sigma)


def lattice_self_test(sizes) -> list[str]:
    """Closed forms of {4,4}_L: 4L^2 darts, L^2 vertices, 2L^2 edges, L^2 faces, genus 1."""
    problems = []
    for size in sizes:
        m = lattice(size)
        got = (m.n, len(m.vertices), len(m.edges), len(m.faces), m.genus)
        want = (4 * size ** 2, size ** 2, 2 * size ** 2, size ** 2, 1)
        if got != want or not is_transitive(m.alpha, m.sigma):
            problems.append(f"lattice L={size}: (darts, V, E, F, genus) = {got}, want {want}")
    return problems


def random_map(n: int, rng: random.Random) -> Map:
    while True:
        alpha = list(range(n))
        sigma = list(range(n))
        rng.shuffle(alpha)
        rng.shuffle(sigma)
        if is_transitive(alpha, sigma):
            return Map(alpha, sigma)


def pick_one_per(cycles, rng: random.Random) -> list[int]:
    return sorted(rng.choice(c) for c in cycles)


def hypermap_text(m: Map, special=None) -> str:
    lines = [f"darts: {m.n}", f"alpha: {cycles_text(m.alpha)}", f"sigma: {cycles_text(m.sigma)}"]
    if special is not None:
        lines.append("special: " + " ".join(str(d + 1) for d in special))
    return "\n".join(lines) + "\n"


def read_hypermap(text: str) -> tuple[Map, list[int] | None]:
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if ":" in line:
            key, _, value = line.partition(":")
            values[key.strip()] = value.strip()
    n = int(values["darts"])
    special = None
    if "special" in values:
        special = sorted(int(tok) - 1 for tok in values["special"].split())
    return Map(parse_cycles(values["alpha"], n), parse_cycles(values["sigma"], n)), special


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right

Check = Callable[[str], list[str]]


def _fields(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        if ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            out.setdefault(key, value)
    return out


def _expect(problems: list[str], fields: dict[str, str], want: dict[str, object]) -> None:
    for key, value in want.items():
        if fields.get(key) != str(value):
            problems.append(f"{key}: got {fields.get(key)!r}, want {str(value)!r}")


def _labels(darts) -> str:
    return " ".join(str(d + 1) for d in darts)


def _block(lines: list[str], header: str, count: int) -> list[str] | None:
    if header not in lines:
        return None
    start = lines.index(header) + 1
    return lines[start:start + count]


def code_shape(kind: str, m: Map, special) -> dict[str, object]:
    """n and k of a code kind: face and edge codes have k = 2g, the full code k = 2g + E - 1."""
    n_edges = len(m.edges)
    if kind == "full":
        return {"n": m.n, "k": 2 * m.genus + n_edges - 1}
    return {"n": m.n - len(special), "k": 2 * m.genus}


def check_code(kind: str, m: Map, special=None, closed_form=None,
               golden: tuple[list[str], list[str], list[str]] | None = None) -> Check:
    z_prefix, z_rows = ("e", len(m.edges)) if kind == "edge" else ("f", len(m.faces))
    x_rows = len(m.vertices)
    special_set = set(special or ())
    qubits = [d for d in range(m.n) if d not in special_set]
    shape = code_shape(kind, m, special)

    def check(text: str) -> list[str]:
        problems: list[str] = []
        fields = _fields(text)
        want = {"kind": kind, "darts": m.n, "qubits": _labels(qubits), **shape,
                **(closed_form or {})}
        if special is not None:
            want["special"] = _labels(special)
        elif "special" in fields:
            problems.append("unexpected special line")
        _expect(problems, fields, want)
        lines = text.splitlines()
        hx = _block(lines, f"H_X (rows X_v1..X_v{x_rows}):", x_rows)
        hz = _block(lines, f"H_Z (rows Z_{z_prefix}1..Z_{z_prefix}{z_rows}):", z_rows)
        for name, rows in (("H_X", hx), ("H_Z", hz)):
            if rows is None or any(len(r) != len(qubits) or r.strip("01") for r in rows):
                problems.append(f"{name} block missing or malformed")
        generators = _block(lines, "generators:", len(lines))
        want_gens = x_rows + z_rows if qubits else 0
        if generators is None or len(generators) != want_gens:
            problems.append(f"expected {want_gens} generator lines")
        if golden is not None and (hx, hz, generators) != golden:
            problems.append("torus8 matrices or generators differ from the published rows")
        return problems

    return check


def check_reduce(m: Map, special) -> Check:
    special_set = set(special)
    one_cells = [d for d in range(m.n) if d not in special_set]
    n_faces = len(m.faces)

    def check(text: str) -> list[str]:
        problems: list[str] = []
        _expect(problems, _fields(text), {
            "zero-cells": len(m.vertices), "one-cells": _labels(one_cells),
            "two-cells": n_faces, "euler-characteristic": m.chi, "surface-validation": "PASS"})
        rows = _block(text.splitlines(), "incidence 2->1 counts (rows = 1-cells, cols = 2-cells):",
                      len(one_cells)) or []
        counts = [[int(c) for c in row.split()] for row in rows]
        if len(counts) != len(one_cells) or any(len(r) != n_faces or sum(r) != 2 for r in counts):
            problems.append("incidence 2->1 rows do not each sum to 2 over every face")
        return problems

    return check


def check_distance(kind: str, m: Map, special, budget: int, d: int | None = None) -> Check:
    shape = code_shape(kind, m, special)

    def check(text: str) -> list[str]:
        problems: list[str] = []
        fields = _fields(text)
        _expect(problems, fields, {"kind": kind, **shape, "budget": budget})
        if shape["k"] == 0:
            _expect(problems, fields, {"status": "no-logical-operators"})
        elif d is not None:
            _expect(problems, fields, {"d": d, "status": "exact"})
        else:
            got = fields.get("d", "")
            exact = got.isdigit() and 1 <= int(got) <= min(budget, shape["n"])
            bounded = got == f">{budget}"
            if not (exact or bounded):
                problems.append(f"d: {got!r} is neither a weight in 1..{budget} nor >{budget}")
            status = "exact" if exact else (
                f"lower-bound (every logical operator has weight >= {budget + 1})")
            _expect(problems, fields, {"status": status})
        return problems

    return check


def check_info(m: Map, special) -> Check:
    def check(text: str) -> list[str]:
        problems: list[str] = []
        fields = _fields(text)
        want = {"darts": m.n, "vertices": len(m.vertices), "edges": len(m.edges),
                "faces": len(m.faces), "euler-characteristic": m.chi, "genus": m.genus}
        if special is not None:
            want["special"] = _labels(special)
        _expect(problems, fields, want)
        if fields.get("alpha") is None or fields.get("sigma") is None or (
                parse_cycles(fields["alpha"], m.n) != m.alpha
                or parse_cycles(fields["sigma"], m.n) != m.sigma):
            problems.append("alpha/sigma do not round-trip")
        listed: dict[str, list[set[int]]] = {"v": [], "e": [], "f": []}
        for line in text.splitlines():
            match = re.fullmatch(r"  ([vef])\d+: \(([\d ]*)\)", line)
            if match:
                listed[match[1]].append({int(t) - 1 for t in match[2].split()})
        for prefix, cycles in (("v", m.vertices), ("e", m.edges), ("f", m.faces)):
            if partition(listed[prefix]) != partition(cycles) or len(listed[prefix]) != len(cycles):
                problems.append(f"{prefix}-orbits differ")
        return problems

    return check


def check_transform(want: Map, special) -> Check:
    """The printed hypermap must be ``want`` with the input's special line kept."""
    def check(text: str) -> list[str]:
        got, got_special = read_hypermap(text)
        problems = []
        if (got.alpha, got.sigma) != (want.alpha, want.sigma):
            problems.append("transformed permutations differ")
        if got_special != special:
            problems.append(f"special {got_special} != {special}")
        return problems

    return check


def check_dot(m: Map) -> Check:
    def check(text: str) -> list[str]:
        links = re.findall(r'^  v(\d+) -- e(\d+) \[label="(\d+)"\];$', text, re.M)
        by_vertex: dict[str, set[int]] = {}
        by_edge: dict[str, set[int]] = {}
        for v, e, dart in links:
            by_vertex.setdefault(v, set()).add(int(dart) - 1)
            by_edge.setdefault(e, set()).add(int(dart) - 1)
        problems = []
        if len(links) != m.n or partition(by_vertex.values()) != partition(m.vertices) \
                or partition(by_edge.values()) != partition(m.edges):
            problems.append("DOT links do not reproduce the vertex and edge orbits")
        if text.count("[shape=circle]") != len(m.vertices) or \
                text.count("[shape=square]") != len(m.edges):
            problems.append("DOT node counts differ")
        return problems

    return check


def check_complex_json(m: Map, special) -> Check:
    special_set = set(special)
    one_cells = [d + 1 for d in range(m.n) if d not in special_set]

    def check(text: str) -> list[str]:
        doc = json.loads(text)
        problems = []
        if doc.get("type") != "cell-complex" or doc.get("one_cells") != one_cells:
            problems.append("wrong type or 1-cells")
        for key, cycles in (("zero_cells", m.vertices), ("two_cells", m.faces)):
            if sorted(doc.get(key, [])) != sorted(min(c) + 1 for c in cycles):
                problems.append(f"{key} are not the orbit minima")
        rows = doc.get("incidence21", [])
        if len(rows) != len(one_cells) or any(len(r) != len(m.faces) or sum(r) != 2 for r in rows):
            problems.append("incidence21 rows do not each sum to 2")
        return problems

    return check


def check_verify(seed: int) -> Check:
    def check(text: str) -> list[str]:
        problems: list[str] = []
        _expect(problems, _fields(text), {
            "trials": VERIFY_TRIALS, "max-darts": VERIFY_MAX_DARTS, "seed": seed})
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if not (last.startswith("verification: PASS (")
                and last.endswith(f" checks, {VERIFY_TRIALS} hypermaps)")):
            problems.append(f"verdict line {last!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``label`` is stable across seeds and names its digest."""

    label: str
    argv: list[str]
    check: Check
    seeded: bool  # whether the input or argv depends on the workload seed


def _special_args(darts) -> list[str]:
    return ["--special", *(str(d + 1) for d in darts)]


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def build_lattice(seed: int, directory: Path, root: Path) -> list[Command]:
    """code --kind face|edge|full and reduce on {4,4}_L; the seed picks the special darts."""
    rng = random.Random(seed)
    commands = []
    for size in LATTICE_SIZES:
        m = lattice(size)
        path = _write(directory, f"lattice-L{size}.hm", hypermap_text(m))
        per_edge = pick_one_per(m.edges, rng)
        per_face = pick_one_per(m.faces, rng)
        area = size * size
        commands += [
            Command(f"L{size} code face",
                    ["code", path, "--kind", "face", *_special_args(per_edge)],
                    check_code("face", m, per_edge, {"n": 2 * area, "k": 2}), True),
            Command(f"L{size} code edge",
                    ["code", path, "--kind", "edge", *_special_args(per_face)],
                    check_code("edge", m, per_face, {"n": 3 * area, "k": 2}), True),
            Command(f"L{size} code full", ["code", path, "--kind", "full"],
                    check_code("full", m, None, {"n": 4 * area, "k": 2 * area + 1}), False),
            Command(f"L{size} reduce", ["reduce", path, *_special_args(per_edge)],
                    check_reduce(m, per_edge), True),
        ]
    return commands


def _file_commands(name: str, path: str, m: Map, special, per_face, seeded: bool,
                   face_check: Check | None = None, face_d: int | None = None) -> list[Command]:
    def cmd(suffix, argv, check):
        return Command(f"{name} {suffix}", argv, check, seeded)

    return [
        cmd("info", ["info", path], check_info(m, special)),
        cmd("dual", ["dual", path], check_transform(dual(m), special)),
        cmd("tri-dual", ["tri-dual", path], check_transform(triangle_dual(m), special)),
        cmd("contrary", ["contrary", path], check_transform(contrary(m), special)),
        cmd("code face", ["code", path, "--kind", "face"],
            face_check or check_code("face", m, special)),
        cmd("code edge", ["code", path, "--kind", "edge", *_special_args(per_face)],
            check_code("edge", m, per_face)),
        cmd("code full", ["code", path, "--kind", "full"], check_code("full", m)),
        cmd("reduce", ["reduce", path], check_reduce(m, special)),
        cmd("distance face", ["distance", path, "--kind", "face"],
            check_distance("face", m, special, CLI_DISTANCE_BUDGET, face_d)),
        cmd("distance full", ["distance", path, "--kind", "full"],
            check_distance("full", m, None, CLI_DISTANCE_BUDGET)),
        cmd("export dot", ["export", path, "--format", "dot"], check_dot(m)),
        cmd("export complex", ["export", path, "--format", "json", "--what", "complex"],
            check_complex_json(m, special)),
    ]


def build_corpus(seed: int, directory: Path, root: Path) -> list[Command]:
    """verify over 5 seeds, then 12 commands on torus8 and on each of 40 random files."""
    rng = random.Random(seed)
    commands = []
    for i in range(VERIFY_RUNS):
        vseed = rng.randrange(10 ** 6)
        commands.append(Command(
            f"verify {i + 1}", ["verify", "--trials", str(VERIFY_TRIALS), "--max-darts",
                       str(VERIFY_MAX_DARTS), "--seed", str(vseed)],
            check_verify(vseed), True))
    torus_path = root / TORUS8
    torus, torus_special = read_hypermap(torus_path.read_text(encoding="utf-8"))
    golden = (TORUS8_HX, TORUS8_HZ, TORUS8_GENERATORS)
    commands += _file_commands(
        "torus8", str(torus_path), torus, torus_special, [min(f) for f in torus.faces], False,
        face_check=check_code("face", torus, torus_special, {"n": 6, "k": 2}, golden), face_d=2)
    for i, darts in enumerate(CORPUS_DART_COUNTS):
        m = random_map(darts, rng)
        special = pick_one_per(m.edges, rng)
        per_face = pick_one_per(m.faces, rng)
        path = _write(directory, f"random-{i:02d}.hm", hypermap_text(m, special))
        commands += _file_commands(f"random-{i:02d}", path, m, special, per_face, True)
    return commands


def build_distance(seed: int, directory: Path, root: Path) -> list[Command]:
    """Exhaustive distance on {4,4}_L with d = L (face, edge) and d = 2 (full).

    The seed is not used: the lattice files carry no special line, so the
    search always runs on the same codes and its cost does not vary by seed.
    """
    commands = []
    paths = {}
    for kind, sizes in DISTANCE_SIZES.items():
        for size in sizes:
            m = lattice(size)
            if size not in paths:
                paths[size] = _write(directory, f"lattice-L{size}.hm", hypermap_text(m))
            special = [min(c) for c in (m.faces if kind == "edge" else m.edges)]
            commands.append(Command(
                f"L{size} distance {kind}",
                ["distance", paths[size], "--kind", kind, "--allow-large", "--budget", str(size)],
                check_distance(kind, m, None if kind == "full" else special, size,
                               2 if kind == "full" else size),
                False))
    return commands


WORKLOADS = {
    "lattice": build_lattice,
    "corpus": build_corpus,
    "distance": build_distance,
}
