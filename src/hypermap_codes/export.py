"""Serialization: DOT for hypermaps, tagged 1-based JSON for every artifact."""

from __future__ import annotations

from .chain import EDGE, FACE, FULL, CommutationError, QuotientCode
from .gf2 import Pairs, dense_rows, read_rows
from .hypermap import Hypermap, _special_labels
from .perm import _quoted, format_cycles, parse_cycles
from .reduce import CellComplex

FORMAT_NAME = "hypermap-codes"
FORMAT_VERSION = 1


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
    for dart, (v, e) in enumerate(zip(h.vertex_index, h.edge_index)):
        lines.append(f"  v{v + 1} -- e{e + 1} [label=\"{dart + 1}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _matrix_json(pairs: Pairs, checks: int) -> dict:
    """The checks x qubits matrix of ``pairs`` as its column count and '0'/'1' rows."""
    return {"cols": len(pairs), "rows": list(dense_rows(pairs, checks))}


def _field(doc: dict, key: str, *kinds: type):
    """``doc[key]``, refused unless present and exactly of one of ``kinds``."""
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    value = doc[key]
    if type(value) not in kinds:  # so a bool is not taken for an int
        raise ValueError(f"{key!r} has the wrong type: {_quoted(value)}")
    return value


def _labels(doc: dict, key: str) -> tuple[int, ...]:
    """A list of distinct 1-based integer labels, returned 0-based."""
    labels = _field(doc, key, list)
    if any(type(i) is not int for i in labels):
        raise ValueError(f"{key!r} must hold integers only")
    if any(i < 1 for i in labels) or len(set(labels)) < len(labels):
        raise ValueError(f"{key!r} must hold distinct labels >= 1")
    return tuple(i - 1 for i in labels)


def _rows_from_json(doc: dict, key: str) -> tuple[list[str], int]:
    """The '0'/'1' rows and the column count of the matrix ``doc[key]``."""
    obj = _field(doc, key, dict)
    rows, cols = _field(obj, "rows", list), _field(obj, "cols", int)
    for row in rows:
        if not isinstance(row, str) or len(row) != cols or row.strip("01"):
            raise ValueError(f"bad matrix row {_quoted(row)}")
    if cols < 0:  # with no rows to refuse
        raise ValueError(f"matrix shape 0 x {cols} is not two integers >= 0")
    return rows, cols


def export_json(artifact, special: frozenset[int] | None = None) -> str:
    """Stable JSON rendering of a Hypermap, QuotientCode, or CellComplex; a
    ``special`` set of darts 0..n-1 goes with a Hypermap only, or raises."""
    import json  # on first use, so that importing the CLI does not load it
    if special is not None and not isinstance(artifact, Hypermap):
        raise TypeError(f"cannot export special darts with a {type(artifact).__name__}")
    doc: dict = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "indexing": "1-based"}
    if isinstance(artifact, Hypermap):
        doc["type"] = "hypermap"
        doc["darts"] = artifact.n
        doc["alpha"] = format_cycles(artifact.alpha)
        doc["sigma"] = format_cycles(artifact.sigma)
        if special is not None:
            doc["special"] = _special_labels(artifact, special)
    elif isinstance(artifact, QuotientCode):
        doc["type"] = "css-code"
        doc["kind"] = artifact.kind
        doc["n"] = artifact.n
        doc["k"] = artifact.k
        doc["z_axis"] = EDGE if artifact.kind == EDGE else FACE  # the cells of the Z checks
        if artifact.special is not None:
            doc["special"] = sorted(i + 1 for i in artifact.special)
        doc["qubits"] = [i + 1 for i in artifact.qubit_labels]
        doc["x_checks"] = [i + 1 for i in artifact.x_labels]
        doc["z_checks"] = [i + 1 for i in artifact.z_labels]
        doc["hx"] = _matrix_json(artifact.ends, len(artifact.x_labels))
        doc["hz"] = _matrix_json(artifact.sides, len(artifact.z_labels))
    elif isinstance(artifact, CellComplex):
        doc["type"] = "cell-complex"
        doc["zero_cells"] = [i + 1 for i in artifact.zero_cells]
        doc["one_cells"] = [i + 1 for i in artifact.one_cells]
        doc["two_cells"] = [i + 1 for i in artifact.two_cells]
        doc["incidence21"] = None  # spliced in below, rendered from the sparse counts
        doc["incidence10"] = _matrix_json(artifact.ends, len(artifact.zero_cells))
    else:
        raise TypeError(f"cannot export {type(artifact).__name__} as JSON")
    text = json.dumps(doc, indent=2)
    if isinstance(artifact, CellComplex):
        text = text.replace('"incidence21": null', '"incidence21": ' + _incidence21_json(artifact))
    return text + "\n"


def _incidence21_json(c: CellComplex) -> str:
    """The dense ``incidence21`` exactly as ``json.dumps(indent=2)`` prints it at depth 1."""
    rows = [f"[\n      {line}\n    ]" if line else "[]" for line in c.count_lines(",\n      ")]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def parse_json(text: str):
    """Inverse of :func:`export_json`; validates shape and consistency.

    Every malformed document raises ``ValueError``: invalid JSON, a
    non-object document, a missing key, a value of the wrong JSON type,
    a label list that repeats a label or holds one below 1, a hypermap's
    ``special`` list with a label above its dart count, a ``z_axis``
    other than ``"face"`` or ``"edge"``, contents that disagree with each
    other, checks that do not commute, or a check column of three or more
    ones in ``hx``, ``hz`` or ``incidence10``, which no code or complex
    stored as check pairs has.  A hypermap document's ``special`` list is
    checked like a file's ``special:`` line, but only the ``Hypermap`` is
    returned, so a round trip through :func:`export_json` drops the set.

    A code document is read as the :class:`~hypermap_codes.chain.QuotientCode`
    it was written from.  Its ``kind`` must be the one that ``z_axis`` and
    ``hz`` show: ``"edge"`` for edge Z checks, else ``"full"`` when some
    qubit lies in exactly one Z check, else ``"face"``; a document without
    ``kind`` is read as that kind.  Its optional ``special`` darts, refused
    on a full code, and its ``qubits`` must hold each dart 1..N once
    between them; a full code's ``qubits`` are the darts 1..n in order.
    Wherever the dart count N is known (n for a full code, n plus the
    special darts when ``special`` is given), every ``x_checks`` and
    ``z_checks`` label lies in 1..N.
    """
    import json

    try:
        doc = json.loads(text)
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValueError("document is nested too deeply") from exc
    if (not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME
            or doc.get("version") != FORMAT_VERSION):
        raise ValueError("not a recognized artifact document")
    kind = doc.get("type")
    if kind == "hypermap":
        n = _field(doc, "darts", int)
        if "special" in doc and any(i >= n for i in _labels(doc, "special")):
            raise ValueError(f"'special' must hold labels in 1..{n}")
        return Hypermap(parse_cycles(_field(doc, "alpha", str), n),
                        parse_cycles(_field(doc, "sigma", str), n))
    if kind == "css-code":
        hx, x_cols = _rows_from_json(doc, "hx")
        hz, z_cols = _rows_from_json(doc, "hz")
        n = _field(doc, "n", int)
        if x_cols != n or z_cols != n:
            raise ValueError("check matrices do not match the qubit count")
        labels = {key: _labels(doc, key) for key in ("qubits", "x_checks", "z_checks")}
        x_checks, z_checks = len(hx), len(hz)
        for key, size in (("qubits", n), ("x_checks", x_checks), ("z_checks", z_checks)):
            if len(labels[key]) != size:
                raise ValueError(f"{key} has {len(labels[key])} labels, expected {size}")
        ends, sides = read_rows(hx, n, "hx"), read_rows(hz, n, "hz")
        axis = _field(doc, "z_axis", str)
        if axis not in (FACE, EDGE):  # the cells the Z checks come from
            raise ValueError(f"'z_axis' must be {FACE!r} or {EDGE!r}, got {axis!r}")
        one_z_check = any(a < z_checks == b for a, b in sides)  # as each qubit of a full code
        shown = EDGE if axis == EDGE else FULL if one_z_check else FACE
        code_kind = _field(doc, "kind", str) if "kind" in doc else shown
        if code_kind != shown:
            raise ValueError(f"'kind' is {code_kind!r}, but z_axis and hz give a {shown} code")
        special = frozenset(_labels(doc, "special")) if "special" in doc else None
        if special is not None and code_kind == FULL:
            raise ValueError("a full code has no 'special' darts")
        if special is not None and special.union(labels["qubits"]) != set(range(len(special) + n)):
            raise ValueError("'special' and 'qubits' must hold each dart 1..N once between them")
        if code_kind == FULL and labels["qubits"] != tuple(range(n)):
            raise ValueError("a full code's 'qubits' must be the darts 1..n in order")
        darts = n if code_kind == FULL else None if special is None else len(special) + n
        if darts is not None and any(max(labels[key], default=-1) >= darts
                                     for key in ("x_checks", "z_checks")):
            raise ValueError(f"'x_checks' and 'z_checks' must hold labels in 1..{darts}")
        code = QuotientCode(
            kind=code_kind, special=special, qubit_labels=labels["qubits"],
            ends=ends, sides=sides, z_labels=labels["z_checks"], x_labels=labels["x_checks"])
        try:
            k = code.k
        except CommutationError:
            raise ValueError("H_X * H_Z^T != 0: the checks do not commute") from None
        if k != _field(doc, "k", int):
            raise ValueError(f"stored k={doc['k']} but check ranks give k={k}")
        return code
    if kind == "cell-complex":
        rows = _field(doc, "incidence21", list)
        if any(type(row) is not list or any(type(c) is not int for c in row) for row in rows):
            raise ValueError("'incidence21' must be a list of integer lists")
        zero, one, two = (_labels(doc, key) for key in ("zero_cells", "one_cells", "two_cells"))
        incidence10, cols10 = _rows_from_json(doc, "incidence10")
        if len(rows) != len(one) or any(len(row) != len(two) for row in rows):
            raise ValueError(f"incidence21 is not {len(one)} x {len(two)} (1-cells x 2-cells)")
        if (len(incidence10), cols10) != (len(zero), len(one)):
            raise ValueError(f"incidence10 is not {len(zero)} x {len(one)} (0-cells x 1-cells)")
        counts = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in rows)
        return CellComplex(zero_cells=zero, one_cells=one, two_cells=two,
                           counts21=counts, ends=read_rows(incidence10, cols10, "incidence10"))
    raise ValueError(f"unknown artifact type {kind!r}")
