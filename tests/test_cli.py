import argparse
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypermap_codes import (
    MAX_DARTS,
    CellComplex,
    Hypermap,
    QuotientCode,
    distance,
    edge_code,
    export_json,
    export_walsh_dot,
    face_code,
    format_hypermap,
    full_code,
    identity,
    parse_cycles,
    parse_hypermap,
    parse_json,
    random_corpus,
    reduce_to_surface,
    run_verification,
)
from hypermap_codes import chain, cli, css, gf2, hypermap, perm, verify
from hypermap_codes.cli import main

from conftest import DATA, TORUS8, plane_star, square_torus
from slow_paths import (as_partition, from_strings, incidence21, parse_lines, per_label_parser,
                        rank, reference_parser, subparsers)

TORUS_TEXT = TORUS8.read_text()


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.hm"
    path.write_text(TORUS_TEXT)
    return str(path)


@pytest.fixture
def single_dart_file(tmp_path):
    path = tmp_path / "one.hm"
    path.write_text("darts: 1\nalpha: ()\nsigma: ()\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_torus(torus_file, capsys):
    code, out, _ = run_cli(capsys, "info", torus_file)
    assert code == 0
    assert "darts: 8" in out
    assert "f1: (1 8)" in out
    assert "euler-characteristic: 0" in out
    assert "genus: 1" in out


def test_info_single_dart(single_dart_file, capsys):
    code, out, _ = run_cli(capsys, "info", single_dart_file)
    assert code == 0
    assert "vertices: 1" in out
    assert "edges: 1" in out
    assert "faces: 1" in out
    assert "genus: 0" in out


def test_code_face_matches_reference(torus_file, capsys):
    code, out, _ = run_cli(capsys, "code", torus_file, "--kind", "face")
    assert code == 0
    assert "n: 6" in out
    assert "k: 2" in out
    assert "111111\n111111" in out
    assert "100001\n111010\n010111\n001100" in out
    assert "Z_f1 = Z1 Z8" in out
    assert "X_v1 = X1 X3 X4 X6 X7 X8" in out


def test_code_special_override(torus_file, capsys):
    code, out, _ = run_cli(capsys, "code", torus_file, "--kind", "face",
                           "--special", "1", "5")
    assert code == 0
    assert "special: 1 5" in out
    assert "qubits: 2 3 4 6 7 8" in out


def test_edge_codes_leave_the_file_special_line_to_face_codes(torus_file, capsys):
    # the file's special darts {2, 5} pick one dart per edge: a face code's set
    code, out, err = run_cli(capsys, "code", torus_file, "--kind", "edge")
    assert (code, err) == (0, "")
    assert "special: 1 2 3 4" in out.splitlines()  # the minimum of each face
    assert "k: 2" in out.splitlines()
    assert out == run_cli(capsys, "code", torus_file, "--kind", "edge",
                          "--special", "1", "2", "3", "4")[1]
    code, out, err = run_cli(capsys, "distance", torus_file, "--kind", "edge")
    assert (code, err) == (0, "") and "d: 2" in out.splitlines()
    assert "special: 2 5" in run_cli(capsys, "code", torus_file, "--kind", "face")[1]


def test_dual_round_trips(torus_file, capsys):
    code, out, _ = run_cli(capsys, "dual", torus_file)
    assert code == 0
    assert "alpha: (1 2 3 4)(5 6 8 7)" in out
    assert "sigma: (1 8)(2 7)(3 5)(4 6)" in out
    h, _ = parse_hypermap(out)
    assert h.n == 8


def test_tri_dual_and_contrary_run(torus_file, capsys):
    for cmd in ("tri-dual", "contrary"):
        code, out, _ = run_cli(capsys, cmd, torus_file)
        assert code == 0
        parse_hypermap(out)


def test_tri_dual_special_line_is_an_edge_code_set(torus_file, tmp_path, capsys):
    """The triangle dual keeps the input's one dart per edge, which is one
    dart per face of the new map: an edge code's set, not a face code's."""
    code, out, _ = run_cli(capsys, "tri-dual", torus_file)
    assert (code, out.splitlines()[-1]) == (0, "special: 2 5")
    path = tmp_path / "tri-dual.hm"
    path.write_text(out)
    code, out, err = run_cli(capsys, "code", str(path), "--kind", "face")
    assert (code, out) == (3, "")
    assert err.startswith("error: not a valid per-edge special set: ")
    code, out, _ = run_cli(capsys, "code", str(path), "--kind", "edge", "--special", "2", "5")
    assert (code, out.splitlines()[2]) == (0, "special: 2 5")


@pytest.mark.parametrize("command", ["dual", "tri-dual", "contrary"])
def test_transforms_keep_an_empty_special_line(command, tmp_path, capsys):
    path = tmp_path / "empty_special.hm"
    path.write_text(TORUS_TEXT.replace("special: 2 5", "special:"))
    code, out, _ = run_cli(capsys, command, str(path))
    assert code == 0
    assert out.endswith("\nspecial: \n")
    assert parse_hypermap(out)[1] == frozenset()


def test_reduce_command(torus_file, capsys):
    code, out, _ = run_cli(capsys, "reduce", torus_file)
    assert code == 0
    assert "zero-cells: 2" in out
    assert "surface-validation: PASS" in out


@pytest.mark.parametrize("argv, expected", [
    (["reduce"], "torus8_reduce.txt"),
    (["reduce", "--special", "1", "6"], "torus8_reduce_special_1_6.txt"),
    (["export", "--format", "json", "--what", "complex"], "torus8_complex.json"),
    (["export", "--format", "json", "--what", "complex", "--special", "1", "6"],
     "torus8_complex_special_1_6.json"),
], ids=["reduce", "reduce-special", "export-complex", "export-complex-special"])
def test_cell_complex_output_is_golden(argv, expected, capsys):
    code, out, err = run_cli(capsys, argv[0], str(TORUS8), *argv[1:])
    assert (code, err) == (0, "")
    assert out == (DATA / expected).read_text()


def test_reduce_prints_every_count(tmp_path, capsys):
    """The printed table is the counts joined by spaces, 2s included (torus8 has none)."""
    twos = 0
    for i, h in enumerate(random_corpus(20, 8, seed=13)):
        s = face_code(h).special
        path = tmp_path / f"{i}.hm"
        path.write_text(format_hypermap(h, s))
        code, out, _ = run_cli(capsys, "reduce", str(path))
        counts = incidence21(reduce_to_surface(h, face_code(h, s)))
        lines = out.splitlines()
        start = lines.index("incidence 2->1 counts (rows = 1-cells, cols = 2-cells):") + 1
        assert code == 0
        assert lines[start:start + len(counts) + 1] == [
            *(" ".join(str(c) for c in row) for row in counts),
            "incidence 1->0 (rows = 0-cells, cols = 1-cells):"]
        twos += sum(row.count(2) for row in counts)
    assert twos


def test_distance_command(torus_file, capsys):
    code, out, _ = run_cli(capsys, "distance", torus_file, "--kind", "face")
    assert code == 0
    assert "d_X: 2" in out
    assert "d_Z: 2" in out
    assert "d: 2" in out
    assert "status: exact" in out


def test_distance_budget_exhausted_still_succeeds(torus_file, capsys):
    code, out, _ = run_cli(capsys, "distance", torus_file, "--kind", "face",
                           "--budget", "1")
    assert code == 0
    assert "d: >1" in out
    assert "lower-bound" in out


def test_distance_no_logicals(single_dart_file, capsys):
    code, out, _ = run_cli(capsys, "distance", single_dart_file, "--kind", "face")
    assert code == 0
    assert "status: no-logical-operators" in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--trials", "40",
                             "--max-darts", "8", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--trials", "40",
                             "--max-darts", "8", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verification: PASS" in out1


def test_random_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "random", "--darts", "6", "--seed", "11")
    code2, out2, _ = run_cli(capsys, "random", "--darts", "6", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    h, _ = parse_hypermap(out1)
    assert h.n == 6


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hm"
    bad.write_text("darts: 4\nalpha: (1 9)\nsigma: ()\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert re.search(r"bad\.hm:2:\d+", err)


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "info", "/nonexistent/x.hm")
    assert code == 2
    assert "cannot read" in err


def test_disconnected_exit_code(tmp_path, capsys):
    bad = tmp_path / "disc.hm"
    bad.write_text("darts: 2\nalpha: ()\nsigma: ()\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 3
    assert "not connected" in err


def test_disconnected_error_of_a_million_components_is_bounded(tmp_path, capsys):
    bad = tmp_path / "million.hm"
    bad.write_text("darts: 1000000\nalpha: ()\nsigma: ()\n")
    code, out, err = run_cli(capsys, "info", str(bad))
    assert (code, out) == (3, "")
    assert len(err.encode()) < 1024
    assert err.endswith(", {63}, {64}, ... (1000000 components)\n")
    assert err.startswith("error: hypermap is not connected; dart components: {1}, {2}, {3}, ")


def test_invalid_special_exit_code(torus_file, capsys):
    code, _, err = run_cli(capsys, "code", torus_file, "--kind", "face",
                           "--special", "1", "2")
    assert code == 3
    assert "special" in err


@pytest.mark.parametrize("argv", [
    ("code", "--kind", "face"),
    ("distance", "--kind", "face"),
    ("export", "--format", "json", "--what", "code"),
])
def test_noncommuting_quotient_exits_4(argv, torus_file, capsys, monkeypatch):
    # H_X = H_Z = the 2 x 2 identity: each qubit in one X and one Z check
    bogus = QuotientCode(kind="face", special=None, qubit_labels=(0, 1),
                         ends=((0, 2), (1, 2)), sides=((0, 2), (1, 2)),
                         z_labels=(0, 1), x_labels=(0, 1))
    monkeypatch.setattr(cli, "_build_quotient", lambda *args: bogus)
    code, out, err = run_cli(capsys, argv[0], torus_file, *argv[1:])
    assert (code, out) == (4, "")
    assert err == "internal error: H_X * H_Z^T != 0; quotient complex is broken\n"


# ---------------------------------------------------------------------------
# DOT export

def dot_adjacency(text):
    vertex_groups: dict[str, set[int]] = {}
    edge_groups: dict[str, set[int]] = {}
    for m in re.finditer(r"(v\d+) -- (e\d+) \[label=\"(\d+)\"\];", text):
        v, e, dart = m.group(1), m.group(2), int(m.group(3)) - 1
        vertex_groups.setdefault(v, set()).add(dart)
        edge_groups.setdefault(e, set()).add(dart)
    return vertex_groups, edge_groups


def test_walsh_dot_of_torus(torus8):
    text = export_walsh_dot(torus8)
    assert text.count("shape=circle") == 2
    assert text.count("shape=square") == 2
    assert len(re.findall(r"--", text)) == 8


def test_walsh_dot_single_dart():
    h = Hypermap(identity(1), identity(1))
    text = export_walsh_dot(h)
    assert text.count("shape=circle") == 1
    assert text.count("shape=square") == 1
    assert 'v1 -- e1 [label="1"];' in text


def test_walsh_dot_recovers_orbits(corpus):
    for h in corpus[:50]:
        vg, eg = dot_adjacency(export_walsh_dot(h))
        assert frozenset(map(frozenset, vg.values())) == as_partition(h.vertices)
        assert frozenset(map(frozenset, eg.values())) == as_partition(h.edges)


def test_export_dot_cli(torus_file, capsys):
    code, out, _ = run_cli(capsys, "export", torus_file, "--format", "dot")
    assert code == 0
    assert out.startswith("graph walsh {")


# ---------------------------------------------------------------------------
def _write_map(tmp_path, name, h):
    path = tmp_path / name
    path.write_text(format_hypermap(h))
    return str(path)


def test_distance_cli_refuses_codes_over_the_label_bit_limit(tmp_path, capsys, monkeypatch):
    # the search holds a k-bit label per qubit: a random map on 46,360 darts has a
    # face code of n*k just over 2**31 bits, refused before any output, flag or not
    h = hypermap.random_hypermap(46360, 0)
    big = _write_map(tmp_path, "random46360.hm", h)
    face = face_code(h)
    assert face.n * face.k > css.DISTANCE_LABEL_BITS == 2**31
    for flag in ([], ["--allow-large"]):
        assert run_cli(capsys, "distance", big, "--kind", "face", *flag) == (3, "", (
            f"error: distance search on n = {face.n} qubits with k = {face.k} holds "
            f"{face.n * face.k} label bits, over the limit of 2147483648\n"))
    # the limit itself is allowed: the {4,4}_5 face code holds 50 * 2 bits
    lattice = _write_map(tmp_path, "square5.hm", square_torus(5))
    monkeypatch.setattr(css, "DISTANCE_LABEL_BITS", 100)
    code, out, _ = run_cli(capsys, "distance", lattice, "--kind", "face")
    assert code == 0
    assert "d: 5\n" in out
    monkeypatch.setattr(css, "DISTANCE_LABEL_BITS", 99)
    for flag in ([], ["--allow-large"]):
        assert run_cli(capsys, "distance", lattice, "--kind", "face", *flag) == (3, "", (
            "error: distance search on n = 50 qubits with k = 2 holds 100 label bits, "
            "over the limit of 99\n"))


def test_distance_cli_limit_exempts_codes_without_logicals(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(css, "DISTANCE_LABEL_BITS", 0)
    star = _write_map(tmp_path, "star30.hm", plane_star(30))
    code, out, _ = run_cli(capsys, "distance", star, "--kind", "face")
    assert code == 0
    assert "n: 30\nk: 0\n" in out and "status: no-logical-operators\n" in out
    assert run_cli(capsys, "distance", star, "--kind", "full") == (3, "", (
        "error: distance search on n = 60 qubits with k = 29 holds 1740 label bits, "
        "over the limit of 0\n"))


def test_distance_library_refuses_with_the_cli_words(tmp_path, capsys, monkeypatch):
    # the limit lives in css: a library call is refused with the line the CLI
    # prints after "error: ", before any label is built; k = 0 is never refused
    monkeypatch.setattr(css, "DISTANCE_LABEL_BITS", 99)
    built = []
    real = css._cotree_labels
    monkeypatch.setattr(css, "_cotree_labels", lambda *args: built.append(1) or real(*args))
    lattice = square_torus(5)
    with pytest.raises(ValueError) as refused:
        distance(face_code(lattice))
    path = _write_map(tmp_path, "square5.hm", lattice)
    assert run_cli(capsys, "distance", path, "--kind", "face") == (
        3, "", f"error: {refused.value}\n")
    assert str(refused.value) == ("distance search on n = 50 qubits with k = 2 holds "
                                  "100 label bits, over the limit of 99")
    assert built == []
    monkeypatch.setattr(css, "DISTANCE_LABEL_BITS", 0)
    star = face_code(plane_star(30))
    assert star.n == 30 and distance(star).no_logicals
    with pytest.raises(ValueError, match="^distance budget must be >= 0, got -1$"):
        distance(star, budget=-1)  # the budget is checked first, as before


@pytest.mark.parametrize("size", range(4, 11))
def test_distance_cli_needs_no_flag_on_the_square_lattice(size, tmp_path, capsys, monkeypatch):
    # the benchmark's form, with --allow-large, and the same argv without it, on
    # both routes: the same bytes, and d = L on the face and edge codes, 2 on the full
    lattice = _write_map(tmp_path, f"square{size}.hm", square_torus(size))
    for kind, d in (("face", size), ("edge", size), ("full", 2)):
        argv = ["distance", lattice, "--kind", kind, "--budget", str(size)]
        flagged = [*argv[:4], "--allow-large", *argv[4:]]
        outcome = run_cli(capsys, *argv)
        assert outcome[0] == 0 and outcome[2] == ""
        assert f"d: {d}\nstatus: exact\n" in outcome[1]
        assert run_cli(capsys, *flagged) == outcome
        with monkeypatch.context() as argparse_route:
            argparse_route.setattr(cli, "_read_plain", lambda argv: None)
            assert run_cli(capsys, *argv) == run_cli(capsys, *flagged) == outcome


# JSON export

def test_export_json_code_embeds_matrices(torus8):
    code = face_code(torus8, {1, 4})
    doc = json.loads(export_json(code))
    assert doc["indexing"] == "1-based"
    assert doc["hx"]["rows"] == ["111111", "111111"]
    assert doc["hz"]["rows"] == ["100001", "111010", "010111", "001100"]
    assert doc["qubits"] == [1, 3, 4, 6, 7, 8]


def test_export_json_refuses_an_unsupported_object(torus8):
    for artifact in (torus8.alpha, distance(face_code(torus8)), None):
        with pytest.raises(TypeError, match=f"cannot export {type(artifact).__name__} as JSON"):
            export_json(artifact)


def test_export_json_empty_code():
    h = Hypermap(identity(1), identity(1))
    doc = json.loads(export_json(face_code(h)))
    assert doc["n"] == 0
    assert doc["k"] == 0
    assert doc["qubits"] == []


def test_json_round_trip_random_artifacts():
    for i, h in enumerate(random_corpus(30, 8, seed=13)):
        assert parse_json(export_json(h)) == h
        s = face_code(h).special
        code = face_code(h, s) if i % 2 else full_code(h)
        assert parse_json(export_json(code)) == code
        complex_ = reduce_to_surface(h, face_code(h, s))
        assert parse_json(export_json(complex_)) == complex_


def test_every_corpus_document_round_trips(torus8, corpus):
    for h in [torus8, *corpus]:
        assert parse_json(export_json(h)) == h
        face = face_code(h)
        for q in (face, edge_code(h), full_code(h)):
            assert parse_json(export_json(q)) == q
        complex_ = reduce_to_surface(h, face)
        assert parse_json(export_json(complex_)) == complex_


def test_parse_json_accepts_the_special_lists_export_writes(torus8):
    for special in (frozenset(), frozenset({1, 4}), frozenset(range(8))):
        assert parse_json(export_json(torus8, special=special)) == torus8


@pytest.mark.parametrize("special", [{99}, {8}, {-1}, {True}, {1.0, 4}, {"1"}, [1, 1], [1, 4, 4]],
                         ids=["99", "n", "-1", "True", "float", "str", "repeat", "repeat of 4"])
def test_export_json_refuses_a_special_set_that_is_no_set_of_darts(torus8, special):
    with pytest.raises(ValueError, match=r"is not a set of darts 0\.\.7$"):
        export_json(torus8, special=special)
    with pytest.raises(ValueError, match=r"is not a set of darts 0\.\.7$"):
        format_hypermap(torus8, special)


def test_special_set_writers_quote_at_most_64_characters(torus8):
    special = set(range(-1, 200000))
    want = f"special {repr(special)[:64]}... is not a set of darts 0..7"
    for write in (lambda: export_json(torus8, special=special),
                  lambda: format_hypermap(torus8, special)):
        with pytest.raises(ValueError) as caught:
            write()
        assert str(caught.value) == want


def test_export_json_takes_special_darts_with_a_hypermap_only(torus8):
    face = face_code(torus8)
    for artifact in (face, full_code(torus8), reduce_to_surface(torus8, face)):
        with pytest.raises(TypeError, match=f"special darts with a {type(artifact).__name__}$"):
            export_json(artifact, special={3})


_JSON_MAPS = random_corpus(40, 8, seed=30)
_JSON_ARTIFACTS = {
    "hypermap": lambda h: h, "face": face_code, "edge": edge_code, "full": full_code,
    "complex": lambda h: reduce_to_surface(h, face_code(h)),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_JSON_MAPS), st.sampled_from(sorted(_JSON_ARTIFACTS)),
       st.none() | st.frozensets(st.integers(-2, 9) | st.sampled_from([True, 1.5, "3"]),
                                 max_size=5))
def test_every_document_export_json_writes_parse_json_reads_back(h, what, special):
    artifact = _JSON_ARTIFACTS[what](h)
    try:
        text = export_json(artifact, special=special)
    except (TypeError, ValueError):  # only a special set that is not the map's darts
        assert special is not None
        assert what != "hypermap" or not all(type(d) is int and 0 <= d < h.n for d in special)
        return
    assert parse_json(text) == artifact
    if special is not None:
        assert json.loads(text)["special"] == sorted(d + 1 for d in special)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_JSON_MAPS),
       st.frozensets(st.integers(-2, 9) | st.sampled_from([True, False, 1.5, "3"]), max_size=5)
       | st.lists(st.integers(0, 8), max_size=4))
def test_both_special_set_writers_refuse_alike_and_read_back(h, special):
    try:
        labels = hypermap._special_labels(h, special)
    except ValueError:
        for write in (lambda: export_json(h, special=special),
                      lambda: format_hypermap(h, special)):
            with pytest.raises(ValueError, match=f"is not a set of darts 0\\.\\.{h.n - 1}$"):
                write()
        return
    assert labels == sorted(d + 1 for d in special)
    assert parse_hypermap(format_hypermap(h, special)) == (h, frozenset(special))
    assert json.loads(export_json(h, special=special))["special"] == labels


def test_parse_json_rejects_tampered_k(torus8):
    code = face_code(torus8)
    doc = json.loads(export_json(code))
    doc["k"] += 1
    with pytest.raises(ValueError):
        parse_json(json.dumps(doc))


_HEADER = {"format": "hypermap-codes", "version": 1}
_HYPERMAP_DOC = {**_HEADER, "type": "hypermap", "darts": 8,
                 "alpha": "(4 3 2 1)(5 7 8 6)", "sigma": "(7 1 6 3)(5 2 8 4)"}
_CODE_DOC = {**_HEADER, "type": "css-code", "n": 2, "k": 1, "z_axis": "face",
             "qubits": [1, 2], "x_checks": [1], "z_checks": [],
             "hx": {"cols": 2, "rows": ["11"]}, "hz": {"cols": 2, "rows": []}}
_FULL_CODE_DOC = {**_CODE_DOC, "kind": "full", "k": 0, "z_checks": [1],
                  "hz": {"cols": 2, "rows": ["11"]}}
_COMPLEX_DOC = {**_HEADER, "type": "cell-complex", "zero_cells": [1], "one_cells": [],
                "two_cells": [1], "incidence21": [], "incidence10": {"cols": 0, "rows": [""]}}


_TORUS8_COMPLEX_DOC = json.loads((DATA / "torus8_complex.json").read_text())
_INCIDENCE21 = _TORUS8_COMPLEX_DOC["incidence21"]
_INCIDENCE10 = _TORUS8_COMPLEX_DOC["incidence10"]


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _complex_with(key, value):
    return {**_TORUS8_COMPLEX_DOC, key: value}


MALFORMED_DOCUMENTS = {
    "top-level list": [1],
    "top-level string": "hypermap",
    "string dart count": {**_HYPERMAP_DOC, "darts": "8"},
    "float dart count": {**_HYPERMAP_DOC, "darts": 8.0},
    "boolean dart count": {**_HYPERMAP_DOC, "darts": True},
    "missing darts": _without(_HYPERMAP_DOC, "darts"),
    "non-string cycles": {**_HYPERMAP_DOC, "alpha": [4, 3, 2, 1]},
    "special not a list": {**_HYPERMAP_DOC, "special": "2 5"},
    "string special label": {**_HYPERMAP_DOC, "special": [2, "5"]},
    "special label 0": {**_HYPERMAP_DOC, "special": [0, 5]},
    "repeated special label": {**_HYPERMAP_DOC, "special": [5, 5]},
    "special label above darts": {**_HYPERMAP_DOC, "special": [2, 9]},
    "missing hx": _without(_CODE_DOC, "hx"),
    "matrix not an object": {**_CODE_DOC, "hx": ["11"]},
    "string cols": {**_CODE_DOC, "hx": {"cols": "2", "rows": ["11"]}},
    "rows not a list": {**_CODE_DOC, "hx": {"cols": 2, "rows": "11"}},
    "missing cols": {**_CODE_DOC, "hx": {"rows": ["11"]}},
    "string n": {**_CODE_DOC, "n": "2"},
    "float k": {**_CODE_DOC, "k": 1.0},
    "labels not a list": {**_CODE_DOC, "qubits": "12"},
    "non-integer labels": {**_CODE_DOC, "qubits": [1, "2"]},
    "missing labels": _without(_CODE_DOC, "x_checks"),
    "incidence rows not lists": {**_COMPLEX_DOC, "incidence21": [1]},
    "cells not a list": {**_COMPLEX_DOC, "zero_cells": 1},
    "missing incidence10": _without(_COMPLEX_DOC, "incidence10"),
    "incidence21 row one short": _complex_with(
        "incidence21", [_INCIDENCE21[0][:-1], *_INCIDENCE21[1:]]),
    "extra incidence21 row": _complex_with("incidence21", [*_INCIDENCE21, [0, 0, 0, 0]]),
    "incidence21 rows one long": _complex_with("incidence21", [[*row, 0] for row in _INCIDENCE21]),
    "dropped one-cell label": _complex_with("one_cells", _TORUS8_COMPLEX_DOC["one_cells"][:-1]),
    "dropped two-cell label": _complex_with("two_cells", _TORUS8_COMPLEX_DOC["two_cells"][:-1]),
    "dropped zero-cell label": _complex_with("zero_cells", _TORUS8_COMPLEX_DOC["zero_cells"][:-1]),
    "extra incidence10 row": _complex_with(
        "incidence10", {**_INCIDENCE10, "rows": [*_INCIDENCE10["rows"], "000000"]}),
    "empty z_axis": {**_CODE_DOC, "z_axis": ""},
    "unknown z_axis": {**_CODE_DOC, "z_axis": "banana"},
    "z_axis of the full kind": {**_CODE_DOC, "z_axis": "full"},
    "unknown kind": {**_CODE_DOC, "kind": "banana"},
    "kind not a string": {**_CODE_DOC, "kind": 1},
    "kind that disagrees with z_axis": {**_CODE_DOC, "kind": "edge"},
    "face kind of a full code": {**_FULL_CODE_DOC, "kind": "face"},
    "special on a full code": {**_FULL_CODE_DOC, "special": [3]},
    "special that overlaps the qubits": {**_CODE_DOC, "special": [2, 3]},
    "special that leaves a dart out": {**_CODE_DOC, "special": [4]},
    "repeated code special label": {**_CODE_DOC, "special": [3, 3]},
    "code special label 0": {**_CODE_DOC, "special": [0, 3]},
    "full code qubits other than 1..n": {**_FULL_CODE_DOC, "qubits": [5, 9]},
    "full code qubits out of order": {**_FULL_CODE_DOC, "qubits": [2, 1]},
    "full code x_check label above n": {**_FULL_CODE_DOC, "x_checks": [40]},
    "full code z_check label above n": {**_FULL_CODE_DOC, "z_checks": [77]},
    "x_check label above the darts of qubits and special": {
        **_CODE_DOC, "special": [3], "x_checks": [4]},
    "z_check label above the darts of qubits and special": {
        **_CODE_DOC, "special": [3], "hz": {"cols": 2, "rows": ["00"]}, "z_checks": [9]},
    "qubit label 0": {**_CODE_DOC, "qubits": [0, 2]},
    "negative qubit label": {**_CODE_DOC, "qubits": [-5, 2]},
    "repeated qubit label": {**_CODE_DOC, "qubits": [2, 2]},
    "x_check label 0": {**_CODE_DOC, "x_checks": [0]},
    "repeated z_check label": {
        **_CODE_DOC, "hz": {"cols": 2, "rows": ["00", "00"]}, "z_checks": [1, 1], "k": 1},
    "zero-cell label 0": _complex_with("zero_cells", [0, *_TORUS8_COMPLEX_DOC["zero_cells"][1:]]),
    "repeated one-cell label": _complex_with(
        "one_cells", [*_TORUS8_COMPLEX_DOC["one_cells"][:-1], _TORUS8_COMPLEX_DOC["one_cells"][0]]),
    "negative two-cell label": _complex_with(
        "two_cells", [-1, *_TORUS8_COMPLEX_DOC["two_cells"][1:]]),
}


def test_parse_json_reads_hand_written_documents():
    assert isinstance(parse_json(json.dumps(_HYPERMAP_DOC)), Hypermap)
    code = parse_json(json.dumps(_CODE_DOC))
    assert (code.n, code.k) == (2, 1)
    assert isinstance(parse_json(json.dumps(_COMPLEX_DOC)), CellComplex)


def test_parse_json_reads_hand_written_kinds_and_special_sets():
    assert parse_json(json.dumps(_CODE_DOC)).kind == "face"
    full = parse_json(json.dumps(_FULL_CODE_DOC))
    assert (full.kind, full.special, full.k) == ("full", None, 0)
    for kind, axis in (("face", "face"), ("edge", "edge")):
        code = parse_json(json.dumps({**_CODE_DOC, "kind": kind, "z_axis": axis,
                                      "qubits": [4, 2], "special": [3, 1]}))
        assert (code.kind, code.special) == (kind, frozenset({0, 2}))


@pytest.mark.parametrize("name", list(MALFORMED_DOCUMENTS))
def test_parse_json_maps_malformed_documents_to_value_error(name):
    with pytest.raises(ValueError):
        parse_json(json.dumps(MALFORMED_DOCUMENTS[name]))


@pytest.mark.parametrize("n", [1, 3])
def test_parse_json_refuses_a_qubit_count_other_than_the_column_count(n):
    with pytest.raises(ValueError, match="check matrices do not match the qubit count"):
        parse_json(json.dumps({**_CODE_DOC, "n": n}))


@pytest.mark.parametrize("doc, message", [
    ({**_CODE_DOC, "hx": {"cols": 2, "rows": ["12"]}}, "bad matrix row '12'"),
    ({**_CODE_DOC, "hz": {"cols": -1, "rows": []}}, "matrix shape 0 x -1 is not two integers >= 0"),
    ({**_HEADER, "type": "banana"}, "unknown artifact type 'banana'"),
], ids=["row not of 0s and 1s", "negative cols and no rows", "unknown type"])
def test_parse_json_names_each_refusal(doc, message):
    with pytest.raises(ValueError) as caught:
        parse_json(json.dumps(doc))
    assert str(caught.value) == message


_LONG = "1" + "x" * 2_000_000  # a refusal quotes its first 64 characters


@pytest.mark.parametrize("doc, message", [
    ({**_CODE_DOC, "hx": {"cols": 2, "rows": ["11", _LONG]}},
     f"bad matrix row {_LONG[:64]!r}..."),
    ({**_CODE_DOC, "hx": {"cols": 2, "rows": [[0, 1] * 1_000_000]}},
     "bad matrix row " + repr([0, 1] * 11)[:64] + "..."),
    ({**_CODE_DOC, "n": _LONG}, f"'n' has the wrong type: {_LONG[:64]!r}..."),
    ({**_CODE_DOC, "qubits": {str(i): i for i in range(100_000)}},
     "'qubits' has the wrong type: " + repr({str(i): i for i in range(10)})[:64] + "..."),
], ids=["long row", "long non-string row", "long string value", "long object value"])
def test_parse_json_quotes_at_most_64_characters_of_a_refused_value(doc, message):
    with pytest.raises(ValueError) as caught:
        parse_json(json.dumps(doc))
    assert str(caught.value) == message


@pytest.mark.parametrize("text, message", [
    ("darts: 8\nalpha: (1 " + "x" * 2_000_000 + ")\nsigma: ()\n",
     "2:11: bad alpha cycles: dart label " + repr("x" * 64) + "... is not a decimal label"),
    ("darts: " + "x" * 2_000_000 + "\nalpha: ()\nsigma: ()\n",
     "1:8: dart count must be a positive integer, found " + repr("x" * 64) + "..."),
    ("k" * 2_000_000 + ": 8\nalpha: ()\nsigma: ()\n",
     "1:1: expected 'darts' line, found " + repr("k" * 64) + "..."),
], ids=["alpha token", "darts value", "first key"])
def test_a_refused_file_quotes_at_most_64_characters(tmp_path, capsys, text, message):
    path = tmp_path / "long.hm"
    path.write_text(text)
    code, out, err = run_cli(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{message}\n"
    assert len(err.encode()) < 1024


def test_a_refused_special_list_quotes_at_most_64_characters(torus_file, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["code", torus_file, "--kind", "face", "--special", "2", "y" * 100])
    out, err = capsys.readouterr()
    assert (caught.value.code, out) == (2, "")
    assert err.splitlines()[-1] == ("hypermap-codes code: error: argument --special: special dart "
                                    + repr("y" * 64) + "... is not a decimal label")


def test_export_json_cli_round_trip(torus_file, capsys):
    code, out, _ = run_cli(capsys, "export", torus_file, "--format", "json",
                           "--what", "code", "--kind", "face")
    assert code == 0
    artifact = parse_json(out)
    assert isinstance(artifact, QuotientCode)
    assert artifact.n == 6 and artifact.k == 2

    code, out, _ = run_cli(capsys, "export", torus_file, "--format", "json",
                           "--what", "complex")
    assert code == 0
    assert isinstance(parse_json(out), CellComplex)

    code, out, _ = run_cli(capsys, "export", torus_file, "--format", "json")
    assert code == 0
    assert isinstance(parse_json(out), Hypermap)


def test_special_dart_transfer_check_fails_without_raising(torus8, monkeypatch):
    assert verify._check_special_dart_transfer(verify.Derived(torus8)) is True
    # the identity is no triangle dual: torus8's 2 edge minima cannot cover its 4 faces
    monkeypatch.setattr(verify, "triangle_dual", lambda h: h)
    assert verify._check_special_dart_transfer(verify.Derived(torus8)) is False


def test_run_verification_report(corpus):
    report = run_verification(trials=30, max_darts=8, seed=7)
    assert report.passed
    text = report.render()
    assert text == run_verification(trials=30, max_darts=8, seed=7).render()
    assert "face-edge-code-transfer: PASS" in text


FAILING_REPORT = """\
trials: 8
max-darts: 6
seed: 3
dual-involution: FAIL (2/8 failed; first: Hypermap(alpha='(1 2 5 4)', sigma='(1 2)(3 5 4)', n=5))
dual-preserves-edges: PASS (8/8)
dual-swaps-vertices-faces: PASS (8/8)
triangle-dual-involution: PASS (8/8)
triangle-dual-preserves-vertices: PASS (8/8)
triangle-dual-swaps-edges-faces: PASS (8/8)
contrary-involution: PASS (8/8)
contrary-swaps-vertices-edges: PASS (8/8)
nabla-swaps-dual-edges-faces: PASS (8/8)
nabla-is-triangle-dual-of-dual: PASS (8/8)
special-dart-transfer: FAIL (3/8 failed; first: Hypermap(alpha='(1 4 2 5 6)', \
sigma='(1 5)(2 4 6 3)', n=6) raised TypeError: object of type 'Hypermap' has no len())
face-edge-code-transfer: PASS (8/8)
dual-face-nabla-edge-transfer: PASS (8/8)
euler-logical-count: PASS (8/8)
full-code-logical-gap: PASS (8/8)
chain-conditions: PASS (8/8)
closed-surface: PASS (8/8)
verification: FAIL (17 checks, 8 hypermaps)
"""


def test_failing_verify_report_bytes(capsys, monkeypatch):
    # one check fails on the odd-dart maps, another raises on the 6-dart maps
    checks = list(verify.VERIFY_CHECKS)
    checks[0] = ("dual-involution", lambda x: x.h.n % 2 == 0)
    checks[10] = ("special-dart-transfer", lambda x: x.h.n < 6 or len(x.h))
    monkeypatch.setattr(verify, "VERIFY_CHECKS", checks)
    code, out, err = run_cli(capsys, "verify", "--trials", "8", "--max-darts", "6", "--seed", "3")
    assert (code, out, err) == (3, FAILING_REPORT, "")


# ---------------------------------------------------------------------------
# one argument parser per process

def _parser_sequence(path):
    """Every subcommand, --special given then omitted, usage errors and --help."""
    return [
        ["info", path], ["dual", path], ["tri-dual", path], ["contrary", path],
        ["code", path, "--kind", "face", "--special", "2", "5"],
        ["code", path, "--kind", "face"],
        ["code", path, "--kind", "edge", "--special", "1"],
        ["reduce", path, "--special", "1", "6"], ["reduce", path],
        ["distance", path, "--kind", "edge", "--budget", "3", "--special", "1", "2", "3", "4"],
        ["distance", path, "--kind", "edge"],
        ["verify", "--trials", "5", "--seed", "2"], ["verify", "--trials", "3"],
        ["random", "--darts", "6", "--seed", "1"], ["random", "--darts", "6"],
        ["export", path, "--format", "json", "--what", "code", "--special", "2", "5"],
        ["export", path, "--format", "json", "--what", "code"],
        ["export", path, "--format", "dot"],
        ["code", path, "--kind", "sideways"], ["verify", "--trials", "0"], ["nope"], [],
        ["code", path, "--kind", "face"],
        ["--help"], ["distance", "--help"], ["info", path],
    ]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_leaks_no_state(torus_file, capsys, monkeypatch):
    sequence = _parser_sequence(torus_file)
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_shared_parser", cli.build_parser)  # a new parser per call
        expected = [_outcome(capsys, argv) for argv in sequence]
    assert {code for code, _, _ in expected} == {0, 2, 3}
    original = cli.build_parser
    builds = []

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    for argv, want in zip(sequence, expected):
        assert _outcome(capsys, argv) == want, argv
    assert len(builds) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_plain_commands_load_neither_re_nor_enum():
    """Under ``python -S``, which runs no site-packages code that might load them,
    importing the CLI and running plain ``info``, ``code``, ``reduce`` and
    ``distance`` argvs loads neither ``re`` nor ``enum``."""
    script = (
        "import sys\n"
        "import hypermap_codes.cli as cli\n"
        f"path = {str(TORUS8)!r}\n"
        "for argv in (['info', path], ['code', path, '--kind', 'face'], ['reduce', path],\n"
        "             ['distance', path, '--kind', 'face']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted({'re', 'enum'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_cli_builds_no_parser():
    """Neither importing the CLI nor running a plain argv through ``main``
    imports argparse (nor its ``gettext``) or builds a parser."""
    script = (
        "import sys\n"
        "import hypermap_codes.cli as cli\n"
        "loaded = [sorted({'argparse', 'gettext'} & set(sys.modules))]\n"
        f"for argv in (['info', {str(TORUS8)!r}],\n"
        f"             ['code', {str(TORUS8)!r}, '--kind', 'face', '--special', '2', '5']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    loaded.append(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "print(loaded, cli._shared_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[[], [], []] 0"


# ---------------------------------------------------------------------------
# one argparse pass per known command

_F = "{file}"
# argvs whose parse must not depend on the route: "{file}" stands for torus8's path
ROUTE_ARGVS = [
    [], ["-h"], ["--help"], ["-v"], ["nope"], ["nope", _F], ["Info", _F], [_F],
    ["--", "info", _F], ["info", "--", _F], ["code", _F, "--kind", "face", "--", "x"],
    ["info", _F, "--bogus"], ["info", _F, "extra"], ["verify", "extra"],
    ["code", _F, "--kind", "face", "--bogus", "x"], ["code", _F, "--kin", "face"],
    ["code", _F, "--kind=full"], ["code", _F, "--kind=full", "--special", "1"],
    ["code", _F, "--kind", "face", "--special", "2", "5", "--special", "1", "6"],
    ["random", "--darts", "4", "--seed", "1", "--seed", "2"],
    ["code", _F, "--kind", "face", "--special"],
    ["code", _F, "--kind", "face", "--special", "2", "2"],
    ["code", _F, "--kind", "face", "--special", "x"],
    ["code", _F, "--kind", "face", "--special", "-1"],
    ["code", _F, "--kind", "face", "--special", "1", "2"],
    ["distance", _F, "--kind", "face", "--budget", "-1"],
    ["distance", _F, "--kind", "face", "--budget", "x"],
    ["verify", "--trials", "0"], ["verify", "--trials", "1", "--max-darts", "0"],
    ["export", _F, "--format", "dot", "--what", "code"],
    ["export", _F, "--format", "json", "--what", "hypermap", "--kind", "edge"],
    ["info", _F, "-h"], ["code", _F, "--kind", "face", "-h"], ["info", "-h", "--bogus"],
    ["code", _F], ["code"], ["info"], ["info", _F, _F], ["code", _F, "--kind", "sideways"],
    ["random", "--darts", "0"], ["random", "--seed", "3"], ["info", "-x"],
    *([name, "-h"] for name in ("info", "dual", "tri-dual", "contrary", "code", "reduce",
                                "distance", "verify", "random", "export")),
    # the command forms of the benchmark's workloads
    ["code", _F, "--kind", "face", "--special", "2", "5"],
    ["code", _F, "--kind", "edge", "--special", "1", "2", "3", "4"],
    ["code", _F, "--kind", "full"], ["reduce", _F, "--special", "2", "5"],
    ["verify", "--trials", "100", "--max-darts", "10", "--seed", "3"],
    ["info", _F], ["dual", _F], ["tri-dual", _F], ["contrary", _F],
    ["code", _F, "--kind", "face"], ["reduce", _F],
    ["distance", _F, "--kind", "face"], ["distance", _F, "--kind", "full"],
    ["export", _F, "--format", "dot"], ["export", _F, "--format", "json", "--what", "complex"],
    ["distance", _F, "--kind", "edge", "--allow-large", "--budget", "3"],
    # forms only argparse reads, next to the plain forms they spell differently
    ["code", "--kind", "face", _F], ["reduce", "--special", "1", "6", _F],
    ["code", _F, "--kind=face"], ["code", _F, "--kin", "face", "--special", "1", "6"],
    ["distance", _F, "--kind", "face", "--allow-large", "x"],
    ["distance", _F, "--allow-large", "--kind", "full", "--budget", "2"],
    ["code", _F, "--kind", "face", "face"], ["code", _F, "--kind", ""], ["info", ""],
    ["code", _F, "--kind", "face", "--special", "1", "6", "-h"],
    ["code", _F, "--kind", "face", "--special", "1", "--", "6"],
    ["code", _F, "--special", "1", "6", "--kind", "face"],
    ["verify", "--seed", "5", "--trials", "2"],
    ["random", "--darts", "4"], ["random", "--seed", "1", "--darts", "04"],
    ["export", _F, "--what", "code", "--format", "json", "--special", "1", "2", "3", "4",
     "--kind", "edge"],
    # a list the --special action refuses, alone and before or after another fault
    ["reduce", _F, "--special", "2", "x", "5", "y"],
    ["distance", _F, "--kind", "face", "--special", "0", "5"],
    ["export", _F, "--format", "json", "--what", "complex", "--special", "1000001"],
    ["distance", _F, "--kind", "face", "--special", "2", "2", "--budget", "x"],
    ["distance", _F, "--kind", "face", "--budget", "x", "--special", "2", "2"],
    ["code", _F, "--special", "x", "--kind", "sideways"],
    ["code", _F, "--kind", "sideways", "--special", "x"], ["code", _F, "--special", "x"],
]


def _parsed(capsys, parse, argv):
    """The namespace ``parse(argv)`` returns as a dict (None if it exits), the
    exit code (None if it returns), and what it printed."""
    try:
        result, code = vars(parse(argv)), None
    except SystemExit as exc:
        result, code = None, exc.code
    captured = capsys.readouterr()
    return result, code, captured.out, captured.err


def _plain_read(argv):
    """The plain reader's namespace for ``argv`` as a dict, None when it leaves
    ``argv`` to the top-level parser, or, when ``--special``'s reader refuses
    its list, the exit code and what the reader printed, as a tuple; it prints
    nothing else."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            namespace = cli._read_plain(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    assert (out.getvalue(), err.getvalue()) == ("", "")
    return None if namespace is None else vars(namespace)


def _subparser_reads(parser, argv):
    """The namespace and leftovers of the subparser of ``argv[0]``, or its exit code."""
    try:
        namespace, extras = subparsers(parser)[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    except SystemExit as exc:
        return exc.code
    return vars(namespace), extras


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "no argv")
def test_one_pass_parse_matches_the_top_level_parser(argv, torus_file, capsys, monkeypatch):
    argv = [arg.replace(_F, torus_file) for arg in argv]
    parser = cli._shared_parser()
    one_pass = _parsed(capsys, cli._parse_args, argv)
    assert one_pass == _parsed(capsys, parser.parse_args, argv)
    if argv and argv[0] in cli.COMMANDS:
        plain = _plain_read(argv)
        assert capsys.readouterr() == ("", "")
        if isinstance(plain, tuple):  # a refused list, reported as parse_args reports it
            assert plain == _parsed(capsys, parser.parse_args, argv)[1:]
        elif plain is not None:
            assert _subparser_reads(parser, argv) == (plain, [])
    outcome = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)  # the top-level parser reads all
    assert outcome == _outcome(capsys, argv)


@pytest.mark.parametrize("argv", [argv for argv in ROUTE_ARGVS if argv[:1] == ["distance"]],
                         ids=" ".join)
def test_allow_large_changes_nothing_on_either_route(argv, torus_file, capsys, monkeypatch):
    argv = [arg.replace(_F, torus_file) for arg in argv]
    other = ([arg for arg in argv if arg != "--allow-large"] if "--allow-large" in argv
             else [*argv, "--allow-large"])
    for route in ("plain", "argparse"):
        if route == "argparse":
            monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
        assert _outcome(capsys, argv) == _outcome(capsys, other)


@pytest.mark.parametrize("argv", [
    ["info", _F], ["code", _F, "--kind", "face", "--special", "2", "5"],
    ["distance", _F, "--kind", "edge", "--allow-large", "--budget", "3"],
    ["verify"], ["export", _F, "--what", "complex", "--format", "json"],
])
def test_plain_reader_reads_plain_argv(argv, torus_file):
    argv = [arg.replace(_F, torus_file) for arg in argv]
    assert type(_plain_read(argv)) is dict


@pytest.mark.parametrize("argv", [
    ["code", _F, "--kind", "face", "--special", "2", "x"],  # the action refuses
    ["code", _F, "--kind", "sideways"], ["verify", "--trials", "0"],
    ["code", "--kind", "face", _F], ["code", _F, "--kind=face"], ["code", _F, "--kin", "face"],
    ["code", _F, "--kind", "face", "--kind", "full"], ["code", _F, "--kind", "face", "--special"],
    ["info", _F, "--", "x"], ["info", _F, "-h"],
    ["distance", _F, "--kind", "face", "--budget", "-1"], ["code", _F], ["info"],
    ["info", _F, _F], ["verify", "--trials", "2", "x"], ["random", "--seed", "1"],
])
def test_plain_reader_leaves_other_argv_to_the_subparser(argv, torus_file, capsys):
    """Each argv goes to the top-level parser, but for the first: the plain
    reader reports a refused list itself, as ``parser.parse_args`` does."""
    argv = [arg.replace(_F, torus_file) for arg in argv]
    plain = _plain_read(argv)
    if argv[-3:] == ["--special", "2", "x"]:
        assert plain == _parsed(capsys, cli._shared_parser().parse_args, argv)[1:]
        assert plain[0] == 2 and "special dart 'x' is not a decimal label" in plain[2]
    else:
        assert plain is None


# drawn argv: each command's options, abbreviations, '=' forms, repeats, '--', help,
# negative and empty values, FILE first, later or missing; option -> (values each
# reader accepts, values a type, choice or action refuses)
_DRAWN_VALUES = {
    "--kind": (["face", "edge", "full"], ["sideways", "", "-1"]),
    "--special": (["1", "2", "5", "6", "0", "9", "0003"], ["x", "-1", "", " 1", "٢", "1" * 4400]),
    "--budget": (["0", "3", "007"], ["-1", "x", "", "+3"]),
    "--trials": (["1", "2"], ["0", "-2"]), "--max-darts": (["4", "06"], ["0", "1000001"]),
    "--seed": (["0", "12", "-3"], ["+1", "1.5"]), "--darts": (["4"], ["0", "-4", "٣"]),
    "--format": (["dot", "json"], ["xml"]), "--what": (["hypermap", "code", "complex"], ["all"]),
    "--allow-large": ([], ["x"]),
}
_COMMAND_OPTIONS = {
    "code": ["--kind", "--special"], "reduce": ["--special"],
    "distance": ["--kind", "--special", "--budget", "--allow-large"],
    "verify": ["--trials", "--max-darts", "--seed"], "random": ["--darts", "--seed"],
    "export": ["--format", "--what", "--kind", "--special"],
}
_DRAWN_NOISE = ["--kin", "--spec", "--b", "--allow", "--w", "--kind=face", "--budget=3",
                "--special=1", "--what=code", "--", "-", "-h", "--help", "-x", "--bogus", "x",
                "map.hm"]


@st.composite
def _drawn_argv(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    own = _COMMAND_OPTIONS.get(command, [])
    options = sorted(_DRAWN_VALUES) if not own or draw(st.integers(0, 3)) == 0 else own
    argv = []
    for option in draw(st.lists(st.sampled_from(options), max_size=4,
                                unique=draw(st.integers(0, 3)) > 0)):
        accepted, refused = _DRAWN_VALUES[option]
        count = draw(st.sampled_from([1, 1, 1, 0, 2, 3] if accepted else [0, 0, 0, 1]))
        argv.append(option)
        for _ in range(count):  # one value in ten refused
            argv.append(draw(st.sampled_from(accepted if accepted and draw(st.integers(0, 9))
                                             else refused)))
    if command not in ("verify", "random") or draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.sampled_from([0, 0, 0, 0, len(argv)])), "map.hm")
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_DRAWN_NOISE)))
    return [command, *argv]


@st.composite
def _plain_drawn_argv(draw):
    """FILE, where the command takes it, then the command's own options in a drawn
    order, each once, with values from those each reader accepts."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [] if command in ("verify", "random") else ["map.hm"]
    for option in draw(st.permutations(_COMMAND_OPTIONS.get(command, []))):
        if option in ("--kind", "--darts", "--format") or draw(st.booleans()):
            accepted = _DRAWN_VALUES[option][0]
            argv.append(option)
            if accepted:  # a flag takes none
                argv += draw(st.lists(st.sampled_from(accepted), min_size=1,
                                      max_size=3 if option == "--special" else 1))
    return [command, *argv]


@settings(max_examples=600, deadline=None)
@given(_plain_drawn_argv() | _drawn_argv())
def test_plain_reader_matches_the_subparser_on_drawn_argv(argv):
    parser = cli._shared_parser()
    plain = _plain_read(argv)
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        subparser_reads = _subparser_reads(parser, argv)
    if isinstance(plain, tuple):  # a refused list: the subparser's exit and words
        assert plain == (subparser_reads, out.getvalue(), err.getvalue())
    elif plain is not None:
        assert subparser_reads == (plain, [])
    routes = []
    for parse in (cli._parse_args, parser.parse_args):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            try:
                result, code = vars(parse(argv)), None
            except SystemExit as exc:
                result, code = None, exc.code
        routes.append((result, code, out.getvalue(), err.getvalue()))
    assert routes[0] == routes[1]


def test_argv_the_plain_reader_refuses_goes_to_the_top_level_parser(torus_file, capsys,
                                                                     monkeypatch):
    """Two routes: the plain reader, or else ``parser.parse_args`` on the whole argv.
    A refused list stays on the plain route, with parse_args's exit and words."""
    parser = cli._shared_parser()
    parse_args = parser.parse_args
    calls = []

    def counting(argv):
        calls.append(list(argv))
        return parse_args(argv)

    monkeypatch.setattr(parser, "parse_args", counting)
    routes = {True: 0, False: 0}
    refusals = 0
    for argv in ROUTE_ARGVS:
        argv = [arg.replace(_F, torus_file) for arg in argv]
        plain = _plain_read(argv) if argv and argv[0] in cli.COMMANDS else None
        routes[plain is not None] += 1
        calls.clear()
        outcome = _parsed(capsys, cli._parse_args, argv)
        assert calls == ([] if plain is not None else [argv]), argv
        if isinstance(plain, tuple):
            refusals += 1
            assert outcome[1:] == plain == _parsed(capsys, parse_args, argv)[1:], argv
    assert min(routes.values()) > 20, routes
    assert refusals == 7


# the parser built from the table against the parser written by hand

REFERENCE_PARSER = reference_parser()


def _read_by(parse, argv):
    """The namespace ``parse(argv)`` returns as a dict without its handler (None
    if it exits), the exit code (None if it returns), and what it printed."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            namespace, code = vars(parse(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    if namespace is not None:
        namespace = {dest: value for dest, value in namespace.items() if dest != "func"}
    return namespace, code, out.getvalue(), err.getvalue()


def test_table_parser_prints_what_the_reference_parser_prints():
    parser = cli.build_parser()
    assert list(subparsers(parser)) == list(REFERENCE_PARSER.commands) == list(cli.COMMANDS)
    pairs = [(parser, REFERENCE_PARSER),
             *((subparsers(parser)[name], REFERENCE_PARSER.commands[name]) for name in cli.COMMANDS)]
    for table, reference in pairs:
        assert table.format_help() == reference.format_help(), table.prog
        assert table.format_usage() == reference.format_usage(), table.prog


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "no argv")
def test_table_routes_read_route_argv_as_the_reference_parser(argv, torus_file, capsys,
                                                              monkeypatch):
    argv = [arg.replace(_F, torus_file) for arg in argv]
    assert _read_by(cli._parse_args, argv) == _read_by(REFERENCE_PARSER.parse_args, argv)
    namespace = _parsed(capsys, cli._parse_args, argv)[0]
    if namespace is not None:
        assert namespace["func"] is cli.COMMANDS[namespace["command"]][0]
    outcome = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
    monkeypatch.setattr(cli, "_shared_parser", lambda: REFERENCE_PARSER)
    assert _outcome(capsys, argv) == outcome


@settings(max_examples=600, deadline=None)
@given(_plain_drawn_argv() | _drawn_argv())
def test_table_routes_read_drawn_argv_as_the_reference_parser(argv):
    assert _read_by(cli._parse_args, argv) == _read_by(REFERENCE_PARSER.parse_args, argv)


def _one_per(orbits, rng):
    return sorted(rng.choice(orbit) for orbit in orbits)


def test_workload_commands_take_the_one_pass_readers(torus8, tmp_path, capsys, monkeypatch):
    """Every command form of the benchmark's workloads, on torus8, a map written
    with a special line and a lattice written without one, runs with argparse's
    parser and every label-by-label walk refused: each label list, on the
    command line and in the file, is read by one ``int`` pass."""
    rng = random.Random(27)
    drawn = random_corpus(1, 12, 27)[0]
    drawn_file = tmp_path / "drawn.hm"
    drawn_file.write_text(format_hypermap(drawn, _one_per(drawn.edges, rng)))
    lattice = square_torus(3)
    lattice_file = _write_map(tmp_path, "lattice3.hm", lattice)

    def special(darts):
        return ["--special", *(str(d + 1) for d in darts)]

    argvs = [["verify", "--trials", "4", "--max-darts", "6", "--seed", "3"]]
    for path, h in ((str(TORUS8), torus8), (str(drawn_file), drawn)):
        argvs += [[name, path] for name in ("info", "dual", "tri-dual", "contrary")]
        argvs += [["code", path, "--kind", "face"],
                  ["code", path, "--kind", "edge", *special(_one_per(h.faces, rng))],
                  ["code", path, "--kind", "full"], ["reduce", path],
                  ["distance", path, "--kind", "face"], ["distance", path, "--kind", "full"],
                  ["export", path, "--format", "dot"],
                  ["export", path, "--format", "json", "--what", "complex"]]
    argvs += [["code", lattice_file, "--kind", "face", *special(_one_per(lattice.edges, rng))],
              ["code", lattice_file, "--kind", "edge", *special(_one_per(lattice.faces, rng))],
              ["code", lattice_file, "--kind", "full"],
              ["reduce", lattice_file, *special(_one_per(lattice.edges, rng))]]
    argvs += [["distance", lattice_file, "--kind", kind, "--allow-large", "--budget", "3"]
              for kind in ("face", "edge", "full")]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse or a label-by-label walk read a plain input")

    monkeypatch.setattr(cli, "_shared_parser", refuse)
    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(perm, "_raise_first_error", refuse)
    monkeypatch.setattr(perm, "_label", refuse)  # each walk of a label list
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


# ---------------------------------------------------------------------------
# argument ranges, file decoding and stricter JSON

@pytest.mark.parametrize("argv", [
    ["distance", "{file}", "--kind", "face", "--budget", "-3"],
    ["verify", "--trials", "-2"],
    ["verify", "--trials", "0"],
    ["verify", "--max-darts", "0"],
    ["random", "--darts", "0"],
])
def test_out_of_range_arguments_are_usage_errors(argv, torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{file}", torus_file) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "٥"],
    ["random", "--darts", "+3"],
    ["random", "--darts", "3", "--seed", "1_0"],
])
def test_numeric_flags_take_ascii_decimal_digits_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"invalid int value: {argv[-1]!r}" in err


def test_distance_budget_zero_still_works(torus_file, capsys):
    code, out, _ = run_cli(capsys, "distance", torus_file, "--kind", "face",
                           "--budget", "0")
    assert code == 0
    assert "budget: 0" in out
    assert "d: >0" in out
    assert "every logical operator has weight >= 1" in out


@pytest.mark.parametrize("text,where", [
    ("darts: ٣\nalpha: ()\nsigma: ()\n", ":1:8:"),
    ("darts: ²\nalpha: ()\nsigma: ()\n", ":1:8:"),
])
def test_non_ascii_digits_exit_2(tmp_path, capsys, text, where):
    path = tmp_path / "digits.hm"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert where in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.hm"
    path.write_bytes(TORUS_TEXT.encode("utf-16"))
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert "utf16.hm:1:1: not UTF-8 text" in err


def test_non_utf8_byte_column_counts_characters(tmp_path, capsys):
    path = tmp_path / "cafe.hm"
    path.write_bytes("# café ".encode() + b"\xff\n")  # the byte is the 9th, the 8th character
    assert run_cli(capsys, "info", str(path)) == (
        2, "", f"error: {path}:1:8: not UTF-8 text (invalid start byte)\n")


def test_non_utf8_byte_line_is_counted_as_the_parser_counts_lines(tmp_path, capsys):
    # lines end in a bare \r, which str.splitlines splits on: an 'x' in the bad
    # byte's place is refused by the parser at the same line and column
    path = tmp_path / "cr.hm"
    path.write_bytes(b"darts: 2\ralpha: (1 2)\rsigma: (1 \xff)\r")
    assert run_cli(capsys, "info", str(path)) == (
        2, "", f"error: {path}:3:11: not UTF-8 text (invalid start byte)\n")
    path.write_bytes(b"darts: 2\ralpha: (1 2)\rsigma: (1 x)\r")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2 and err.startswith(f"error: {path}:3:11: bad sigma cycles")


def test_non_utf8_byte_position_is_reported(tmp_path, capsys):
    path = tmp_path / "latin1.hm"
    path.write_bytes(b"darts: 2\nalpha: (1 2)\n# caf\xe9\nsigma: ()\n")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert "latin1.hm:3:6:" in err


def _torus_code_doc(torus8):
    return json.loads(export_json(face_code(torus8)))


def test_parse_json_rejects_noncommuting_checks(torus8):
    doc = _torus_code_doc(torus8)
    # flipping one H_X entry breaks H_X * H_Z^T = 0 but keeps both ranks
    row = doc["hx"]["rows"][0]
    doc["hx"]["rows"][0] = ("0" if row[0] == "1" else "1") + row[1:]
    doc["k"] = (doc["n"] - rank(from_strings(doc["hx"]["rows"]))
                - rank(from_strings(doc["hz"]["rows"])))
    with pytest.raises(ValueError, match="do not commute"):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["qubits", "x_checks", "z_checks"])
def test_parse_json_rejects_label_count_mismatch(torus8, key):
    doc = _torus_code_doc(torus8)
    doc[key] = doc[key][:-1]
    with pytest.raises(ValueError, match=key):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize("kind", ["face", "edge", "full"])
def test_code_document_is_golden(kind, capsys):
    code, out, err = run_cli(capsys, "export", str(TORUS8), "--format", "json",
                             "--what", "code", "--kind", kind)
    assert (code, err) == (0, "")
    assert out == (DATA / f"torus8_code_{kind}.json").read_text()


def test_code_documents_round_trip_with_random_special_sets(corpus):
    rng = random.Random(26)
    for h in corpus:
        for q in (face_code(h, [rng.choice(e) for e in h.edges]),
                  edge_code(h, [rng.choice(f) for f in h.faces])):
            assert parse_json(export_json(q)) == q


def _v1_document(q) -> dict:
    """The document of ``q`` as written before code documents stored a kind."""
    doc = json.loads(export_json(q))
    return {key: value for key, value in doc.items() if key not in ("kind", "special")}


def test_v1_code_documents_read_their_kind_from_z_axis_and_hz(torus8, corpus):
    for h in [torus8, *corpus]:
        for q in (face_code(h), edge_code(h), full_code(h)):
            read = parse_json(json.dumps(_v1_document(q)))
            assert read == QuotientCode(q.kind, None, q.qubit_labels, q.ends, q.sides,
                                        q.z_labels, q.x_labels)
            assert read.k == q.k


def test_a_v1_full_code_document_is_no_face_code(torus8):
    read = parse_json(json.dumps(_v1_document(full_code(torus8))))
    assert read.kind == "full"
    with pytest.raises(ValueError, match="needs a face code, got a full code"):
        reduce_to_surface(torus8, read)


def test_parse_json_refuses_noncommuting_checks_as_a_value_error():
    # H_X = H_Z = the 2 x 2 identity: each qubit in one X and one Z check
    doc = {**_CODE_DOC, "k": -2, "x_checks": [1, 2], "z_checks": [1, 2],
           "hx": {"cols": 2, "rows": ["10", "01"]}, "hz": {"cols": 2, "rows": ["10", "01"]}}
    with pytest.raises(ValueError) as caught:
        parse_json(json.dumps(doc))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "H_X * H_Z^T != 0: the checks do not commute"


RANK_CALLS = {
    "code face": (["code", "--kind", "face"], 2),
    "code edge": (["code", "--kind", "edge"], 2),
    "code full": (["code", "--kind", "full"], 2),
    "distance": (["distance", "--kind", "face"], 2),
    "export code": (["export", "--format", "json", "--what", "code"], 2),
    "reduce": (["reduce"], 0),
    "export complex": (["export", "--format", "json", "--what", "complex"], 0),
}


def _count_ranks(monkeypatch) -> list:
    """Record each union-find spanning forest, whose size is a check rank."""
    calls = []
    real = chain.forest
    monkeypatch.setattr(chain, "forest", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name", list(RANK_CALLS))
def test_each_command_takes_the_check_ranks_at_most_once(name, capsys, monkeypatch):
    argv, expected = RANK_CALLS[name]
    calls = _count_ranks(monkeypatch)
    code, _, err = run_cli(capsys, argv[0], str(TORUS8), *argv[1:])
    assert (code, err) == (0, "")
    assert len(calls) == expected


def test_verify_takes_four_ranks_per_distinct_map(monkeypatch):
    maps = {(h.alpha.images, h.sigma.images) for h in random_corpus(60, 10, 3)}
    calls = _count_ranks(monkeypatch)
    assert run_verification(60, 10, 3).passed
    assert len(calls) == 4 * len(maps) < 4 * 60  # a face and a full code per map


def test_only_the_code_record_takes_ranks():
    import hypermap_codes
    modules = [m for name, m in vars(hypermap_codes).items() if type(m) is type(hypermap_codes)]
    assert len(modules) > 5
    assert [m.__name__ for m in modules
            if m is not gf2 and getattr(m, "forest", None) is gf2.forest] == ["hypermap_codes.chain"]


def _src_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["hypermap_codes", "hypermap_codes.cli"])
def test_python_dash_m_runs_cli_without_warnings(torus_file, module):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "info", torus_file],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "genus: 1" in proc.stdout


def test_library_import_leaves_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypermap_codes; "
                               "print('hypermap_codes.cli' in sys.modules)"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_code_command_validates_special_set_once(torus_file, capsys, monkeypatch):
    original = chain._special_set
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("hypermap_codes") \
                and getattr(module, "_special_set", None) is original:
            monkeypatch.setattr(module, "_special_set", counting)
    code, out, _ = run_cli(capsys, "code", torus_file, "--kind", "face", "--special", "2", "5")
    assert code == 0
    assert "special: 2 5" in out
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["reduce", "{file}"],
    ["export", "{file}", "--format", "json", "--what", "complex"],
])
def test_reduction_builds_the_face_code_once(command, torus_file, capsys, monkeypatch):
    original = chain._quotient_code
    kinds = []

    def counting(h, s, kind):
        kinds.append(kind)
        return original(h, s, kind)

    monkeypatch.setattr(chain, "_quotient_code", counting)
    code, out, _ = run_cli(capsys, *[arg.replace("{file}", torus_file) for arg in command])
    assert code == 0 and out
    assert kinds == ["face"]


# ---------------------------------------------------------------------------
# the dart-count cap

# Address-space limit for a CLI child process: a table sized by an
# unchecked dart count fails to allocate under it instead of using memory.
CHILD_MEMORY = 512 << 20


def _run_with_memory_cap(*argv):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    return subprocess.run([sys.executable, "-m", "hypermap_codes", *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=60,
                          preexec_fn=cap)


@pytest.mark.parametrize("count", ["9" * 5000, "1000000000"])
def test_oversized_dart_count_exits_2(tmp_path, count):
    path = tmp_path / "huge.hm"
    path.write_text(f"darts: {count}\nalpha: ()\nsigma: ()\n")
    proc = _run_with_memory_cap("info", str(path))
    assert proc.returncode == 2, proc.stderr
    assert f"huge.hm:1:8: dart count exceeds the limit of {MAX_DARTS}" in proc.stderr


@pytest.mark.parametrize("text,where", [
    ("darts: 3\nalpha: (1 " + "2" * 5000 + ")\nsigma: ()\n", ":2:11: bad alpha cycles: "
                                                           "dart label of 5000 digits"),
    ("darts: 3\nalpha: ()\nsigma: ()\nspecial: " + "1" * 5000 + "\n", ":4:10: special dart"),
])
def test_oversized_labels_exit_2(tmp_path, capsys, text, where):
    path = tmp_path / "labels.hm"
    path.write_text(text)
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert where in err


# int() refuses more than 4300 digits, leading zeros included
PADDING = "0" * 4400


@pytest.mark.parametrize("field", ["darts", "alpha", "special"])
def test_zero_padded_file_numbers_are_read_by_value(field, tmp_path, capsys):
    padded = {"darts": ("darts: 8", f"darts: {PADDING}8"),
              "alpha": ("alpha: (4 3 2 1)", f"alpha: (4 3 2 {PADDING}1)"),
              "special": ("special: 2 5", f"special: {PADDING}2 5")}[field]
    path = tmp_path / "padded.hm"
    path.write_text(TORUS_TEXT.replace(*padded))
    assert run_cli(capsys, "info", str(path)) == run_cli(capsys, "info", str(TORUS8))


def test_zero_padded_special_flag_is_read_by_value(torus_file, capsys):
    assert run_cli(capsys, "reduce", torus_file, "--special", PADDING + "2", "5") \
        == run_cli(capsys, "reduce", torus_file, "--special", "2", "5")


def test_special_flag_past_the_dart_limit_is_a_usage_error(torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", torus_file, "--kind", "face", "--special", "1" * 4400])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "_label" not in err
    assert f"argument --special: special dart of 4400 digits outside 1..{MAX_DARTS}" in err


@pytest.mark.parametrize("argv,option", [
    (["code", "{file}", "--kind", "full", "--special", "99"], "--kind full"),
    (["distance", "{file}", "--kind", "full", "--special", "1"], "--kind full"),
    (["export", "{file}", "--format", "json", "--what", "code", "--kind", "full",
      "--special", "2", "5"], "--kind full"),
    (["export", "{file}", "--format", "dot", "--special", "2", "5"], "--format dot"),
    (["export", "{file}", "--format", "dot", "--what", "code", "--special", "2"],
     "--format dot"),
    (["export", "{file}", "--format", "json", "--special", "2", "5"], "--what hypermap"),
    (["export", "{file}", "--format", "json", "--what", "hypermap", "--special", "1"],
     "--what hypermap"),
])
def test_special_flag_without_effect_is_a_usage_error(argv, option, torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{file}", torus_file) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and f"argument --special: has no effect with {option}" in err


@pytest.mark.parametrize("argv,option", [
    (["export", "{file}", "--format", "json", "--what", "complex", "--kind", "edge"],
     "--what complex"),
    (["export", "{file}", "--format", "json", "--what", "complex", "--kind", "full"],
     "--what complex"),
    (["export", "{file}", "--format", "json", "--kind", "face"], "--what hypermap"),
    (["export", "{file}", "--format", "json", "--what", "hypermap", "--kind", "edge"],
     "--what hypermap"),
    (["export", "{file}", "--format", "dot", "--kind", "full"], "--format dot"),
    (["export", "{file}", "--format", "dot", "--what", "code", "--kind", "face"],
     "--format dot"),
])
def test_kind_flag_without_effect_is_a_usage_error(argv, option, torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{file}", torus_file) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and f"argument --kind: has no effect with {option}" in err


@pytest.mark.parametrize("what", ["code", "complex"])
def test_dot_export_of_a_code_or_complex_is_a_usage_error(what, torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", torus_file, "--format", "dot", "--what", what])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err
    assert "argument --what: DOT export is only available for the hypermap itself" in err


def test_export_code_kind_defaults_to_face(torus_file, capsys):
    argv = ["export", torus_file, "--format", "json", "--what", "code"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--kind", "face") == (0, out, "")
    assert run_cli(capsys, *argv, "--kind", "edge")[1] != out


@pytest.mark.parametrize("argv", [
    ["reduce", "{file}"],
    ["code", "{file}", "--kind", "face"],
    ["distance", "{file}", "--kind", "face"],
    ["export", "{file}", "--format", "json", "--what", "code"],
    ["export", "{file}", "--format", "json", "--what", "complex"],
])
def test_special_flag_with_effect_is_read(argv, torus_file, capsys):
    """One special dart is too few for torus8's two edges and four faces."""
    argv = [arg.replace("{file}", torus_file) for arg in argv]
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--special", "1")
    assert (code, out) == (3, "") and "special set" in err


@pytest.mark.parametrize("argv,flag,value", [
    (["verify", "--max-darts", "4"], "--trials", "5"),
    (["verify", "--trials", "3"], "--max-darts", "4"),
    (["verify", "--trials", "3", "--max-darts", "4"], "--seed", "-2"),
    (["random", "--seed", "1"], "--darts", "5"),
    (["random", "--darts", "5"], "--seed", "-4"),
    (["distance", "{file}", "--kind", "face"], "--budget", "1"),
])
def test_zero_padded_numeric_flags_are_read_by_value(argv, flag, value, torus_file, capsys):
    argv = [arg.replace("{file}", torus_file) for arg in argv] + [flag]
    padded = value.replace(value.lstrip("-"), PADDING + value.lstrip("-"))
    expected = run_cli(capsys, *argv, value)
    assert expected[0] == 0
    assert run_cli(capsys, *argv, padded) == expected


@pytest.mark.parametrize("argv,message", [
    (["verify", "--max-darts", "9" * 5000],
     f"must be at most {MAX_DARTS}, got a number of 5000 digits"),
    (["random", "--darts", PADDING + "9" * 4400],
     f"must be at most {MAX_DARTS}, got a number of 4400 digits"),
    (["verify", "--trials", "-" + "9" * 5000],
     "must be at least 1, got a negative number of 5000 digits"),
    (["distance", "{file}", "--kind", "face", "--budget", "-" + "1" * 5000],
     "must be at least 0, got a negative number of 5000 digits"),
    (["verify", "--trials", "9" * 5000], "invalid int value: '999"),
    (["distance", "{file}", "--kind", "face", "--budget", "9" * 4400], "invalid int value: '999"),
    (["random", "--darts", "3", "--seed", "-" + "9" * 4400], "invalid int value: '-999"),
])
def test_numeric_flags_past_int_digit_limit(argv, message, torus_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{file}", torus_file) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[-2]}: {message}" in err


def test_parse_cycles_rejects_degree_above_cap():
    with pytest.raises(ValueError, match=f"at most {MAX_DARTS}"):
        parse_cycles("()", MAX_DARTS + 1)
    doc = {"format": "hypermap-codes", "version": 1, "type": "hypermap",
           "darts": MAX_DARTS + 1, "alpha": "()", "sigma": "()"}
    with pytest.raises(ValueError, match=f"at most {MAX_DARTS}"):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize("argv", [
    ["random", "--darts", str(MAX_DARTS + 1)],
    ["verify", "--max-darts", str(MAX_DARTS + 1)],
])
def test_dart_arguments_above_cap_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"must be at most {MAX_DARTS}" in err


# ---------------------------------------------------------------------------
# --special follows the rules of a file's special line

SPECIAL_COMMANDS = [
    ["code", "{file}", "--kind", "face"],
    ["reduce", "{file}"],
    ["distance", "{file}", "--kind", "face"],
    ["export", "{file}", "--format", "json", "--what", "complex"],
]


@pytest.mark.parametrize("darts,message", [
    (["2", "2", "5"], "special dart 2 appears twice"),
    (["2", "5", "02"], "special dart 2 appears twice"),
    (["1_0"], "special dart '1_0' is not a decimal label"),
    (["٢"], "special dart '٢' is not a decimal label"),
    (["+2", "5"], "special dart '+2' is not a decimal label"),
    (["2", "-5"], "special dart '-5' is not a decimal label"),
])
@pytest.mark.parametrize("command", SPECIAL_COMMANDS)
def test_special_flag_is_as_strict_as_the_file(command, darts, message, torus_file, capsys):
    argv = [arg.replace("{file}", torus_file) for arg in command] + ["--special", *darts]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --special: {message}" in err


# token lists for --special and a file's special line, each read as one list
# (perm._read_labels) and label by label
SPECIAL_TOKENS = {
    "empty": [""], "empty between labels": ["2", "", "5"], "inner space": ["1 2"],
    "arabic-indic digit": ["٢"], "superscript two": ["²"], "plus sign": ["+2"],
    "minus sign": ["-5"], "underscore": ["1_0"], "repeat by value": ["2", "00000002"],
    "past the digit limit": ["10000000"], "above MAX_DARTS": ["1000001"],
    "4400 digits": ["1" * 4400], "valid": ["2", "5"], "valid padded": ["0001", "6"],
    "repeat": ["2", "5", "2"], "outside the map": ["9", "5"], "one short": ["2"],
    "no labels": [], "MAX_DARTS": ["1000000"], "zero": ["0", "5"],
    "padded to the digit limit": ["0000002", "5"],
    "padded past the digit limit": ["00000002", "5"],
    "repeat padded past the digit limit": ["5", "00000005"],
    "zero padded past the digit limit": ["00000000"], "trailing non-digit": ["2", "5x"],
}

LABEL_TOKENS = st.one_of(
    st.builds(lambda zeros, value: "0" * zeros + str(value), st.integers(0, 9),
              st.integers(0, 30) | st.integers(MAX_DARTS - 2, MAX_DARTS + 2)),
    st.sampled_from(["0", "٢", "²", "+2", "-5", "1_0", "2x", "", "1" * 4400,
                     "0" * 4400 + "3", *(t for ts in SPECIAL_TOKENS.values() for t in ts)]))


def _walked(tokens, high):
    """The label-by-label walk: each token through ``perm._label``, to the set of
    the list's 0-based darts or to the index and the text of its first fault."""
    seen, values = set(), []
    for index, token in enumerate(tokens):
        try:
            values.append(perm._label(token, high, seen))
        except ValueError as exc:
            return index, str(exc)
    return frozenset(value - 1 for value in values)


@settings(max_examples=800, deadline=None)
@given(st.lists(LABEL_TOKENS, max_size=6), st.sampled_from([1, 8, 9, 10, 25, MAX_DARTS]))
def test_read_labels_agrees_with_the_label_walk(tokens, high):
    try:
        outcome = perm._read_labels(tokens, high)
    except perm._LabelError as exc:
        outcome = exc.index, str(exc)
    assert outcome == _walked(tokens, high)


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except hypermap.ParseError as exc:
        return str(exc), exc.line, exc.col


@pytest.mark.parametrize("tokens", SPECIAL_TOKENS.values(), ids=SPECIAL_TOKENS.keys())
def test_special_line_matches_the_line_oracle(tokens):
    text = TORUS_TEXT.replace("special: 2 5", "special: " + " ".join(tokens))
    assert text != TORUS_TEXT or tokens == ["2", "5"]
    assert _parsed_or_error(parse_hypermap, text) == _parsed_or_error(parse_lines, text)


@pytest.mark.parametrize("darts", SPECIAL_TOKENS.values(), ids=SPECIAL_TOKENS.keys())
@pytest.mark.parametrize("command", SPECIAL_COMMANDS)
def test_special_list_matches_the_per_label_parser(command, darts, torus_file, capsys,
                                                   monkeypatch):
    argv = [arg.replace("{file}", torus_file) for arg in command] + ["--special", *darts]
    outcome = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)  # argparse reads every list
    monkeypatch.setattr(cli, "_shared_parser", per_label_parser)
    assert _outcome(capsys, argv) == outcome
    assert outcome[0] in (0, 2, 3)


def test_special_flag_stores_the_set_the_code_keeps(torus_file, capsys, monkeypatch):
    """``--special 2 5`` stores the set of 0-based darts that a file's
    ``special: 2 5`` gives, and the code keeps that very object; without the
    flag, a face code keeps the file's own set."""
    namespaces, codes = [], []
    read, build = cli._parse_args, cli._build_quotient

    def reading(argv):
        namespaces.append(read(argv))
        return namespaces[-1]

    def building(*args):
        codes.append(build(*args))
        return codes[-1]

    monkeypatch.setattr(cli, "_parse_args", reading)
    monkeypatch.setattr(cli, "_build_quotient", building)
    code, out, _ = run_cli(capsys, "code", torus_file, "--kind", "face", "--special", "2", "5")
    assert code == 0 and "special: 2 5" in out
    (args,), (built,) = namespaces, codes
    assert built.special is args.special
    assert args.special == parse_hypermap(TORUS_TEXT)[1] == frozenset({1, 4})
    h, file_special = cli.load_hypermap(torus_file)
    assert build(h, "face", None, file_special).special is file_special


def test_special_list_of_every_orbit_minimum_prints_what_no_flag_prints(tmp_path, capsys):
    h = square_torus(20)
    path = _write_map(tmp_path, "square20.hm", h)
    edge_minima = [str(min(edge) + 1) for edge in h.edges]
    face_minima = [str(min(face) + 1) for face in h.faces]
    assert (len(edge_minima), len(face_minima)) == (800, 400)
    for command, minima in ((["code", path, "--kind", "face"], edge_minima),
                            (["reduce", path], edge_minima),
                            (["code", path, "--kind", "edge"], face_minima)):
        plain = run_cli(capsys, *command)
        assert plain[0] == 0
        assert run_cli(capsys, *command, "--special", *minima) == plain


def test_special_list_calls_the_label_reader_only_when_it_refuses(torus_file, capsys,
                                                                  monkeypatch):
    original = perm._label
    calls = []

    def counting(token, high, seen):
        calls.append(token)
        return original(token, high, seen)

    monkeypatch.setattr(perm, "_label", counting)
    code, out, _ = run_cli(capsys, "code", torus_file, "--kind", "face", "--special", "2", "5")
    assert code == 0 and "special: 2 5" in out
    assert calls == []  # the flag's list and the file's line, each read by the one pass
    for darts in (["2", "02"], ["2", "x", "5", "y"]):
        calls.clear()
        with pytest.raises(SystemExit):
            main(["code", torus_file, "--kind", "face", "--special", *darts])
        assert calls == darts[:2]  # the plain reader alone, to the refusal
    assert "special dart 'x' is not a decimal label" in capsys.readouterr().err


@pytest.mark.parametrize("tokens", SPECIAL_TOKENS.values(), ids=SPECIAL_TOKENS.keys())
def test_special_line_and_flag_refuse_alike(tokens, tmp_path, capsys):
    """The file's ``special:`` line and ``--special`` name a non-decimal token or
    a repeat in the same words, and refuse the label 0 as a parse error."""
    path = tmp_path / "special.hm"
    path.write_text(TORUS_TEXT.replace("special: 2 5", "special: " + " ".join(tokens)))
    by_file = _outcome(capsys, ["code", str(path), "--kind", "face"])
    by_flag = _outcome(capsys, ["code", str(TORUS8), "--kind", "face", "--special", *tokens])
    fault = by_flag[2].partition("special dart ")[2]
    if fault.endswith(("is not a decimal label\n", "appears twice\n")) \
            and " ".join(tokens).split() == tokens:  # the file splits no token
        assert (by_file[0], by_file[2].partition("special dart ")[2]) == (2, fault)
    if tokens and tokens[0] and not tokens[0].strip("0"):  # the label 0
        assert (by_file[0], by_flag[0]) == (2, 2)
        assert "special dart 0 outside 1..8" in by_file[2]
        assert f"special dart 0 outside 1..{MAX_DARTS}" in by_flag[2]
    if by_flag[0] == 0:
        assert by_file == by_flag


def test_special_file_line_refuses_the_same_repeat(tmp_path, capsys):
    path = tmp_path / "repeat.hm"
    path.write_text(TORUS_TEXT.replace("special: 2 5", "special: 2 2 5"))
    code, out, err = run_cli(capsys, "code", str(path), "--kind", "face")
    assert (code, out) == (2, "")
    assert "special dart 2 appears twice" in err


@pytest.mark.parametrize("dart", ["1000001", "0000000", "01000001"])
def test_special_flag_outside_max_darts_is_a_usage_error(dart, torus_file, capsys):
    code, out, err = _outcome(capsys, ["code", torus_file, "--kind", "face",
                                       "--special", dart, "5"])
    assert (code, out) == (2, "")
    assert f"argument --special: special dart {int(dart)} outside 1..{MAX_DARTS}" in err


@pytest.mark.parametrize("dart", ["9", "0009"])
def test_special_flag_out_of_range_still_exits_3(dart, torus_file, capsys):
    code, out, err = run_cli(capsys, "code", torus_file, "--kind", "face",
                             "--special", dart, "5")
    assert (code, out) == (3, "")
    assert f"dart {int(dart)} outside 1..8" in err


def test_special_flag_keeps_leading_zeros(torus_file, capsys):
    assert run_cli(capsys, "code", torus_file, "--kind", "face", "--special", "02", "5") \
        == run_cli(capsys, "code", torus_file, "--kind", "face", "--special", "2", "5")


# ---------------------------------------------------------------------------
# a closed stdout is not an unreadable input

@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "5"],
    ["random", "--darts", "6"],
    ["code", "{file}", "--kind", "face"],
])
def test_closed_stdout_exits_1_silently(argv, torus_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypermap_codes",
             *[arg.replace("{file}", torus_file) for arg in argv]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failing_stdout_exits_1_with_a_write_error(torus_file):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hypermap_codes", "info", torus_file],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=_src_env(),
                              timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


# dense blocks are written row by row: a stdout that fails mid-stream, after
# more than a pipe buffer ({4,4}_16 prints over 0.5 MB), exits the same way
STREAMED = [["code", "--kind", "edge"], ["reduce"]]


@pytest.fixture(scope="module")
def lattice16_file(tmp_path_factory):
    return _write_map(tmp_path_factory.mktemp("lattice"), "square16.hm", square_torus(16))


@pytest.mark.parametrize("argv", STREAMED, ids=["code-edge", "reduce"])
def test_stdout_closed_mid_stream_exits_1_silently(argv, lattice16_file):
    proc = subprocess.Popen([sys.executable, "-m", "hypermap_codes", argv[0], lattice16_file,
                             *argv[1:]], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env())
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # the reader leaves after the first line
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("argv", STREAMED, ids=["code-edge", "reduce"])
def test_failing_stdout_mid_stream_exits_1_with_a_write_error(argv, lattice16_file):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hypermap_codes", argv[0], lattice16_file,
                               *argv[1:]], stdout=full, stderr=subprocess.PIPE, text=True,
                              env=_src_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.fixture(scope="module")
def lattice64_files(tmp_path_factory):
    """{4,4}_64 written without a special line and with the line ``special: 1``."""
    h, folder = square_torus(64), tmp_path_factory.mktemp("lattice64")
    (folder / "special.hm").write_text(format_hypermap(h, {0}))
    return _write_map(folder, "square64.hm", h), str(folder / "special.hm")


@pytest.mark.parametrize("argv, tail", [
    (["code", "plain", "--kind", "face", "--special", "1"], "... (8191 edge orbits)"),
    (["code", "plain", "--kind", "edge", "--special", "1"], "... (4095 face orbits)"),
    (["reduce", "plain", "--special", "1"], "... (8191 edge orbits)"),
    (["distance", "plain", "--kind", "face", "--special", "1"], "... (8191 edge orbits)"),
    (["export", "plain", "--format", "json", "--what", "code", "--special", "1"],
     "... (8191 edge orbits)"),
    (["code", "special", "--kind", "face"], "... (8191 edge orbits)"),
], ids=["code-face", "code-edge", "reduce", "distance", "export", "special-line"])
def test_a_refused_special_set_lists_at_most_64_labels(argv, tail, lattice64_files, capsys):
    """Whole bad orbits up to 64 labels, then their count: one special dart
    leaves all but one edge (or face) of {4,4}_64 without one."""
    plain, special = lattice64_files
    code, out, err = run_cli(capsys, argv[0], plain if argv[1] == "plain" else special, *argv[2:])
    assert (code, out) == (3, "")
    assert err.startswith("error: not a valid per-") and err.endswith(f"; {tail}\n")
    assert sum(len(orbit.split()) for orbit in re.findall(r"\{([^}]*)\}", err)) <= 64
    assert len(err.encode()) < 2048  # 32 two-label edge orbits take 1,379 bytes


def test_unreadable_input_is_still_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "info", str(tmp_path))  # a directory
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {tmp_path}: [Errno 21] Is a directory")
