import json

import pytest

from conftest import square_torus
from hypermap_codes import (
    CellComplex,
    Hypermap,
    SpecialDartError,
    dual,
    edge_code,
    euler_characteristic,
    export_json,
    face_code,
    full_code,
    identity,
    parse_json,
    reduce_to_surface,
    validate_surface,
)
from slow_paths import (
    boundary1, boundary2, from_strings, incidence10, incidence21, mod2_projection, rank,
    transpose)

HZ_ROWS = ["100001", "111010", "010111", "001100"]


def _mod2(c):
    """The 1-cells x 2-cells incidence of ``c`` mod 2."""
    return mod2_projection(incidence21(c), len(c.two_cells))


def test_reduce_torus(torus8):
    s = {1, 4}
    c = reduce_to_surface(torus8, face_code(torus8, s))
    assert len(c.zero_cells) == 2
    assert len(c.one_cells) == 6
    assert len(c.two_cells) == 4
    assert c.euler_characteristic == 0
    assert _mod2(c) == transpose(from_strings(HZ_ROWS))
    assert validate_surface(c, face_code(torus8, s)).passed


def test_reduce_single_dart():
    h = Hypermap(identity(1), identity(1))
    c = reduce_to_surface(h, face_code(h))
    assert (len(c.zero_cells), len(c.one_cells), len(c.two_cells)) == (1, 0, 1)
    assert c.euler_characteristic == 2
    assert validate_surface(c, face_code(h)).passed


def test_reduce_rejects_per_face_set(torus8):
    with pytest.raises(SpecialDartError):
        reduce_to_surface(torus8, face_code(torus8, edge_code(torus8).special))


def test_reduce_rejects_edge_and_full_codes(torus8):
    for code in (edge_code(torus8), full_code(torus8)):
        with pytest.raises(ValueError, match=f"needs a face code, got a {code.kind} code"):
            reduce_to_surface(torus8, code)


def test_every_one_cell_has_incidence_two(corpus):
    for h in corpus:
        c = reduce_to_surface(h, face_code(h))
        assert all(sum(row) == 2 for row in incidence21(c))


def test_reduction_matches_face_code(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        c = reduce_to_surface(h, q)
        assert _mod2(c) == boundary2(q)
        assert incidence10(c) == boundary1(q)


def test_homology_dimension_equals_logical_count(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        c = reduce_to_surface(h, q)
        hom = len(c.one_cells) - rank(incidence10(c)) - rank(_mod2(c))
        assert hom == q.k


def test_euler_characteristic_matches_hypermap(corpus):
    for h in corpus:
        c = reduce_to_surface(h, face_code(h))
        assert c.euler_characteristic == euler_characteristic(h)


def test_validation_passes_on_corpus(corpus):
    for h in corpus:
        report = validate_surface(reduce_to_surface(h, face_code(h)), face_code(h))
        assert report.passed, report.render()


def test_validation_catches_missing_incidence(torus8):
    s = {1, 4}
    c = reduce_to_surface(torus8, face_code(torus8, s))
    rows = [list(pairs) for pairs in c.counts21]
    target = next((i, 0) for i, pairs in enumerate(rows) if pairs)
    j, v = rows[target[0]].pop(target[1])
    if v > 1:  # a zero count is left out
        rows[target[0]].insert(target[1], (j, v - 1))
    broken = CellComplex(c.zero_cells, c.one_cells, c.two_cells,
                         tuple(tuple(pairs) for pairs in rows), c.ends)
    report = validate_surface(broken)
    closure = next(ch for ch in report.checks if ch.name == "one-cell-closure")
    assert not closure.passed
    assert str(c.one_cells[target[0]] + 1) in closure.detail


def test_validation_refuses_edge_and_full_codes(torus8):
    code = face_code(torus8)
    c = reduce_to_surface(torus8, code)
    for other in (edge_code(torus8), full_code(torus8)):
        with pytest.raises(ValueError, match=f"needs a face code, got a {other.kind} code"):
            validate_surface(c, other)
    assert len(validate_surface(c).checks) == 3
    assert len(validate_surface(c, code).checks) == 6


def test_validation_report_renders(torus8):
    s = {1, 4}
    report = validate_surface(reduce_to_surface(torus8, face_code(torus8, s)),
                              face_code(torus8, s))
    text = report.render()
    assert "euler-characteristic: 0" in text
    assert "surface-validation: PASS" in text


def test_reduction_of_dual_with_shared_special_set(corpus):
    # edges of the dual are the edges of the original, so the same
    # per-edge set works for both reductions
    for h in corpus[:100]:
        sd = face_code(h).special
        d = dual(h)
        report = validate_surface(reduce_to_surface(d, face_code(d, sd)), face_code(d, sd))
        assert report.passed


def test_complex_keeps_the_face_code_ends(torus8, corpus):
    for h in [torus8, *corpus[:100]]:
        q = face_code(h)
        assert reduce_to_surface(h, q).ends is q.ends


def test_complex_json_round_trip(torus8, corpus):
    maps = [torus8, *corpus, *(square_torus(size) for size in range(3, 9))]
    for h in maps:
        c = reduce_to_surface(h, face_code(h))
        assert parse_json(export_json(c)) == c
    c = reduce_to_surface(torus8, face_code(torus8, {1, 4}))
    assert parse_json(export_json(c)) == c


def test_parse_json_refuses_a_one_cell_with_three_zero_cells():
    doc = {"format": "hypermap-codes", "version": 1, "indexing": "1-based",
           "type": "cell-complex", "zero_cells": [1, 2, 3], "one_cells": [1, 2],
           "two_cells": [1], "incidence21": [[2], [2]],
           "incidence10": {"cols": 2, "rows": ["01", "01", "01"]}}
    with pytest.raises(ValueError) as caught:
        parse_json(json.dumps(doc))
    assert str(caught.value) == "qubit 2 lies in three or more checks of 'incidence10'"
    doc["incidence10"]["rows"][2] = "00"  # 1-cell 2 joins 0-cells 1 and 2; 1-cell 1 is a loop
    assert parse_json(json.dumps(doc)).ends == ((3, 3), (0, 1))
