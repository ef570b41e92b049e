import pytest

from hypermap_codes import (
    CellComplex,
    Hypermap,
    SpecialDartError,
    assemble,
    dual,
    edge_code,
    euler_characteristic,
    face_code,
    from_strings,
    full_code,
    identity,
    reduce_to_surface,
    validate_surface,
)
from slow_paths import boundary1, boundary2, rank, transpose

HZ_ROWS = ["100001", "111010", "010111", "001100"]


def test_reduce_torus(torus8):
    s = {1, 4}
    c = reduce_to_surface(torus8, face_code(torus8, s))
    assert len(c.zero_cells) == 2
    assert len(c.one_cells) == 6
    assert len(c.two_cells) == 4
    assert c.euler_characteristic == 0
    assert c.incidence21_mod2() == transpose(from_strings(HZ_ROWS))
    assert validate_surface(c, torus8, face_code(torus8, s)).passed


def test_reduce_single_dart():
    h = Hypermap(identity(1), identity(1))
    c = reduce_to_surface(h, face_code(h))
    assert (len(c.zero_cells), len(c.one_cells), len(c.two_cells)) == (1, 0, 1)
    assert c.euler_characteristic == 2
    assert validate_surface(c, h, face_code(h)).passed


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
        assert all(sum(row) == 2 for row in c.incidence21)


def test_reduction_matches_face_code(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        c = reduce_to_surface(h, q)
        assert c.incidence21_mod2() == boundary2(q)
        assert c.incidence10 == boundary1(q)


def test_homology_dimension_equals_logical_count(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        c = reduce_to_surface(h, q)
        hom = len(c.one_cells) - rank(c.incidence10) - rank(c.incidence21_mod2())
        assert hom == assemble(q).k


def test_euler_characteristic_matches_hypermap(corpus):
    for h in corpus:
        c = reduce_to_surface(h, face_code(h))
        assert c.euler_characteristic == euler_characteristic(h)


def test_validation_passes_on_corpus(corpus):
    for h in corpus:
        report = validate_surface(reduce_to_surface(h, face_code(h)), h, face_code(h))
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
                         tuple(tuple(pairs) for pairs in rows), c.incidence10)
    report = validate_surface(broken)
    closure = next(ch for ch in report.checks if ch.name == "one-cell-closure")
    assert not closure.passed
    assert str(c.one_cells[target[0]] + 1) in closure.detail


def test_validation_report_renders(torus8):
    s = {1, 4}
    report = validate_surface(reduce_to_surface(torus8, face_code(torus8, s)), torus8,
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
        report = validate_surface(reduce_to_surface(d, face_code(d, sd)), d, face_code(d, sd))
        assert report.passed
