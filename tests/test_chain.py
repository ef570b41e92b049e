import pytest

from hypermap_codes import (
    PER_EDGE,
    PER_FACE,
    BitMatrix,
    Hypermap,
    SpecialDartError,
    SpecialDarts,
    assemble,
    default_special_darts,
    dual,
    edge_code,
    face_code,
    from_strings,
    full_code,
    identity,
    is_zero,
    multiply,
    nabla,
    raw_complex,
    special_darts,
    transpose,
    triangle_dual,
)

HZ_ROWS = ["100001", "111010", "010111", "001100"]


def quotient_oracle(h: Hypermap, s: SpecialDarts) -> BitMatrix:
    """Face boundary over the non-special basis, by plain linear algebra.

    Reduce each face column of d2 modulo the column space of iota, using
    the special dart of each edge as the pivot coordinate, then restrict
    to the non-special coordinates.  Independent of the expansion rule
    used by face_code.
    """
    raw = raw_complex(h)
    qubits = [i for i in range(h.n) if i not in s.darts]
    iota_cols = transpose(raw.iota).bits  # one dart-space vector per edge
    pivot = {next(iter(s.darts.intersection(h.edges[e]))): iota_cols[e]
             for e in range(len(h.edges))}
    rows = [0] * len(qubits)
    for j, col in enumerate(transpose(raw.d2).bits):
        for k, edge_vec in pivot.items():
            if (col >> k) & 1:
                col ^= edge_vec
        for r, dart in enumerate(qubits):
            if (col >> dart) & 1:
                rows[r] |= 1 << j
    return BitMatrix(len(qubits), len(h.faces), tuple(rows))


def test_raw_complex_of_torus(torus8):
    raw = raw_complex(torus8)
    assert raw.d2.rows == 8 and raw.d2.cols == 4
    assert raw.d1.rows == 2 and raw.d1.cols == 8
    assert raw.iota.rows == 8 and raw.iota.cols == 2
    # face f1 = (1 8): its d2 column has 1s exactly at darts 1 and 8
    col = transpose(raw.d2).bits[0]
    assert col == (1 << 0) | (1 << 7)


def test_raw_complex_chain_conditions(torus8, corpus):
    for h in [torus8] + corpus[:100]:
        raw = raw_complex(h)
        assert is_zero(multiply(raw.d1, raw.d2))
        assert is_zero(multiply(raw.d1, raw.iota))


def test_raw_complex_single_dart():
    h = Hypermap(identity(1), identity(1))
    raw = raw_complex(h)
    assert raw.d1 == BitMatrix(1, 1, (0,))  # both endpoints coincide


def test_d2_column_sums_are_face_sizes(corpus):
    for h in corpus[:100]:
        raw = raw_complex(h)
        cols = transpose(raw.d2).bits
        assert [c.bit_count() for c in cols] == [len(f) for f in h.faces]


def test_face_code_of_torus(torus8):
    s = special_darts(torus8, {1, 4}, PER_EDGE)
    q = face_code(torus8, s)
    assert q.qubit_labels == (0, 2, 3, 5, 6, 7)
    assert q.boundary1 == from_strings(["111111", "111111"])
    assert transpose(q.boundary2) == from_strings(HZ_ROWS)


def test_face_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    q = face_code(h, default_special_darts(h, PER_EDGE))
    assert q.qubit_labels == ()
    assert q.boundary2.rows == 0 and q.boundary2.cols == 1
    assert q.boundary1.rows == 1 and q.boundary1.cols == 0


def test_face_code_matches_quotient_oracle(corpus):
    for h in corpus[:150]:
        s = default_special_darts(h, PER_EDGE)
        assert face_code(h, s).boundary2 == quotient_oracle(h, s)


def test_face_code_rejects_bad_special(torus8):
    with pytest.raises(SpecialDartError):
        face_code(torus8, SpecialDarts(frozenset({1, 2}), PER_EDGE))
    with pytest.raises(SpecialDartError):
        face_code(torus8, default_special_darts(torus8, PER_FACE))


def test_qubit_labels_are_nonspecial_darts(corpus):
    for h in corpus[:100]:
        s = default_special_darts(h, PER_EDGE)
        q = face_code(h, s)
        assert q.qubit_labels == tuple(sorted(set(range(h.n)) - s.darts))
        t = default_special_darts(h, PER_FACE)
        e = edge_code(h, t)
        assert e.qubit_labels == tuple(sorted(set(range(h.n)) - t.darts))


def test_boundary2_rows_have_weight_zero_or_two(torus8, corpus):
    for h in [torus8] + corpus[:150]:
        for q in (face_code(h, default_special_darts(h, PER_EDGE)),
                  edge_code(h, default_special_darts(h, PER_FACE))):
            assert all(row.bit_count() in (0, 2) for row in q.boundary2.bits)


def test_edge_code_of_triangle_dual_equals_face_code(torus8, corpus):
    for h in [torus8] + corpus[:150]:
        if h is torus8:
            s = special_darts(h, {1, 4}, PER_EDGE)
        else:
            s = default_special_darts(h, PER_EDGE)
        fc = face_code(h, s)
        ec = edge_code(triangle_dual(h), SpecialDarts(s.darts, PER_FACE))
        assert fc.qubit_labels == ec.qubit_labels
        assert fc.boundary1 == ec.boundary1
        assert fc.boundary2 == ec.boundary2


def test_dual_face_code_equals_nabla_edge_code(corpus):
    for h in corpus[:150]:
        s = default_special_darts(h, PER_EDGE)
        fc = face_code(dual(h), SpecialDarts(s.darts, PER_EDGE))
        ec = edge_code(nabla(h), SpecialDarts(s.darts, PER_FACE))
        assert fc.boundary1 == ec.boundary1
        assert fc.boundary2 == ec.boundary2


def test_edge_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    q = edge_code(h, default_special_darts(h, PER_FACE))
    assert q.qubit_labels == ()


def test_edge_code_chain_condition(corpus):
    for h in corpus[:150]:
        q = edge_code(h, default_special_darts(h, PER_FACE))
        assert is_zero(multiply(q.boundary1, q.boundary2))


def test_face_code_chain_condition(corpus):
    for h in corpus[:150]:
        q = face_code(h, default_special_darts(h, PER_EDGE))
        assert is_zero(multiply(q.boundary1, q.boundary2))


def test_full_code_logical_gap(torus8):
    k_face = assemble(face_code(torus8, special_darts(torus8, {1, 4}, PER_EDGE))).k
    k_full = assemble(full_code(torus8)).k
    assert k_face == 2
    assert k_full == 3
    assert k_full == k_face + len(torus8.edges) - 1


def test_full_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    assert assemble(full_code(h)).k == 0


def test_full_code_gap_on_corpus(corpus):
    for h in corpus[:150]:
        k_face = assemble(face_code(h, default_special_darts(h, PER_EDGE))).k
        k_full = assemble(full_code(h)).k
        assert k_full - k_face == len(h.edges) - 1
