import random

import pytest

import slow_paths
from conftest import square_torus
from hypermap_codes import (
    Hypermap,
    QuotientCode,
    SpecialDartError,
    dual,
    edge_code,
    face_code,
    full_code,
    identity,
    nabla,
    triangle_dual,
)
from slow_paths import (
    BitMatrix, boundary1, boundary2, from_strings, is_zero, multiply, pair_matrix, transpose)

HZ_ROWS = ["100001", "111010", "010111", "001100"]


def _component_count(nodes: int, edges) -> int:
    """The components of the graph on ``nodes`` nodes with ``edges``, by depth-first search."""
    adjacent: list[list[int]] = [[] for _ in range(nodes)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = [False] * nodes
    count = 0
    for start in range(nodes):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in adjacent[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def test_the_forests_that_k_keeps_span_their_check_graphs(corpus):
    # each cached forest marks one bit per qubit; its qubits join two
    # components each (acyclic) and leave as few as the whole graph
    # (spanning), so their count is the rank of the check matrix
    for h in [*corpus[:150], square_torus(3), square_torus(6)]:
        for code in (face_code(h), edge_code(h), full_code(h)):
            assert code._forests is None
            code.k
            x_tree, z_tree = code._forests
            for pairs, checks, tree, matrix in (
                    (code.ends, len(code.x_labels), x_tree, slow_paths.hx(code)),
                    (code.sides, len(code.z_labels), z_tree, slow_paths.hz(code))):
                assert len(tree) == code.n and set(tree) <= {0, 1}
                taken = [pair for pair, mark in zip(pairs, tree) if mark]
                nodes = checks + 1
                assert _component_count(nodes, taken) == nodes - len(taken) \
                    == _component_count(nodes, pairs)
                assert len(taken) == slow_paths.rank(matrix)


def test_k_is_read_off_the_forests_on_every_read(torus8, monkeypatch):
    # the forests are the code's one cache: the first read of k builds them
    # after the commutation guard, and every read counts their marks
    from hypermap_codes import chain
    assert [slot for slot in QuotientCode.__slots__ if slot[0] == "_"] == ["_forests"]
    calls = []
    for name in ("commutes", "forest"):
        real = getattr(chain, name)
        monkeypatch.setattr(chain, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    code = face_code(torus8)
    assert code.k == 2 and code.k == 2
    assert calls == ["commutes", "forest", "forest"]
    x_tree, _ = code._forests
    x_tree[x_tree.index(1)] = 0  # one tree qubit fewer: one logical more
    assert code.k == 3 and calls == ["commutes", "forest", "forest"]


def quotient_oracle(h: Hypermap, s: frozenset[int]) -> BitMatrix:
    """Face boundary over the non-special basis, by plain linear algebra.

    Reduce each face column of d2 modulo the column space of iota, using
    the special dart of each edge as the pivot coordinate, then restrict
    to the non-special coordinates.  Independent of the expansion rule
    used by face_code.
    """
    d2, _, iota = slow_paths.raw_complex(h)
    qubits = [i for i in range(h.n) if i not in s]
    iota_cols = transpose(iota).bits  # one dart-space vector per edge
    pivot = {next(iter(s.intersection(h.edges[e]))): iota_cols[e]
             for e in range(len(h.edges))}
    rows = [0] * len(qubits)
    for j, col in enumerate(transpose(d2).bits):
        for k, edge_vec in pivot.items():
            if (col >> k) & 1:
                col ^= edge_vec
        for r, dart in enumerate(qubits):
            if (col >> dart) & 1:
                rows[r] |= 1 << j
    return BitMatrix(len(qubits), len(h.faces), tuple(rows))


def _iota(h: Hypermap) -> BitMatrix:
    """The inclusion of the edges, darts x edges: each dart's pair (e(d), none)."""
    return transpose(pair_matrix(tuple((e, len(h.edges)) for e in h.edge_index), len(h.edges)))


def test_raw_complex_of_torus(torus8):
    # the full code is the raw complex: its sides are d2, its ends d1
    full = full_code(torus8)
    d2, d1, iota = boundary2(full), boundary1(full), _iota(torus8)
    assert d2.rows == 8 and d2.cols == 4
    assert d1.rows == 2 and d1.cols == 8
    assert iota.rows == 8 and iota.cols == 2
    assert (d2, d1, iota) == slow_paths.raw_complex(torus8)
    # face f1 = (1 8): its d2 column has 1s exactly at darts 1 and 8
    col = transpose(d2).bits[0]
    assert col == (1 << 0) | (1 << 7)


def test_raw_complex_chain_conditions(torus8, corpus):
    for h in [torus8] + corpus[:100]:
        full = full_code(h)
        assert is_zero(multiply(boundary1(full), boundary2(full)))
        assert is_zero(multiply(boundary1(full), _iota(h)))


def test_raw_complex_single_dart():
    h = Hypermap(identity(1), identity(1))
    assert full_code(h).ends == ((1, 1),)  # both endpoints coincide: (none, none)
    assert boundary1(full_code(h)) == BitMatrix(1, 1, (0,))


def test_d2_column_sums_are_face_sizes(corpus):
    for h in corpus[:100]:
        cols = transpose(boundary2(full_code(h))).bits
        assert [c.bit_count() for c in cols] == [len(f) for f in h.faces]


def test_face_code_of_torus(torus8):
    q = face_code(torus8, {1, 4})
    assert q.special == frozenset({1, 4})
    assert q.qubit_labels == (0, 2, 3, 5, 6, 7)
    assert q.ends == ((0, 1),) * 6
    assert q.sides == ((0, 1), (1, 2), (1, 3), (2, 3), (1, 2), (0, 2))
    assert pair_matrix(q.ends, 2) == from_strings(["111111", "111111"])
    assert pair_matrix(q.sides, 4) == from_strings(HZ_ROWS)


def test_face_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    q = face_code(h)
    assert q.qubit_labels == ()
    assert q.ends == q.sides == ()
    assert (len(q.x_labels), len(q.z_labels)) == (1, 1)
    assert boundary2(q).rows == 0 and boundary2(q).cols == 1
    assert boundary1(q).rows == 1 and boundary1(q).cols == 0


def test_face_code_matches_quotient_oracle(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        assert boundary2(q) == quotient_oracle(h, q.special)


def test_face_code_rejects_bad_special(torus8):
    with pytest.raises(SpecialDartError):
        face_code(torus8, {1, 2})
    with pytest.raises(SpecialDartError, match="not a valid per-edge special set"):
        face_code(torus8, edge_code(torus8).special)  # one dart per face, four in all


def test_a_bad_special_set_lists_whole_orbits_up_to_64_labels(torus8):
    with pytest.raises(SpecialDartError) as caught:
        face_code(torus8, {0, 1})
    assert str(caught.value) == ("not a valid per-edge special set: edge orbit {1 4 3 2} has "
                                 "2 special darts; edge orbit {5 7 8 6} has 0 special darts")
    h = square_torus(6)  # 72 edges of two darts each
    with pytest.raises(SpecialDartError) as caught:
        face_code(h, set())
    listed = "; ".join(f"edge orbit {{{a + 1} {b + 1}}} has 0 special darts"
                       for a, b in h.edges[:32])
    assert str(caught.value) == f"not a valid per-edge special set: {listed}; ... (72 edge orbits)"


@pytest.mark.parametrize("darts", [[True, 4], [1.0, 4], ["1", 4], [4, None], {True, 4},
                                   frozenset({1.0, 4}), (1, "4")],
                         ids=["True", "float", "str", "None", "set of True", "frozenset of float",
                              "tuple with a str"])
@pytest.mark.parametrize("build", [face_code, edge_code])
def test_quotient_codes_refuse_a_special_dart_that_is_not_an_int(torus8, build, darts):
    """As ``Permutation`` refuses ``True`` and ``1.0``: a bool is no dart, and a
    float or a str no longer escapes as a bare TypeError."""
    with pytest.raises(SpecialDartError, match=r"^special dart .+ is not an integer$"):
        build(torus8, darts)


def test_a_special_dart_that_is_not_an_int_is_quoted_to_64_characters(torus8):
    with pytest.raises(SpecialDartError) as caught:
        face_code(torus8, ["7" * 1_000_000, 4])
    assert str(caught.value) == f"special dart {'7' * 64!r}... is not an integer"


@pytest.mark.parametrize("build, darts, twice", [(face_code, [1, 4, 1], 2),
                                                  (edge_code, [0, 1, 2, 3, 2], 3)],
                         ids=["face", "edge"])
@pytest.mark.parametrize("wrap", [list, lambda darts: (d for d in darts)],
                         ids=["list", "generator"])
def test_quotient_codes_refuse_a_repeated_special_dart(torus8, build, darts, twice, wrap):
    with pytest.raises(SpecialDartError, match=f"^special dart {twice} appears twice$"):
        build(torus8, wrap(darts))
    valid = darts[:-1]
    assert build(torus8, wrap(valid)) == build(torus8, frozenset(valid))


def test_a_frozen_special_set_is_kept_as_given(torus8):
    special = frozenset({1, 4})
    assert face_code(torus8, special).special is special


def test_qubit_labels_are_nonspecial_darts(corpus):
    for h in corpus[:100]:
        q = face_code(h)
        assert q.qubit_labels == tuple(sorted(set(range(h.n)) - q.special))
        e = edge_code(h)
        assert e.qubit_labels == tuple(sorted(set(range(h.n)) - e.special))


def test_boundary2_rows_have_weight_zero_or_two(torus8, corpus):
    for h in [torus8] + corpus[:150]:
        for q in (face_code(h), edge_code(h)):
            none = len(q.z_labels)
            assert all(a < b < none or a == b == none for a, b in q.sides)
            assert all(row.bit_count() in (0, 2) for row in boundary2(q).bits)


def test_edge_code_of_triangle_dual_equals_face_code(torus8, corpus):
    for h in [torus8] + corpus[:150]:
        fc = face_code(h, {1, 4} if h is torus8 else None)
        ec = edge_code(triangle_dual(h), fc.special)
        assert fc.qubit_labels == ec.qubit_labels
        assert (fc.ends, fc.sides) == (ec.ends, ec.sides)
        assert boundary1(fc) == boundary1(ec)
        assert boundary2(fc) == boundary2(ec)


def test_dual_face_code_equals_nabla_edge_code(corpus):
    for h in corpus[:150]:
        s = face_code(h).special
        fc = face_code(dual(h), s)
        ec = edge_code(nabla(h), s)
        assert (fc.ends, fc.sides) == (ec.ends, ec.sides)
        assert boundary1(fc) == boundary1(ec)
        assert boundary2(fc) == boundary2(ec)


def test_edge_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    q = edge_code(h)
    assert q.qubit_labels == ()


def test_edge_code_chain_condition(corpus):
    for h in corpus[:150]:
        q = edge_code(h)
        assert is_zero(multiply(boundary1(q), boundary2(q)))


def test_face_code_chain_condition(corpus):
    for h in corpus[:150]:
        q = face_code(h)
        assert is_zero(multiply(boundary1(q), boundary2(q)))


def test_full_code_logical_gap(torus8):
    k_face = face_code(torus8, {1, 4}).k
    k_full = full_code(torus8).k
    assert k_face == 2
    assert k_full == 3
    assert k_full == k_face + len(torus8.edges) - 1


def test_full_code_single_dart():
    h = Hypermap(identity(1), identity(1))
    assert full_code(h).k == 0


def test_full_code_gap_on_corpus(corpus):
    for h in corpus[:150]:
        k_face = face_code(h).k
        k_full = full_code(h).k
        assert k_full - k_face == len(h.edges) - 1


def test_default_special_sets_are_orbit_minima(torus8, corpus):
    for h in [torus8] + corpus:
        edge_minima = [min(e) for e in h.edges]
        face_minima = [min(f) for f in h.faces]
        assert face_code(h) == face_code(h, edge_minima)
        assert edge_code(h) == edge_code(h, face_minima)
        assert face_code(h).special == frozenset(edge_minima)
        assert edge_code(h).special == frozenset(face_minima)


def test_n_and_k_do_not_depend_on_the_special_set(corpus):
    # four drawn sets per kind per map, beside the orbit minima
    rng = random.Random(14)
    for h in [*corpus, *map(square_torus, range(3, 9))]:
        for build, orbits in ((face_code, h.edges), (edge_code, h.faces)):
            default = build(h)
            for _ in range(4):
                code = build(h, {rng.choice(orbit) for orbit in orbits})
                assert (code.n, code.k) == (default.n, default.k)
