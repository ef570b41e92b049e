import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypermap_codes import (
    CommutationError,
    DistanceResult,
    Hypermap,
    QuotientCode,
    distance,
    edge_code,
    euler_characteristic,
    face_code,
    full_code,
    genus,
    identity,
    parse_json,
    random_hypermap,
    stabilizer_strings,
)
from hypermap_codes import css
from hypermap_codes.css import _cotree_labels, _min_cycle_weight, _qubit_graph

import slow_paths
from slow_paths import from_strings
from conftest import PSL2_ROWS, plane_star, psl2_hypermap, square_torus
from test_exhaustive_small import all_hypermaps

HX_ROWS = ["111111", "111111"]
HZ_ROWS = ["100001", "111010", "010111", "001100"]


def brute_force_distance(hx, hz, n):
    """Oracle: scan all 2^n vectors for the lightest logical operators of
    the CSS code with check matrices ``hx`` and ``hz``."""
    def class_min(check, other):
        best = None
        for v in range(1, 1 << n):
            if slow_paths.mat_vec(check, v) == 0 and not slow_paths.in_row_space(other, v):
                w = v.bit_count()
                if best is None or w < best:
                    best = w
        return best

    dx = class_min(hz, hx)
    dz = class_min(hx, hz)
    return dx, dz


def brute_force_code_distance(c: QuotientCode):
    return brute_force_distance(slow_paths.hx(c), slow_paths.hz(c), c.n)


def torus_code(torus8):
    return face_code(torus8, {1, 4})


def test_assemble_torus_code(torus8):
    code = torus_code(torus8)
    assert code.n == 6
    assert code.k == 2
    assert slow_paths.hx(code) == from_strings(HX_ROWS)
    assert slow_paths.hz(code) == from_strings(HZ_ROWS)
    assert code.qubit_labels == (0, 2, 3, 5, 6, 7)


def test_assemble_empty_code():
    h = Hypermap(identity(1), identity(1))
    code = face_code(h)
    assert code.n == 0
    assert code.k == 0


def test_logical_count_is_twice_genus(corpus):
    for h in corpus:
        code = face_code(h)
        assert code.k == 2 - euler_characteristic(h)


def _assert_logical_count_is_n_minus_slow_ranks(h):
    for q in (face_code(h), edge_code(h), full_code(h)):
        hx = slow_paths.pair_matrix(q.ends, len(q.x_labels))
        hz = slow_paths.pair_matrix(q.sides, len(q.z_labels))
        assert (slow_paths.hx(q), slow_paths.hz(q)) == (hx, hz)
        assert q.k == q.n - slow_paths.rank(hx) - slow_paths.rank(hz), (h, q.kind)


def test_logical_count_is_n_minus_slow_ranks_on_every_small_hypermap():
    for h in all_hypermaps(4):
        _assert_logical_count_is_n_minus_slow_ranks(h)


def test_logical_count_is_n_minus_slow_ranks_on_corpus(torus8, corpus):
    for h in [torus8] + corpus:
        _assert_logical_count_is_n_minus_slow_ranks(h)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
def test_logical_count_is_n_minus_slow_ranks_on_square_lattice(size):
    _assert_logical_count_is_n_minus_slow_ranks(square_torus(size))


def test_assemble_rejects_noncommuting():
    # H_X = H_Z = the 2 x 2 identity: each qubit in one X and one Z check
    bogus = QuotientCode(
        kind="face", special=None, qubit_labels=(0, 1),
        ends=((0, 2), (1, 2)), sides=((0, 2), (1, 2)),
        z_labels=(0, 1), x_labels=(0, 1))
    with pytest.raises(CommutationError):
        bogus.k


def test_stabilizer_strings_of_torus(torus8):
    assert stabilizer_strings(torus_code(torus8)) == [
        "X_v1 = X1 X3 X4 X6 X7 X8",
        "X_v2 = X1 X3 X4 X6 X7 X8",
        "Z_f1 = Z1 Z8",
        "Z_f2 = Z1 Z3 Z4 Z7",
        "Z_f3 = Z3 Z6 Z7 Z8",
        "Z_f4 = Z4 Z6",
    ]


def test_stabilizer_strings_empty_code():
    h = Hypermap(identity(1), identity(1))
    code = face_code(h)
    assert stabilizer_strings(code) == []


def test_stabilizer_strings_support_matches_rows(corpus):
    for h in corpus[:50]:
        code = face_code(h)
        strings = stabilizer_strings(code)
        if code.n == 0:
            assert strings == []
            continue
        for i, row in enumerate(slow_paths.hx(code).bits + slow_paths.hz(code).bits):
            expect = {code.qubit_labels[j] + 1 for j in range(code.n) if (row >> j) & 1}
            body = strings[i].split(" = ")[1]
            got = set() if body == "I" else {int(tok[1:]) for tok in body.split()}
            assert got == expect


def test_distance_of_torus_code(torus8):
    code = torus_code(torus8)
    assert brute_force_code_distance(code) == (2, 2)
    result = distance(code)
    assert (result.dx, result.dz, result.d) == (2, 2, 2)
    assert result.exact and not result.no_logicals


def test_distance_no_logicals():
    h = Hypermap(identity(1), identity(1))
    code = face_code(h)
    result = distance(code)
    assert result.no_logicals
    assert result.d is None


def test_distance_matches_enumeration_oracle(corpus):
    for h in corpus[:120]:
        code = face_code(h)
        if code.k == 0:
            assert distance(code).no_logicals
            continue
        dx, dz = brute_force_code_distance(code)
        result = distance(code)
        assert (result.dx, result.dz) == (dx, dz)
        assert result.d == min(dx, dz)
        assert result.exact
        assert 1 <= result.d <= code.n


def test_distance_budget_gives_lower_bound(torus8):
    code = torus_code(torus8)
    result = distance(code, budget=1)
    assert result.d is None
    assert not result.exact
    assert result.budget == 1


def test_distance_refuses_a_negative_budget(torus8):
    with pytest.raises(ValueError, match="budget"):
        distance(torus_code(torus8), budget=-3)
    h = plane_star(3)
    with pytest.raises(ValueError, match="budget"):
        distance(face_code(h), budget=-1)


def test_distance_budget_still_exact_when_hit(torus8):
    code = torus_code(torus8)
    result = distance(code, budget=2)
    assert result.d == 2
    assert result.exact


def test_distance_without_logicals_reports_its_budget():
    h = plane_star(30)
    code = face_code(h)
    assert (code.n, code.k) == (30, 0)
    assert distance(code).budget == code.n
    assert distance(code, budget=3).budget == 3
    assert distance(code) == DistanceResult(dx=None, dz=None, no_logicals=True, budget=30)
    assert distance(code).exact and distance(code).d is None


def test_distance_result_derives_d_and_exact():
    assert DistanceResult(dx=3, dz=None, no_logicals=False, budget=3).d == 3
    assert DistanceResult(dx=4, dz=2, no_logicals=False, budget=5).d == 2
    found = DistanceResult(dx=None, dz=2, no_logicals=False, budget=2)
    assert (found.d, found.exact) == (2, True)
    bounded = DistanceResult(dx=None, dz=None, no_logicals=False, budget=1)
    assert (bounded.d, bounded.exact) == (None, False)


def test_distance_full_code(torus8):
    code = full_code(torus8)
    assert code.k == 3
    dx, dz = brute_force_code_distance(code)
    result = distance(code)
    assert (result.dx, result.dz, result.d) == (dx, dz, min(dx, dz))


# ---------------------------------------------------------------------------
# shortest non-trivial cycle search against the parent searches

# Largest qubit count on which the 2^n brute-force oracle also runs.
BRUTE_FORCE_QUBITS = 10


def _codes(h, face_special=None, edge_special=None):
    """The face, edge and full codes of ``h`` (orbit minima by default)."""
    yield face_code(h, face_special)
    yield edge_code(h, edge_special)
    yield full_code(h)


def _graphs(code):
    return _qubit_graph(code.ends, len(code.x_labels)), _qubit_graph(code.sides, len(code.z_labels))


def _labelled_classes(code):
    """Per class, d_X then d_Z: the searched graph, its pairs, and the labels
    ``distance`` takes from the union-find forests that the read of ``k`` keeps."""
    assert code.k > 0
    x_tree, z_tree = code._forests
    gx, gz = _graphs(code)
    return ((gz, code.sides, _cotree_labels(z_tree, gx, code.ends)),
            (gx, code.ends, _cotree_labels(x_tree, gz, code.sides)))


def _assert_search_matches_oracles(code, budgets=(0, 1, 2), exhaustive_cap=None):
    """``distance`` agrees with the kernel-label search of every node at
    ``budgets`` and n, and with the exhaustive search at those up to
    ``exhaustive_cap`` (all by default); each class has k label bits."""
    gx, gz = _graphs(code)
    if code.k == 0:
        assert distance(code).no_logicals
        return
    hx, hz = slow_paths.hx(code), slow_paths.hz(code)
    classes = ((hz, hx, gz, gx), (hx, hz, gx, gz))
    for _, _, labels in _labelled_classes(code):
        union = 0
        for label in labels:
            union |= label
        assert union == (1 << code.k) - 1
    for budget in (*budgets, code.n):
        result = distance(code, budget=budget)
        found = (result.dx, result.dz)
        assert found == tuple(slow_paths.kernel_label_min_cycle_weight(graph, other, budget)
                              for _, other, graph, _ in classes), budget
        if exhaustive_cap is None or budget <= exhaustive_cap:
            assert found == tuple(slow_paths.min_logical_weight(check, other, budget)
                                  for check, other, _, _ in classes), budget
    if code.n <= BRUTE_FORCE_QUBITS:
        assert found == brute_force_code_distance(code)


def _assert_labels_match_the_bfs_tree_labels(code):
    """The labels from the forests of ``k`` and the labels from a
    breadth-first tree give the same minimum in each class."""
    if code.k == 0:
        return
    gx, gz = _graphs(code)
    for (graph, pairs, labels), other in zip(_labelled_classes(code), (gx, gz)):
        old = slow_paths.bfs_cotree_labels(graph, other, code.n)
        assert _min_cycle_weight(graph, pairs, labels, code.n) == \
            _min_cycle_weight(graph, pairs, old, code.n), code


def test_forest_labels_match_the_bfs_tree_labels_on_corpus(corpus):
    for h in corpus:
        for code in _codes(h):
            _assert_labels_match_the_bfs_tree_labels(code)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
def test_forest_labels_match_the_bfs_tree_labels_on_square_lattice(size):
    for code in _codes(square_torus(size)):
        _assert_labels_match_the_bfs_tree_labels(code)


def test_distance_reuses_the_forests_of_k(monkeypatch):
    # the read of k builds the two union-find forests; distance then grows
    # one breadth-first cotree per class and builds no forest of its own
    from hypermap_codes import chain
    calls = []
    for module, name in ((chain, "forest"), (css, "_forest")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    code = face_code(square_torus(6))
    assert code.k == 2 and calls == ["forest", "forest"]
    calls.clear()
    assert distance(code).d == 6
    assert calls == ["_forest", "_forest"]


def test_cycle_search_on_every_small_hypermap():
    count = 0
    for h in all_hypermaps(4):
        for code in _codes(h):
            _assert_search_matches_oracles(code)
        count += 1
    assert count == 456


def test_cycle_search_on_corpus(corpus):
    for h in corpus:
        for code in _codes(h):
            _assert_search_matches_oracles(code)


@st.composite
def maps_with_special_darts(draw):
    h = random_hypermap(draw(st.integers(1, 14)), draw(st.integers(0, 2**32 - 1)))
    per_edge = {draw(st.sampled_from(orbit)) for orbit in h.edges}
    per_face = {draw(st.sampled_from(orbit)) for orbit in h.faces}
    return h, per_edge, per_face


@settings(max_examples=150, deadline=None)
@given(maps_with_special_darts())
def test_cycle_search_on_random_maps(case):
    h, per_edge, per_face = case
    for code in _codes(h, per_edge, per_face):
        _assert_search_matches_oracles(code)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
def test_cycle_search_on_square_lattice(size):
    # the exhaustive search reaches budget L up to L = 5 and budget 2 beyond
    for code in _codes(square_torus(size)):
        _assert_search_matches_oracles(code, budgets=(0, 1, 2, size),
                                       exhaustive_cap=size if size <= 5 else 2)


def _recorded_roots(monkeypatch) -> list[list[int]]:
    """Record the roots of each ``_min_cycle_weight`` call, one list per call."""
    searches: list[list[int]] = []
    roots = css._roots

    def recording(adjacency, pairs, labels, dist):
        searches.append([])
        for root in roots(adjacency, pairs, labels, dist):
            searches[-1].append(root)
            yield root

    monkeypatch.setattr(css, "_roots", recording)
    return searches


@pytest.mark.parametrize("size", range(3, 17))
def test_cycle_search_roots_cover_the_labelled_qubits(size, monkeypatch):
    # one end of each labelled qubit: on the toric code the 2L labelled
    # qubits of a class have 4L-4 ends, all roots when both ends were, and
    # the cover takes 2L-1.  In node order alone the edge code reached 2L+2
    # at even L >= 8, where a path of two labelled qubits has its middle node
    # last; taking the nodes with the most labelled qubits first keeps it at
    # 2L-1 for L = 3..16, and with the union-find trees of k, taken from the
    # last qubit back, its d_X class needs 2L-2.
    searches = _recorded_roots(monkeypatch)
    face, edge, _ = _codes(square_torus(size))
    for code in (face, edge):
        weights = []
        for graph, pairs, labels in _labelled_classes(code):
            searches.clear()
            weights.append(_min_cycle_weight(graph, pairs, labels, code.n))
            [roots] = searches
            assert len(roots) == len(set(roots))
            if code is face:
                assert len(roots) == 2 * size - 1
            else:
                assert len(roots) <= 2 * size - 1
            labelled = [(u, w) for u, edges in enumerate(graph[0]) for j, w in edges if labels[j]]
            assert labelled and all(u in roots or w in roots for u, w in labelled)
        assert min(weights) == size


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
def test_cycle_search_with_deleted_roots_on_random_special_darts(size):
    # random special darts move the labelled qubits, and so the roots and
    # the order in which they are deleted, away from the orbit minima
    h = square_torus(size)
    for seed in range(2):
        rng = random.Random(1000 * size + seed)
        per_edge = {rng.choice(orbit) for orbit in h.edges}
        per_face = {rng.choice(orbit) for orbit in h.faces}
        for code in _codes(h, per_edge, per_face):
            _assert_search_matches_oracles(code, budgets=(1, 2, size - 1, size),
                                           exhaustive_cap=size if size <= 5 else 2)


@pytest.mark.parametrize("size", [7, 8, 9, 10])
def test_square_lattice_distance_beyond_exhaustive_reach(size):
    face, edge, full = _codes(square_torus(size))
    for code, d in ((face, size), (edge, size), (full, 2)):
        for budget in (size, None):
            result = distance(code, budget=budget)
            assert result.d == d and result.exact


@pytest.mark.parametrize("size", [4, 6, 8])
def test_square_lattice_distance_on_drawn_special_sets(size):
    # a per-edge set keeps the face code at (L, L); a per-face set keeps the
    # edge code's dz at L, while its dx may exceed L
    h = square_torus(size)
    rng = random.Random(size)
    for _ in range(12):
        face = distance(face_code(h, {rng.choice(orbit) for orbit in h.edges}))
        assert (face.dx, face.dz) == (size, size)
        edge = distance(edge_code(h, {rng.choice(orbit) for orbit in h.faces}))
        assert edge.dz == size <= edge.dx


# ---------------------------------------------------------------------------
# PSL(2,p) maps: regular, of higher genus, and with edges of three darts

PSL2_GENUS = dict(zip(PSL2_ROWS, (3, 8, 14)))


def _psl2_id(row):
    p, orders = row
    return f"PSL2_{p}-" + "".join(map(str, orders))


@pytest.mark.parametrize("row", PSL2_ROWS, ids=_psl2_id)
def test_psl2_codes_have_the_closed_form_n_k_and_genus(row, psl2_maps):
    # each orbit has |G| / order darts; a surface code of genus g has k = 2g,
    # and the full code has |edges| - 1 logical qubits more (verify's gap)
    h = psl2_maps[row]
    p, (a, s, m) = row
    darts = p * (p * p - 1) // 2
    vertices, edges, faces = darts // s, darts // a, darts // m
    g = PSL2_GENUS[row]
    assert (h.n, len(h.vertices), len(h.edges), len(h.faces)) == (darts, vertices, edges, faces)
    assert genus(h) == g == 1 - (vertices + edges + faces - darts) // 2
    face, edge, full = _codes(h)
    assert (face.n, face.k) == (darts - edges, 2 * g)
    assert (edge.n, edge.k) == (darts - faces, 2 * g)
    assert (full.n, full.k) == (darts, 2 * g + edges - 1)


def test_klein_quartic_face_code_has_distance_4():
    # every (2,3,7) map on PSL(2,7) is the Klein quartic, whatever the draw
    for seed in range(4):
        h = psl2_hypermap(7, (2, 3, 7), seed)
        assert distance(face_code(h)).d == 4


@pytest.mark.parametrize("row", PSL2_ROWS, ids=_psl2_id)
def test_cycle_search_on_psl2_maps(row, psl2_maps):
    # d is not pinned past the Klein quartic's face code: several PSL(2,13)
    # maps of type (2,3,7) exist, and an edge code's d moves with its special set
    h = psl2_maps[row]
    rng = random.Random(row[0])
    per_edge = {rng.choice(orbit) for orbit in h.edges}
    per_face = {rng.choice(orbit) for orbit in h.faces}
    for code in (*_codes(h), face_code(h, per_edge), edge_code(h, per_face)):
        _assert_search_matches_oracles(code, exhaustive_cap=1)


# The conftest corpus maps (by index) whose exact d moves with the special set,
# over every set of each map that has at most 256, and the range d spans
MOVING_FACE_D = dict.fromkeys((0, 5, 35, 45, 122, 145, 168, 250, 315, 322, 353, 402), (1, 2))
MOVING_EDGE_D = dict.fromkeys((23, 56, 87, 122, 158, 176, 231, 322, 353), (1, 2))


def test_corpus_maps_whose_distance_moves_with_the_special_set(corpus):
    # a set at each end of a range is checked by the exhaustive search
    for build, name, moving in ((face_code, "edges", MOVING_FACE_D),
                                (edge_code, "faces", MOVING_EDGE_D)):
        found = {}
        for i, h in enumerate(corpus):
            orbits = getattr(h, name)
            if math.prod(map(len, orbits)) > 256:
                continue
            by_d = {}  # d -> the code of the first set that reaches it
            for special in itertools.product(*orbits):
                code = build(h, special)
                by_d.setdefault(distance(code).d, code)
            if len(by_d) > 1:
                found[i] = (min(by_d), max(by_d))
                for d in found[i]:
                    assert min(brute_force_code_distance(by_d[d])) == d, (name, i)
        assert found == moving, name


class _CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        _CountingList.iterations += 1
        return super().__iter__()


def test_cycle_search_stops_at_half_the_best_weight():
    # Once a weight-L cycle is known, each search stops at depth (L-1)/2,
    # so on the L x L grid it expands at most the diamond of radius L/2
    # around its root; without that cut-off every search expands all nodes.
    size = 8
    code = next(_codes(square_torus(size)))
    _, (graph, pairs, labels) = _labelled_classes(code)  # the d_Z class, on the X checks
    adjacency, loops = graph
    counted = [_CountingList(edges) for edges in adjacency]
    _CountingList.iterations = 0
    assert _min_cycle_weight((counted, loops), pairs, labels, code.n) == size
    radius = size // 2
    assert _CountingList.iterations <= len(counted) * (2 * radius * radius + 2 * radius + 1)


def test_cycle_search_stops_at_a_candidate_of_the_level_lower_bound():
    # From root 1 the level at depth 1 is nodes 0, 2 and the hub 3.  Node 0
    # closes a labelled triangle of weight 3 = 2 * 1 + 1, the lightest a
    # new candidate at depth 1 can be, so the search stops before it reads
    # node 2 or the hub's six leaves; root 2's labelled qubit then ends at
    # the deleted root 1, so no other search starts.
    pairs = ((0, 1), (0, 2), (1, 2), (1, 3), *((3, leaf) for leaf in range(4, 10)))
    labels = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    adjacency, loops = _qubit_graph(pairs, 10)
    assert [w for _, w in adjacency[1]] == [0, 2, 3]
    hub = adjacency[3] = _CountingList(adjacency[3])
    _CountingList.iterations = 0
    assert _min_cycle_weight((adjacency, loops), pairs, labels, len(pairs)) == 3
    assert len(hub) == 7 and _CountingList.iterations == 0


HAMMING_CHECKS = ["1010101", "0110011", "0001111"]


def test_distance_refuses_heavy_columns():
    # the Steane code: no graph, so no document of it is read as a code
    doc = {"format": "hypermap-codes", "version": 1, "type": "css-code", "n": 7, "k": 1,
           "z_axis": "face", "qubits": list(range(1, 8)), "x_checks": [1, 2, 3],
           "z_checks": [1, 2, 3], "hx": {"cols": 7, "rows": HAMMING_CHECKS},
           "hz": {"cols": 7, "rows": HAMMING_CHECKS}}
    with pytest.raises(ValueError, match="three or more checks"):  # the last column
        parse_json(json.dumps(doc))
    checks = from_strings(HAMMING_CHECKS)
    assert slow_paths.min_logical_weight(checks, checks, 7) == 3
    assert brute_force_distance(checks, checks, 7) == (3, 3)
