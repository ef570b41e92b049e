"""Differential tests: the fast paths against the straightforward oracles.

The hypothesis strategies here draw check-pair tables of more than 64
qubits, so rows span several machine words, with two, one or no checks
per qubit: they give the spanning-forest rank sparse and dense graphs,
and small ones give the commutation test both verdicts.
Permutation pairs are drawn with up to 60 darts, split into blocks so
that many are disconnected, for the orbit build.  Cycle text
is drawn valid, with random whitespace, leading zeros, written-out fixed
points and empty cycles, and then broken by one mutation, for the cycle
parser.  The sparse cell complex is compared with the dense count table
on every small special set, the corpus and square-lattice tori, on
corrupted counts and on a 1-cell end moved to another 0-cell; its JSON
rendering is compared with ``json.dumps`` of the dense table, and its
streamed count rows with the string splice they replaced, on counts read
from JSON that are wider than one character.  The dense '0'/'1' rows
written straight from check pairs are compared with the matrix of the
pairs rendered entry by entry, on random pair tables (no qubits, and
two, one or no checks per qubit) and on the codes of square-lattice tori,
the corpus and PSL(2,p) maps; so are the one-block texts of the rows and
of the count rows, which ``code`` and ``reduce`` print for a matrix of at
most ``gf2.BLOCK_BYTES``, and what those commands print with that bound at
0, so that every matrix takes the row path.  The code
builders that read the orbit index tables, and the reduction and
validation that take the caller's face code, are compared with the builds through ``inverse(alpha)`` and ``face_code(h, s)`` on every
special set of every small map, valid or not, and on the same inputs.  The
dual, triangle dual, contrary and nabla, which skip the transitivity search
and walk their orbits on first read, are compared field by field with a
validating build of the same pair on every small map, the corpus and
square-lattice tori, and the permutations that ``perm`` makes without
validation are drawn and validated.  The hypermap text parser must return
what the line-by-line oracle returns on the texts ``format_hypermap``
writes of every small map, the corpus and square-lattice tori, and return
it or raise its exact error on edge cases and drawn perturbations of them.
The special-set check of ``face_code`` and ``edge_code``, which counts
hits through the dart -> orbit table, must raise the oracle's exact
message on every subset of every small map, on the corpus and on
out-of-range sets.
"""

import itertools
import json
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from hypermap_codes import (
    EDGE,
    FACE,
    DisconnectedError,
    Hypermap,
    Permutation,
    QuotientCode,
    SpecialDartError,
    compose,
    connected_components,
    contrary,
    cycle_decomposition,
    dual,
    edge_code,
    export_json,
    face_code,
    format_hypermap,
    full_code,
    identity,
    inverse,
    is_transitive,
    nabla,
    parse_cycles,
    parse_hypermap,
    parse_json,
    random_corpus,
    random_hypermap,
    random_permutation,
    reduce_to_surface,
    stabilizer_strings,
    triangle_dual,
    validate_surface,
)
from hypermap_codes import chain, cli, gf2, perm
from slow_paths import from_strings
from conftest import TORUS8, square_torus
from test_exhaustive_small import all_hypermaps


def _random_pairs(rng, checks, qubits):
    """Per-qubit check pairs padded with ``checks``: two checks, one, or none."""
    pairs = []
    for _ in range(qubits):
        a, b = rng.randrange(checks + 1), rng.randrange(checks + 1)
        pairs.append((a, b) if a < b else (b, a) if b < a else (checks, checks))
    return tuple(pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 100), st.integers(65, 160), st.integers(0, 2**32 - 1))
def test_rank_matches_oracle(checks, qubits, seed):
    # the spanning-forest rank of a graph's check matrix, sparse to dense
    pairs = _random_pairs(random.Random(seed), checks, qubits)
    rank = gf2.forest(pairs, checks).count(1)
    assert rank == slow_paths.rank(slow_paths.pair_matrix(pairs, checks))


def test_commutation_matches_oracle():
    rng = random.Random(16)
    outcomes = set()
    for _ in range(3000):
        x_checks, z_checks, qubits = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 8)
        ends = _random_pairs(rng, x_checks, qubits)
        sides = _random_pairs(rng, z_checks, qubits)
        product = slow_paths.multiply(slow_paths.pair_matrix(ends, x_checks),
                                      slow_paths.transpose(slow_paths.pair_matrix(sides, z_checks)))
        commutes = gf2.commutes(ends, x_checks, gf2.masks(sides, z_checks))
        assert commutes == all(row == 0 for row in product.bits), (ends, sides)
        outcomes.add(commutes)
    assert outcomes == {True, False}


def _quotients(h):
    return [face_code(h), edge_code(h), full_code(h)]


def _assert_rows_match_oracle(pairs, checks):
    rows = list(gf2.dense_rows(pairs, checks))
    assert len(rows) == checks
    assert "\n".join(rows) == slow_paths.render(slow_paths.pair_matrix(pairs, checks))
    # the block renderer writes the same rows, each ended by a newline
    assert gf2.dense_block(pairs, checks) == "".join(row + "\n" for row in rows)


def test_dense_rows_match_oracle_on_small_pairs():
    rng = random.Random(21)
    seen = set()
    for _ in range(3000):
        checks, qubits = rng.randint(0, 4), rng.randint(0, 8)
        pairs = _random_pairs(rng, checks, qubits)
        _assert_rows_match_oracle(pairs, checks)
        if not pairs:
            seen.add("no qubits")
        # a qubit in two checks (a, b), in one (a, none), or in none (none, none)
        seen.update(("two", "one", "none")[(a == checks) + (b == checks)] for a, b in pairs)
    assert seen == {"no qubits", "two", "one", "none"}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 100), st.integers(65, 160), st.integers(0, 2**32 - 1))
def test_dense_rows_match_oracle(checks, qubits, seed):
    _assert_rows_match_oracle(_random_pairs(random.Random(seed), checks, qubits), checks)


def test_dense_rows_match_oracle_on_codes(torus8, corpus, psl2_maps):
    lattices = [square_torus(size) for size in range(3, 9)]
    for h in [torus8, *lattices, *corpus, *psl2_maps.values()]:
        for q in _quotients(h):
            _assert_rows_match_oracle(q.ends, len(q.x_labels))
            _assert_rows_match_oracle(q.sides, len(q.z_labels))


def test_dense_block_is_none_over_the_bound(monkeypatch):
    rng = random.Random(23)
    for checks, qubits in ((0, 0), (0, 5), (3, 0), (1, 1), (4, 9)):
        pairs = _random_pairs(rng, checks, qubits)
        text = "".join(row + "\n" for row in gf2.dense_rows(pairs, checks))
        assert len(text) == checks * (qubits + 1)
        monkeypatch.setattr(gf2, "BLOCK_BYTES", len(text))
        assert gf2.dense_block(pairs, checks) == text
        monkeypatch.setattr(gf2, "BLOCK_BYTES", len(text) - 1)
        assert gf2.dense_block(pairs, checks) is None
    # a text of 1 MiB is one block, one byte more is written row by row
    monkeypatch.undo()
    assert gf2.BLOCK_BYTES == 1 << 20
    assert gf2.dense_block(((0, 1),) * 1023, 1024) is not None  # 1024 rows of 1024 bytes
    assert gf2.dense_block(((0, 1),) * 1024, 1024) is None


def _cli_outputs(tmp_path, h, capsys):
    """What ``code`` (each kind) and ``reduce`` print for ``h``."""
    path = str(tmp_path / "map.hm")
    with open(path, "w") as fh:
        fh.write(format_hypermap(h))
    argvs = [["code", path, "--kind", kind] for kind in ("face", "edge", "full")]
    outputs = []
    for argv in [*argvs, ["reduce", path]]:
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def test_code_and_reduce_print_the_same_bytes_in_blocks_and_in_rows(
        tmp_path, capsys, monkeypatch, torus8, corpus, psl2_maps):
    blocks = []  # per matrix the CLI writes: its block, or None for its rows
    write_matrix = cli._write_matrix
    monkeypatch.setattr(cli, "_write_matrix",
                        lambda block, lines: blocks.append(block) or write_matrix(block, lines))
    bound, lattices = gf2.BLOCK_BYTES, [square_torus(size) for size in range(3, 9)]
    for h in [torus8, *lattices, *corpus[:60], *psl2_maps.values()]:
        expected = _cli_outputs(tmp_path, h, capsys)
        assert len(blocks) == 8 and None not in blocks  # H_X, H_Z of each code; reduce: 2
        blocks.clear()
        # with the bound at 0, every matrix with any text takes the row path
        monkeypatch.setattr(gf2, "BLOCK_BYTES", 0)
        assert _cli_outputs(tmp_path, h, capsys) == expected
        assert len(blocks) == 8 and set(blocks) <= {None, ""}
        blocks.clear()
        monkeypatch.setattr(gf2, "BLOCK_BYTES", bound)


@settings(max_examples=25, deadline=None)
@given(st.integers(70, 150), st.integers(0, 2**32 - 1))
def test_stabilizer_strings_match_oracle_past_64_qubits(darts, seed):
    h = random_hypermap(darts, seed)
    for q in _quotients(h):
        assert stabilizer_strings(q) == slow_paths.stabilizer_strings(q)
        assert "\n".join(gf2.dense_rows(q.ends, len(q.x_labels))) \
            == slow_paths.render(slow_paths.hx(q))
        assert "\n".join(gf2.dense_rows(q.sides, len(q.z_labels))) \
            == slow_paths.render(slow_paths.hz(q))


def test_stabilizer_strings_match_oracle_on_corpus(torus8, corpus):
    one_dart = Hypermap(identity(1), identity(1))  # its one qubit cancels in its one X check
    assert "X_v1 = I" in stabilizer_strings(full_code(one_dart))
    lattices = [square_torus(size) for size in (3, 5, 10)]
    for h in [torus8, one_dart] + lattices + corpus[:150]:
        for q in _quotients(h):
            assert stabilizer_strings(q) == slow_paths.stabilizer_strings(q)


def _every_special_set(orbits):
    for choice in itertools.product(*orbits):
        yield frozenset(choice)


def _assert_boundary_is_counts_mod2(h, s, kind):
    counts = slow_paths.expansion_counts(h, s, kind)
    q = face_code(h, s) if kind == FACE else edge_code(h, s)
    assert slow_paths.boundary2(q) == slow_paths.mod2_projection(counts, len(q.z_labels)), (h, s)
    if kind == FACE:
        assert slow_paths.incidence21(reduce_to_surface(h, q)) == counts, (h, s)


def test_boundary2_is_expansion_counts_mod2_on_small_sweep():
    for h in all_hypermaps(4):
        for s in _every_special_set(h.edges):
            _assert_boundary_is_counts_mod2(h, s, FACE)
        for s in _every_special_set(h.faces):
            _assert_boundary_is_counts_mod2(h, s, EDGE)


def test_boundary2_is_expansion_counts_mod2_on_corpus(torus8, corpus):
    for h in [torus8] + corpus:
        _assert_boundary_is_counts_mod2(h, face_code(h).special, FACE)
        _assert_boundary_is_counts_mod2(h, edge_code(h).special, EDGE)


# ---------------------------------------------------------------------------
# the orbit build: one walk per family, transitivity by a flat search

def _orbits_of(h):
    return h.vertices, h.edges, h.faces, h.vertex_index, h.edge_index, h.face_index


def _assert_orbit_build_matches_oracle(alpha, sigma):
    components, orbits = slow_paths.orbit_build(alpha, sigma)
    assert connected_components(alpha, sigma) == components
    assert is_transitive(alpha, sigma) == (orbits is not None)
    if orbits is not None:
        assert _orbits_of(Hypermap(alpha, sigma)) == orbits
        return
    with pytest.raises(DisconnectedError) as caught:
        Hypermap(alpha, sigma)
    assert caught.value.components == components
    pretty = ", ".join("{" + " ".join(str(i + 1) for i in c) + "}" for c in components)
    assert str(caught.value) == f"hypermap is not connected; dart components: {pretty}"


@st.composite
def permutation_pairs(draw, max_darts=60):
    """A pair on up to ``max_darts`` darts that acts within 1 to 4 blocks."""
    n = draw(st.integers(1, max_darts))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    darts = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, draw(st.integers(0, 3)))))
    alpha, sigma = [0] * n, [0] * n
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        block = darts[lo:hi]
        for images in (alpha, sigma):
            for dart, image in zip(block, rng.sample(block, len(block))):
                images[dart] = image
    return Permutation(tuple(alpha)), Permutation(tuple(sigma))


@settings(max_examples=300, deadline=None)
@given(permutation_pairs())
def test_orbit_build_matches_oracle_on_drawn_pairs(pair):
    _assert_orbit_build_matches_oracle(*pair)


def test_orbit_build_matches_oracle_on_small_sweep():
    for n in range(1, 5):
        perms = [Permutation(p) for p in itertools.permutations(range(n))]
        for alpha, sigma in itertools.product(perms, perms):
            _assert_orbit_build_matches_oracle(alpha, sigma)


@pytest.mark.parametrize("size", [1, 2, 3, 8])
def test_orbit_build_matches_oracle_on_square_torus(size):
    h = square_torus(size)
    _assert_orbit_build_matches_oracle(h.alpha, h.sigma)


@pytest.mark.parametrize("alpha, sigma, degree", [
    ("", "", 1), ("", "()", 4), ("(1 2)", "(3 4)", 4), ("(1 3)(2 4)", "(3 1)", 4),
    ("(1 2 3)", "(4 5)", 6), ("(1 5)(2 6)", "(5 1)(3 4)", 6), ("(2 3)", "(3 4)", 5),
])
def test_components_match_oracle_on_disconnected_pairs(alpha, sigma, degree):
    p, q = parse_cycles(alpha, degree), parse_cycles(sigma, degree)
    components = slow_paths.connected_components(p, q)
    assert connected_components(p, q) == components
    assert is_transitive(p, q) == (len(components) == 1) == (degree == 1)


def test_components_refuse_a_degree_mismatch():
    for find in (connected_components, is_transitive, slow_paths.connected_components):
        for p, q in ((identity(3), identity(4)), (identity(4), identity(3))):
            with pytest.raises(ValueError, match=f"^degree mismatch: {p.degree} != {q.degree}$"):
                find(p, q)


def test_random_corpus_orbits_match_oracle():
    for h in random_corpus(200, 12, 5):
        assert type(h) is Hypermap
        assert _orbits_of(h) == slow_paths.orbit_build(h.alpha, h.sigma)[1]


def test_random_corpus_checks_transitivity_once_per_draw(monkeypatch):
    """Each draw of two permutations is checked once, by one transitivity
    search; a rejected draw builds no error and sorts out no components,
    since nothing reads them."""
    from hypermap_codes import hypermap as hm

    calls = {"random_permutation": 0, "is_transitive": 0, "connected_components": 0,
             "DisconnectedError": 0}

    def counted(name):
        original = getattr(hm, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(hm, name, wrapper)

    for name in calls:
        counted(name)
    corpus = random_corpus(200, 6, 3)
    monkeypatch.undo()
    draws = calls["random_permutation"] // 2
    assert draws > len(corpus)
    assert calls["is_transitive"] == draws
    assert calls["connected_components"] == calls["DisconnectedError"] == 0
    assert corpus == random_corpus(200, 6, 3)


# ---------------------------------------------------------------------------
# the derived maps: no transitivity search, orbits walked on first read

DERIVED = [(dual, slow_paths.validated_dual),
           (triangle_dual, slow_paths.validated_triangle_dual),
           (contrary, slow_paths.validated_contrary),
           (nabla, slow_paths.validated_nabla)]


def _fields(h):
    return (h.alpha, h.sigma, h.vertices, h.edges, h.faces,
            h.vertex_index, h.edge_index, h.face_index)


def _assert_derived_maps_match_oracle(h):
    for fast, oracle in DERIVED:
        got, want = fast(h), oracle(h)
        assert type(got) is Hypermap
        assert _fields(got) == _fields(want), (fast.__name__, h)


def test_derived_maps_match_oracle_on_small_sweep():
    count = 0
    for h in all_hypermaps(4):
        _assert_derived_maps_match_oracle(h)
        count += 1
    assert count == 456


def test_derived_maps_match_oracle_on_corpus(torus8, corpus):
    for h in [torus8, *corpus]:
        _assert_derived_maps_match_oracle(h)


@pytest.mark.parametrize("size", range(3, 9))
def test_derived_maps_match_oracle_on_square_torus(size):
    _assert_derived_maps_match_oracle(square_torus(size))


# ---------------------------------------------------------------------------
# the cycle parser: grammar scan and list checks against the character walker

_GAPS = " \t\n\u00a0\x0b"  # the walker's str.isspace takes every one


def _gap(rng, least):
    return "".join(rng.choice(_GAPS) for _ in range(rng.randint(least, least + 2)))


@st.composite
def cycle_texts(draw, max_degree=30):
    """(text, degree, permutation): ``text`` spells the permutation in cycle
    notation with drawn gaps, leading zeros, 1-cycles and empty cycles."""
    degree = draw(st.integers(1, max_degree))
    p = Permutation(tuple(draw(st.permutations(range(degree)))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cycles = [c for c in cycle_decomposition(p) if len(c) > 1 or rng.random() < 0.5]
    cycles += [()] * rng.randint(0, 2)
    rng.shuffle(cycles)
    parts = []
    for cycle in cycles:
        turn = rng.randrange(len(cycle)) if cycle else 0
        labels = ["0" * rng.choice((0, 0, 1, 3)) + str(x + 1) for x in cycle[turn:] + cycle[:turn]]
        inner = "".join(f"{_gap(rng, 1)}{label}" for label in labels)[1:] if labels else ""
        parts.append(f"{_gap(rng, 0)}({_gap(rng, 0)}{inner}{_gap(rng, 0)})")
    return "".join(parts) + _gap(rng, 0), degree, p


def _outcome(parse, text, degree):
    """What a parser returns, or its error's type, message and column."""
    try:
        return parse(text, degree)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "col", None)


@settings(max_examples=400, deadline=None)
@given(cycle_texts())
def test_parse_cycles_matches_oracle_on_valid_text(drawn):
    text, degree, p = drawn
    with mock.patch.object(perm, "_raise_first_error", side_effect=AssertionError("walked")):
        assert parse_cycles(text, degree) == p  # valid text never reaches the walker
    assert slow_paths.parse_cycles(text, degree) == p


def _assert_validated(p):
    assert type(p) is Permutation and type(p.images) is tuple
    assert Permutation(p.images) == p  # raises unless a bijection on 0..n-1


@settings(max_examples=300, deadline=None)
@given(cycle_texts(), st.data())
def test_internally_made_permutations_pass_validation(drawn, data):
    text, degree, p = drawn
    q = Permutation(tuple(data.draw(st.permutations(range(degree)))))
    for made in (compose(p, q), compose(q, p), inverse(p), inverse(q),
                 parse_cycles(text, degree),
                 random_permutation(degree, random.Random(data.draw(st.integers(0, 2**32 - 1))))):
        _assert_validated(made)
    assert compose(p, inverse(p)) == identity(degree)


def _mutate(text, degree, rng):
    """``text`` with one mutation that the grammar or a list check refuses."""
    labels = [m.span() for m in re.finditer(r"[0-9]+", text)]
    kind = rng.choice(["drop", "paren", "char", "zero", "high", "long", "repeat"] if labels
                      else ["drop", "paren", "char"])
    at = rng.randint(0, len(text))
    if kind == "drop":
        spots = [i for i, ch in enumerate(text) if ch in "()"]
        if spots:
            i = rng.choice(spots)
            return text[:i] + text[i + 1:]
        kind = "paren"
    if kind in ("paren", "char"):
        insert = rng.choice("()" if kind == "paren" else ["\u0663", "+", "_"])
        return text[:at] + insert + text[at:]
    start, end = rng.choice(labels)
    if kind == "repeat":
        other = rng.choice(labels)
        if len(labels) > 1 and other != (start, end):
            return text[:start] + text[other[0]:other[1]] + text[end:]
        return text[:start] + text[start:end] + " " + text[start:end] + text[end:]
    label = {"zero": "0", "high": str(degree + 1),
             "long": "1" + "0" * (len(str(degree)) + rng.randint(0, 5))}[kind]
    return text[:start] + label + text[end:]


@settings(max_examples=600, deadline=None)
@given(cycle_texts(), st.integers(0, 2**32 - 1))
def test_parse_cycles_matches_oracle_on_mutated_text(drawn, seed):
    text, degree, _ = drawn
    broken = _mutate(text, degree, random.Random(seed))
    expected = _outcome(slow_paths.parse_cycles, broken, degree)
    assert type(expected) is tuple, (broken, expected)  # every mutation is an error
    assert _outcome(parse_cycles, broken, degree) == expected


@pytest.mark.parametrize("text", [
    "(" + "1 " * 200_000, "(1" + " " * 200_000 + "x",
    "(" + "1" * 5000 + ")", "(2 " + "0" * 5000 + "1)",  # past int()'s 4300 digits
])
def test_parse_cycles_refuses_long_bad_text_in_linear_time(text):
    start = time.perf_counter()
    assert _outcome(parse_cycles, text, 10) == _outcome(slow_paths.parse_cycles, text, 10)
    assert time.perf_counter() - start < 1.0


_PADDING = "0" * 4400  # past int()'s 4300 digits on its own


@pytest.mark.parametrize("text, degree", [
    # labels 0, which the parser's closing sentinel 0 must not hide
    ("(0)", 3), ("(00)", 1), ("(0000)", 3), ("(1 00)", 3), ("(0000 2)", 3), ("(1 2)(0)", 3),
    # empty cycles
    ("()()", 3), ("( )", 3), ("(1)(0)", 3), ("()", 1), ("(2 3)()(1)", 3),
    # zero padding and long labels
    (f"(1 {_PADDING}2)", 3), (f"({_PADDING}3 1)", 3), (f"(1 {_PADDING})", 3),
    (f"(1 {_PADDING}4)", 3), (f"(3 {_PADDING}3)", 3),
    ("(1 " + "1" * 4301 + ")", 3), ("(" + "1" * 4301 + " 2)", 9),
    # separators: a space, the file separator \x1c (str.isspace) and a tab
    ("(1 2) (3 4)", 4), ("(1\x1c2)\x1c(3\x1c4)", 4), ("(1\t2)\t(3 4)", 4),
    ("\x1c(1\t2\x1c)", 2), ("(1\x1c1)", 2),
    # degree 1
    ("(1)", 1), ("", 1), (" ", 1), ("(1 1)", 1), ("(2)", 1), ("(1)(1)", 1), ("(01)", 1),
])
def test_parse_cycles_matches_oracle_on_edge_cases(text, degree):
    expected = _outcome(slow_paths.parse_cycles, text, degree)
    with mock.patch.object(perm, "_raise_first_error", wraps=perm._raise_first_error) as walker:
        assert _outcome(parse_cycles, text, degree) == expected
    assert walker.called == (type(expected) is tuple)  # the walker runs only on refused text


# ---------------------------------------------------------------------------
# the sparse cell complex against the dense count table

def _assert_same_complex(c, d, h=None, s=None):
    assert slow_paths.incidence21(c) == d.incidence21
    assert slow_paths.incidence10(c) == d.incidence10
    assert validate_surface(c) == slow_paths.dense_validate_surface(d)
    if h is not None:
        assert validate_surface(c, face_code(h, s)) \
            == slow_paths.dense_validate_surface(d, h, s)
    assert parse_json(export_json(c)) == c


def _assert_complex_matches_oracle(h, s):
    c = reduce_to_surface(h, face_code(h, s))
    d = slow_paths.dense_reduce_to_surface(h, s)
    _assert_same_complex(c, d, h, s)
    assert list(c.count_lines(" ")) == slow_paths.render_count_rows(d)
    _assert_count_block_matches_lines(c, " ")


def _assert_count_block_matches_lines(c, sep):
    lines = slow_paths.splice_count_lines(c, sep)
    assert list(c.count_lines(sep)) == lines
    assert c.count_block(sep) == "".join(line + "\n" for line in lines)


def test_cell_complex_matches_oracle_on_small_sweep():
    for h in all_hypermaps(4):
        for s in _every_special_set(h.edges):
            _assert_complex_matches_oracle(h, s)


def test_cell_complex_matches_oracle_on_corpus(torus8, corpus):
    _assert_complex_matches_oracle(torus8, {1, 4})
    for h in [torus8] + corpus:
        _assert_complex_matches_oracle(h, face_code(h).special)


@pytest.mark.parametrize("size", range(3, 9))
def test_cell_complex_matches_oracle_on_square_torus(size):
    h = square_torus(size)
    _assert_complex_matches_oracle(h, face_code(h).special)


def test_cell_complex_matches_oracle_on_psl2_maps(psl2_maps):
    for h in psl2_maps.values():
        _assert_complex_matches_oracle(h, face_code(h).special)


def test_count_block_is_none_over_the_bound(torus8, monkeypatch):
    c = reduce_to_surface(torus8, face_code(torus8))
    doc = json.loads(export_json(c))
    no_two_cells = parse_json(json.dumps({**doc, "two_cells": [],
                                          "incidence21": [[] for _ in c.one_cells]}))
    no_one_cells = parse_json(json.dumps({**doc, "one_cells": [], "incidence21": [],
                                          "incidence10": {"cols": 0, "rows": ["", ""]}}))
    for complex_ in (c, no_two_cells, no_one_cells):
        text = "".join(line + "\n" for line in complex_.count_lines(" "))
        assert len(text) == len(complex_.one_cells) * max(1, 2 * len(complex_.two_cells))
        monkeypatch.setattr(gf2, "BLOCK_BYTES", len(text))
        assert complex_.count_block(" ") == text
        monkeypatch.setattr(gf2, "BLOCK_BYTES", len(text) - 1)
        assert complex_.count_block(" ") is None


def _corruptions(rows, rng):
    """Named copies of a dense count table with one count made wrong."""
    i = rng.randrange(len(rows))
    j = rng.choice([j for j, v in enumerate(rows[i]) if v])
    others = [k for k in range(len(rows[i])) if k != j]

    def changed(*edits):
        out = [list(row) for row in rows]
        for col, delta in edits:
            out[i][col] += delta
        return out
    named = {"decremented": changed((j, -1)), "three": changed((j, 3 - rows[i][j])),
             "negative": changed((j, -1 - rows[i][j]))}
    if others:
        named["moved"] = changed((j, -1), (rng.choice(others), 1))
    return named


def test_corrupted_counts_read_from_json_match_oracle(torus8, corpus):
    rng = random.Random(8)
    for h in [torus8] + corpus[:100]:
        s = face_code(h).special
        d = slow_paths.dense_reduce_to_surface(h, s)
        if not d.incidence21:
            continue
        doc = json.loads(export_json(reduce_to_surface(h, face_code(h, s))))
        for name, rows in _corruptions(d.incidence21, rng).items():
            c = parse_json(json.dumps({**doc, "incidence21": rows}))
            bad = slow_paths.DenseComplex(d.zero_cells, d.one_cells, d.two_cells,
                                          tuple(map(tuple, rows)), d.incidence10)
            _assert_same_complex(c, bad, h, s)
            assert not validate_surface(c, face_code(h, s)).passed, name
            if name != "negative":
                assert list(c.count_lines(" ")) == slow_paths.render_count_rows(bad)
            _assert_count_block_matches_lines(c, " ")


def test_count_lines_match_splice_oracle_on_wide_counts(torus8, corpus):
    # counts of two characters or more, several in one row, shift the bytes after them
    rng = random.Random(22)
    for h in [torus8] + corpus[:100]:
        c = reduce_to_surface(h, face_code(h))
        if not c.one_cells:
            continue
        doc = json.loads(export_json(c))
        for _ in range(3):
            rows = [list(row) for row in slow_paths.incidence21(c)]
            row = rows[rng.randrange(len(rows))]
            for j in rng.sample(range(len(row)), min(3, len(row))):
                row[j] = rng.choice((10, -1, 123, -10, 2, 0))
            wide = parse_json(json.dumps({**doc, "incidence21": rows}))
            for sep in (" ", ",\n      ", " \u00b7 "):
                _assert_count_block_matches_lines(wide, sep)
    # every count wide, in every row: 10 and -1 alternating
    c = reduce_to_surface(square_torus(6), face_code(square_torus(6)))
    cols = len(c.two_cells)
    rows = [[(10, -1)[(i + j) % 2] for j in range(cols)] for i in range(len(c.one_cells))]
    wide = parse_json(json.dumps({**json.loads(export_json(c)), "incidence21": rows}))
    _assert_count_block_matches_lines(wide, " ")


def _moved_end(matrix, rng):
    """The rows of a JSON ``incidence10`` block with one 1-cell end moved to
    another 0-cell, or None when no 1-cell has an end and a 0-cell to spare."""
    rows = matrix["rows"]
    moves = [(i, j, k) for j in range(matrix["cols"]) for i, row in enumerate(rows)
             if row[j] == "1" for k, other in enumerate(rows) if other[j] == "0"]
    if not moves:
        return None
    i, j, k = rng.choice(moves)
    out = [list(row) for row in rows]
    out[i][j], out[k][j] = "0", "1"
    return ["".join(row) for row in out]


def test_corrupted_incidence10_read_from_json_matches_oracle(torus8, corpus):
    rng = random.Random(17)
    chain_verdicts = []
    for h in [torus8] + corpus:
        code = face_code(h)
        s = code.special
        doc = json.loads(export_json(reduce_to_surface(h, code)))
        rows = _moved_end(doc["incidence10"], rng)
        if rows is None:
            continue
        c = parse_json(json.dumps({**doc, "incidence10": {**doc["incidence10"], "rows": rows}}))
        d = slow_paths.dense_reduce_to_surface(h, s)
        bad = slow_paths.DenseComplex(d.zero_cells, d.one_cells, d.two_cells, d.incidence21,
                                      from_strings(rows, doc["incidence10"]["cols"]))
        _assert_same_complex(c, bad, h, s)
        report = validate_surface(c, code)
        assert report == slow_paths.validate_surface(c, h, s)
        assert not report.passed
        chain_verdicts += [ch.passed for ch in report.checks if ch.name == "chain-condition"]
    assert len(chain_verdicts) > 100
    # an end moved on a 1-cell whose two sides are one face keeps the chain condition
    assert set(chain_verdicts) == {True, False}


# ---------------------------------------------------------------------------
# the dense incidence21 JSON block, rendered from the sparse counts

def _assert_json_is_dense_dumps(c):
    expected = json.loads(export_json(c))
    expected["incidence21"] = [list(row) for row in slow_paths.incidence21(c)]
    assert export_json(c) == json.dumps(expected, indent=2) + "\n"


def test_complex_json_is_dense_dumps_on_corpus_and_square_tori(torus8, corpus):
    for h in [torus8] + corpus + [square_torus(size) for size in range(3, 9)]:
        _assert_json_is_dense_dumps(reduce_to_surface(h, face_code(h)))


def test_complex_json_is_dense_dumps_on_corrupted_counts(torus8, corpus):
    rng = random.Random(9)
    for h in [torus8] + corpus[:100]:
        c = reduce_to_surface(h, face_code(h))
        if not c.one_cells:
            continue
        doc = json.loads(export_json(c))
        for value in (3, 10, -1, 0, 123):
            rows = [list(row) for row in slow_paths.incidence21(c)]
            rows[rng.randrange(len(rows))][rng.randrange(len(c.two_cells))] = value
            _assert_json_is_dense_dumps(parse_json(json.dumps({**doc, "incidence21": rows})))
    header = {"format": "hypermap-codes", "version": 1, "indexing": "1-based",
              "type": "cell-complex", "incidence10": {"cols": 2, "rows": ["00"]}}
    no_faces = {**header, "zero_cells": [1], "one_cells": [1, 2], "two_cells": [],
                "incidence21": [[], []]}
    _assert_json_is_dense_dumps(parse_json(json.dumps(no_faces)))


# ---------------------------------------------------------------------------
# codes read from the orbit index tables; one face code per reduction

def _built(build, *args):
    """What a builder returns, or its error's type and message."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_codes_match_oracle(h, s):
    for kind in (FACE, EDGE):
        assert _built(chain._quotient_code, h, s, kind) \
            == _built(slow_paths.quotient_code, h, s, kind), (h, s, kind)
    if isinstance(code := _built(face_code, h, s), QuotientCode):
        c = reduce_to_surface(h, code)
        assert c == slow_paths.reduce_to_surface(h, s)
        assert validate_surface(c, code) == slow_paths.validate_surface(c, h, s)


def _assert_endpoints_match_oracle(h):
    for q in _quotients(h):
        assert slow_paths.pair_matrix(q.ends, len(h.vertices)) \
            == slow_paths.endpoint_matrix(h, q.qubit_labels), (h, q.kind)


def test_codes_match_oracle_on_every_small_special_set():
    for h in all_hypermaps(4):
        _assert_endpoints_match_oracle(h)
        for darts in itertools.chain.from_iterable(
                itertools.combinations(range(h.n), r) for r in range(h.n + 1)):
            _assert_codes_match_oracle(h, frozenset(darts))
        _assert_codes_match_oracle(h, frozenset({h.n}))  # out of range


def test_codes_match_oracle_on_corpus_and_square_tori(torus8, corpus):
    _assert_codes_match_oracle(torus8, frozenset({1, 4}))
    for h in [torus8] + corpus + [square_torus(size) for size in range(3, 9)]:
        _assert_endpoints_match_oracle(h)
        _assert_codes_match_oracle(h, face_code(h).special)
        _assert_codes_match_oracle(h, edge_code(h).special)


def test_validation_of_corrupted_counts_matches_oracle(torus8, corpus):
    rng = random.Random(10)
    for h in [torus8] + corpus[:100]:
        code = face_code(h)
        s = code.special
        d = slow_paths.dense_reduce_to_surface(h, s)
        if not d.incidence21:
            continue
        doc = json.loads(export_json(reduce_to_surface(h, code)))
        for name, rows in _corruptions(d.incidence21, rng).items():
            c = parse_json(json.dumps({**doc, "incidence21": rows}))
            report = validate_surface(c, code)
            assert report == slow_paths.validate_surface(c, h, s), name
            assert not report.passed, name



def _with_extra_zero_cell(doc):
    """A cell-complex JSON document with one more 0-cell, on no 1-cell."""
    block = doc["incidence10"]
    return {**doc, "zero_cells": [*doc["zero_cells"], max(doc["zero_cells"], default=0) + 1],
            "incidence10": {**block, "rows": [*block["rows"], "0" * block["cols"]]}}


def test_validation_by_the_face_code_alone_matches_oracle(torus8, corpus):
    """The face code fixes the hypermap's chi that ``euler-match`` compares
    with, so the report equals that of the oracle, which reads the map."""
    cases = [(h, s) for h in all_hypermaps(4) for s in _every_special_set(h.edges)]
    cases += [(h, face_code(h).special)
              for h in [torus8, *corpus, *(square_torus(size) for size in range(3, 9))]]
    for h, s in cases:
        c = reduce_to_surface(h, face_code(h, s))
        assert validate_surface(c, face_code(h, s)) == slow_paths.validate_surface(c, h, s)
    rng = random.Random(24)
    for h in [torus8] + corpus[:100]:
        code = face_code(h)
        c = reduce_to_surface(h, code)
        doc = json.loads(export_json(c))
        copies = [_with_extra_zero_cell(doc)]
        if c.one_cells:
            copies += [{**doc, "incidence21": rows}
                       for rows in _corruptions(slow_paths.incidence21(c), rng).values()]
        for bad in map(parse_json, map(json.dumps, copies)):
            report = validate_surface(bad, code)
            assert report == slow_paths.validate_surface(bad, h, code.special)
            assert not report.passed

# ---------------------------------------------------------------------------
# special sets counted through the dart -> orbit tables

def _special_outcome(check, h, darts, kind):
    """The checked set, or the text of the ``SpecialDartError`` raised."""
    try:
        return check(h, darts, kind)
    except SpecialDartError as exc:
        return str(exc)


def _code_special(h, darts, kind):
    return (face_code if kind == FACE else edge_code)(h, darts).special


def _assert_special_darts_match_oracle(h, darts):
    for kind in (FACE, EDGE):
        assert _special_outcome(_code_special, h, darts, kind) \
            == _special_outcome(slow_paths.special_darts, h, darts, kind), (h, darts, kind)


def _out_of_range_sets(h):
    return [{h.n}, {-1}, {0, h.n}, {h.n + 3, -2, 0}, set(range(-2, h.n + 2))]


def test_special_darts_match_oracle_on_every_small_set():
    for h in all_hypermaps(4):
        for r in range(h.n + 1):
            for darts in itertools.combinations(range(h.n), r):
                _assert_special_darts_match_oracle(h, darts)
        for darts in _out_of_range_sets(h):
            _assert_special_darts_match_oracle(h, darts)


def test_special_darts_match_oracle_on_corpus(torus8, corpus):
    rng = random.Random(13)
    for h in [torus8] + corpus:
        for orbits in (h.edges, h.faces):  # every valid set of either kind
            for choice in itertools.product(*orbits):
                _assert_special_darts_match_oracle(h, choice)
        for _ in range(20):
            _assert_special_darts_match_oracle(h, rng.sample(range(h.n), rng.randint(0, h.n)))
        for darts in _out_of_range_sets(h):
            _assert_special_darts_match_oracle(h, darts)


# ---------------------------------------------------------------------------
# the hypermap text parser against the line-by-line oracle

def _parsed_text(parse, text):
    """What a hypermap text parser returns, or its error's type, message, line and column."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _layout_texts(h, rng):
    """``format_hypermap``'s texts of ``h`` with no, an empty and a drawn special
    line, each also with whole-line comments before and between its lines."""
    special = frozenset(rng.choice(edge) for edge in h.edges)
    for text in (format_hypermap(h), format_hypermap(h, frozenset()),
                 format_hypermap(h, special)):
        yield text
        yield "# a comment\n" + text.replace("\nsigma:", "\n#\n# alpha: (1 2)\nsigma:")


def _assert_layout_read(texts):
    for text in texts:
        assert parse_hypermap(text) == slow_paths.parse_lines(text), text


_DOCSTRING_EXAMPLE = """# comments start with '#'
darts: 8
alpha: (4 3 2 1)(5 7 8 6)
sigma: (7 1 6 3)(5 2 8 4)
# the special line is optional
special: 2 5
"""


def test_layout_reader_reads_the_torus_file_and_the_docstring_example():
    _assert_layout_read([TORUS8.read_text(), _DOCSTRING_EXAMPLE])


def test_layout_reader_matches_line_parser_on_small_sweep():
    rng = random.Random(27)
    for h in all_hypermaps(4):
        _assert_layout_read(_layout_texts(h, rng))


def test_layout_reader_matches_line_parser_on_corpus(corpus):
    rng = random.Random(28)
    for h in corpus:
        _assert_layout_read(_layout_texts(h, rng))


@pytest.mark.parametrize("size", [1, 2, 3, 8, 20])
def test_layout_reader_matches_line_parser_on_square_torus(size):
    _assert_layout_read(_layout_texts(square_torus(size), random.Random(size)))


_TORUS_LINES = ["darts: 8", "alpha: (4 3 2 1)(5 7 8 6)", "sigma: (7 1 6 3)(5 2 8 4)",
                "special: 2 5"]


def _torus_text(*replace, end="\n"):
    """The torus8 lines with ``replace`` pairs applied to their text, joined by ``end``."""
    text = end.join(_TORUS_LINES) + end
    for old, new in zip(replace[::2], replace[1::2]):
        text = text.replace(old, new, 1)
    return text


@pytest.mark.parametrize("text", [
    _torus_text(), _torus_text(end="\r\n"), _torus_text().rstrip("\n"),
    _torus_text("special: 2 5", "special: "), _torus_text("special: 2 5", "special:"),
    _torus_text("special: 2 5", "special:  2 5"), _torus_text("2 5", "02 0005"),
    _torus_text("2 5", "2 2"), _torus_text("2 5", "0 5"), _torus_text("2 5", "9 5"),
    _torus_text("2 5", "2 5 1"), _torus_text("2 5", "\u0662 5"),
    _torus_text("2 5", "2 " + "0" * 4400 + "5"), _torus_text("2 5", "2 " + "1" * 4400),
    _torus_text("darts: 8", "darts: 0000008"), _torus_text("darts: 8", "darts: 1000001"),
    _torus_text("darts: 8", "darts: 00000008"), _torus_text("darts: 8", "darts: 0"),
    _torus_text("darts: 8", "darts: 9"), _torus_text("darts: 8", "darts: 8 "),
    _torus_text("(5 7 8 6)", "(5 7 8 6)\x85"), _torus_text(")(5", ")\u2028(5"),
    _torus_text(")(5", ")\x0c(5"), _torus_text(")(5", ") (5"), _torus_text(")(5", ")\t(5"),
    _torus_text("(5 7 8 6)", "(5 7 8 6)  "), _torus_text("(4 3", "(04 3"),
    _torus_text("(4 3", "(4 4"), _torus_text("(4 3", "(9 3"), _torus_text("(4 3", "(4 3("),
    "# c\x85darts: 3\n" + _torus_text(), "  # indented\n" + _torus_text(),
    "#\n\n" + _torus_text(), "\ufeff" + _torus_text(), _torus_text("darts:", "Darts:"),
    _torus_text("alpha:", "alpha :"), _torus_text("sigma: ", "sigma:"),
    _torus_text("special", "spécial"), _torus_text() + "special: 1 6\n",
    _torus_text() + "# trailing comment", "darts: 2\nalpha: ()\nsigma: ()\n",
    "darts: 8\nsigma: ()\nalpha: ()\n", "darts: 3\nalpha: ()\n", "",
    _torus_text("darts: 8", ": 8"), " :\n" + _torus_text(), _torus_text() + ":",
])
def test_layout_reader_matches_line_parser_on_edge_cases(text):
    assert _parsed_text(parse_hypermap, text) == _parsed_text(slow_paths.parse_lines, text)


_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]
_PERTURBATIONS = ["crlf", "break", "blank", "space", "pad", "long", "high", "zero", "repeat",
                  "no newline", "comment", "drop", "swap", "key"]


def _perturb(text, darts, kind, rng):
    """The text of a map on ``darts`` darts with one perturbation of its lines,
    spacing or numbers."""
    lines = text.split("\n")
    line = rng.randrange(len(lines))
    numbers = [m.span() for m in re.finditer(r"[0-9]+", text)]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "break":
        count = 1 + text.count("\n", 0, rng.randint(0, len(text)))
        return text.replace("\n", rng.choice(_BREAKS), count)
    if kind == "blank":
        lines.insert(line, rng.choice(["", " ", "\t"]))
    elif kind == "comment":
        lines.insert(line, rng.choice(["# c", "  # c", "#darts: 2", "#"]))
    elif kind == "space":
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice([" ", "  ", "\t", "\u00a0", "\x1c"]) + text[at:]
    elif kind in ("pad", "long", "high", "zero", "repeat") and numbers:
        start, end = rng.choice(numbers)
        label = text[start:end]
        label = {"pad": "0" * rng.randint(1, 9) + label, "long": rng.choice(["0", "1"]) * 4400
                 + label, "high": str(darts + rng.randint(1, 3)), "zero": "0",
                 "repeat": f"{label} {label}"}[kind]
        return text[:start] + label + text[end:]
    elif kind == "no newline":
        return text.rstrip("\n")
    elif kind == "drop":
        del lines[line]
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[line], lines[other] = lines[other], lines[line]
    elif kind == "key":
        lines[line] = lines[line].replace(": ", rng.choice([":", " : ", ":  ", ":\t"]), 1)
    return "\n".join(lines)


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(_PERTURBATIONS), min_size=1, max_size=3))
def test_layout_reader_matches_line_parser_on_perturbed_text(darts, seed, kinds):
    rng = random.Random(seed)
    h = random_hypermap(darts, seed)
    special = rng.choice([None, frozenset(rng.choice(edge) for edge in h.edges)])
    text = format_hypermap(h, special)
    for kind in kinds:
        text = _perturb(text, darts, kind, rng)
    assert _parsed_text(parse_hypermap, text) == _parsed_text(slow_paths.parse_lines, text)
