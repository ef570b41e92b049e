"""Differential tests: the fast paths against the straightforward oracles.

The hypothesis strategies here draw matrices taller than 64 rows and
wider than 64 columns, so rows span several machine words, and control
their rank and density, so the XOR basis meets dependent, sparse and
dense rows.  Permutation pairs are drawn with up to 60 darts, split into
blocks so that many are disconnected, for the orbit build.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from hypermap_codes import (
    PER_EDGE,
    PER_FACE,
    BitMatrix,
    DisconnectedError,
    Hypermap,
    Permutation,
    SpecialDarts,
    assemble,
    connected_components,
    default_special_darts,
    echelon_form,
    edge_code,
    face_code,
    full_code,
    in_row_space,
    is_transitive,
    kernel_basis,
    multiply,
    random_corpus,
    random_hypermap,
    rank,
    reduce_to_surface,
    render,
    stabilizer_strings,
    to_strings,
    transpose,
)
from conftest import square_torus
from test_exhaustive_small import all_hypermaps


def _random_row(rng, cols, sparse):
    if not sparse:
        return rng.getrandbits(cols)
    row = 0
    for j in rng.sample(range(cols), rng.randint(1, min(4, cols))):
        row |= 1 << j
    return row


@st.composite
def large_matrices(draw, min_side=65, max_rows=100, max_cols=160):
    """A rows x cols matrix of rank <= a drawn bound, from a drawn seed."""
    rows = draw(st.integers(min_side, max_rows))
    cols = draw(st.integers(min_side, max_cols))
    bound = draw(st.integers(0, min(rows, cols)))
    sparse = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = [_random_row(rng, cols, sparse) for _ in range(bound)]
    bits = []
    for _ in range(rows):
        row = 0
        for g in gens:
            if rng.random() < (0.1 if sparse else 0.5):
                row ^= g
        bits.append(row)
    return BitMatrix(rows, cols, tuple(bits))


@settings(max_examples=60, deadline=None)
@given(large_matrices())
def test_echelon_kernel_and_rank_match_oracle(m):
    assert echelon_form(m) == slow_paths.echelon_form(m)
    assert kernel_basis(m) == slow_paths.kernel_basis(m)
    assert rank(m) == slow_paths.rank(m)


@settings(max_examples=60, deadline=None)
@given(large_matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_in_row_space_matches_oracle(m, seed, from_rows):
    rng = random.Random(seed)
    if from_rows:
        v = 0
        for row in m.bits:
            if rng.random() < 0.5:
                v ^= row
        v ^= (1 << rng.randrange(m.cols)) if rng.random() < 0.5 else 0
    else:
        v = rng.getrandbits(m.cols)
    assert in_row_space(m, v) == slow_paths.in_row_space(m, v)


@settings(max_examples=60, deadline=None)
@given(large_matrices(), st.integers(65, 130), st.integers(0, 2**32 - 1))
def test_multiply_matches_oracle(a, cols, seed):
    rng = random.Random(seed)
    b = BitMatrix(a.cols, cols, tuple(rng.getrandbits(cols) for _ in range(a.cols)))
    assert multiply(a, b) == slow_paths.multiply(a, b)
    at = transpose(a)
    assert multiply(a, at) == slow_paths.multiply(a, at)


@settings(max_examples=60, deadline=None)
@given(large_matrices())
def test_render_matches_oracle(m):
    assert to_strings(m) == slow_paths.to_strings(m)
    assert render(m) == slow_paths.render(m)


def test_render_of_empty_shapes():
    for m in (BitMatrix(3, 0, (0, 0, 0)), BitMatrix(0, 5, ()), BitMatrix(0, 0, ())):
        assert to_strings(m) == slow_paths.to_strings(m)
        assert render(m) == slow_paths.render(m)


def _quotients(h):
    return [face_code(h, default_special_darts(h, PER_EDGE)),
            edge_code(h, default_special_darts(h, PER_FACE)),
            full_code(h)]


@settings(max_examples=25, deadline=None)
@given(st.integers(70, 150), st.integers(0, 2**32 - 1))
def test_stabilizer_strings_match_oracle_past_64_qubits(darts, seed):
    h = random_hypermap(darts, seed)
    for q in _quotients(h):
        code = assemble(q)
        assert stabilizer_strings(code) == slow_paths.stabilizer_strings(code)
        assert render(code.hx) == slow_paths.render(code.hx)
        assert render(code.hz) == slow_paths.render(code.hz)


def test_stabilizer_strings_match_oracle_on_corpus(torus8, corpus):
    for h in [torus8] + corpus[:150]:
        for q in _quotients(h):
            code = assemble(q)
            assert stabilizer_strings(code) == slow_paths.stabilizer_strings(code)


def _every_special_set(orbits, kind):
    for choice in itertools.product(*orbits):
        yield SpecialDarts(frozenset(choice), kind)


def _assert_boundary_is_counts_mod2(h, s):
    counts = slow_paths.expansion_counts(h, s)
    q = face_code(h, s) if s.kind == PER_EDGE else edge_code(h, s)
    assert q.boundary2 == slow_paths.mod2_projection(counts, q.boundary2.cols), (h, s)
    if s.kind == PER_EDGE:
        assert reduce_to_surface(h, s).incidence21 == counts, (h, s)


def test_boundary2_is_expansion_counts_mod2_on_small_sweep():
    for h in all_hypermaps(4):
        for s in _every_special_set(h.edges, PER_EDGE):
            _assert_boundary_is_counts_mod2(h, s)
        for s in _every_special_set(h.faces, PER_FACE):
            _assert_boundary_is_counts_mod2(h, s)


def test_boundary2_is_expansion_counts_mod2_on_corpus(torus8, corpus):
    for h in [torus8] + corpus:
        _assert_boundary_is_counts_mod2(h, default_special_darts(h, PER_EDGE))
        _assert_boundary_is_counts_mod2(h, default_special_darts(h, PER_FACE))


# ---------------------------------------------------------------------------
# the orbit build: one walk per family, transitivity by a flat search

def _orbits_of(h):
    n = range(h.n)
    return (h.vertices, h.edges, h.faces, tuple(map(h.vertex_of, n)),
            tuple(map(h.edge_of, n)), tuple(map(h.face_of, n)))


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


def test_random_corpus_orbits_match_oracle():
    for h in random_corpus(200, 12, 5):
        assert type(h) is Hypermap
        assert _orbits_of(h) == slow_paths.orbit_build(h.alpha, h.sigma)[1]


def test_random_corpus_checks_transitivity_once_per_draw(monkeypatch):
    """Each draw of two permutations is checked once, by the constructor;
    components are searched only to report a rejected draw."""
    from hypermap_codes import hypermap as hm

    calls = {"random_permutation": 0, "is_transitive": 0, "connected_components": 0}

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
    assert calls["connected_components"] == draws - len(corpus)
    assert corpus == random_corpus(200, 6, 3)
