import copy
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import assume, given, strategies as st

from hypermap_codes import (
    DisconnectedError,
    Hypermap,
    ParseError,
    Permutation,
    SpecialDartError,
    contrary,
    distance,
    dual,
    edge_code,
    euler_characteristic,
    face_code,
    format_cycles,
    format_hypermap,
    full_code,
    genus,
    identity,
    is_transitive,
    nabla,
    parse_cycles,
    parse_hypermap,
    random_corpus,
    random_hypermap,
    random_permutation,
    reduce_to_surface,
    triangle_dual,
    validate_surface,
)
from hypermap_codes import cli, hypermap
from conftest import TORUS8, square_torus
from slow_paths import as_partition, same_orbits, validated_dual


def identity_hypermap(n: int = 1) -> Hypermap:
    return Hypermap(identity(n), identity(n))


@st.composite
def hypermaps(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    alpha = Permutation(tuple(draw(st.permutations(range(n)))))
    sigma = Permutation(tuple(draw(st.permutations(range(n)))))
    assume(is_transitive(alpha, sigma))
    return Hypermap(alpha, sigma)


@given(hypermaps())
def test_duality_square_identities(h):
    assert dual(dual(h)) == h
    assert triangle_dual(triangle_dual(h)) == h
    assert contrary(contrary(h)) == h
    assert same_orbits(nabla(h), triangle_dual(dual(h)))


@given(hypermaps())
def test_orbit_partitions_cover_all_darts(h):
    for orbits in (h.vertices, h.edges, h.faces):
        seen = sorted(d for orbit in orbits for d in orbit)
        assert seen == list(range(h.n))


def test_torus8_orbit_counts(torus8):
    assert len(torus8.edges) == 2
    assert len(torus8.vertices) == 2
    assert len(torus8.faces) == 4
    assert as_partition(torus8.faces) == as_partition(
        ((0, 7), (1, 6), (2, 4), (3, 5)))


def test_single_dart_hypermap():
    h = identity_hypermap(1)
    assert (len(h.vertices), len(h.edges), len(h.faces)) == (1, 1, 1)


def test_disconnected_pair_rejected():
    with pytest.raises(DisconnectedError) as err:
        Hypermap(identity(2), identity(2))
    assert err.value.components == ((0,), (1,))


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Hypermap(identity(2), identity(3))


def test_construction_matches_transitivity_oracle():
    rng = random.Random(99)
    accepted = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        alpha = random_permutation(n, rng)
        sigma = random_permutation(n, rng)
        if is_transitive(alpha, sigma):
            Hypermap(alpha, sigma)
            accepted += 1
        else:
            with pytest.raises(DisconnectedError):
                Hypermap(alpha, sigma)
    assert accepted > 0


def test_orbit_membership_maps(torus8):
    for dart in range(torus8.n):
        assert dart in torus8.vertices[torus8.vertex_index[dart]]
        assert dart in torus8.edges[torus8.edge_index[dart]]
        assert dart in torus8.faces[torus8.face_index[dart]]


def test_euler_characteristic_of_torus(torus8):
    assert euler_characteristic(torus8) == 0
    assert genus(torus8) == 1


def test_euler_characteristic_of_sphere():
    h = identity_hypermap(1)
    assert euler_characteristic(h) == 2
    assert genus(h) == 0


def test_euler_characteristic_even_and_bounded(corpus):
    for h in corpus:
        chi = euler_characteristic(h)
        assert chi % 2 == 0
        assert chi <= 2


def test_dual_of_torus(torus8):
    d = dual(torus8)
    assert d.alpha == parse_cycles("(1 2 3 4)(5 6 8 7)", 8)
    assert d.sigma == parse_cycles("(1 8)(2 7)(3 5)(4 6)", 8)


def test_dual_involution_and_edges(corpus):
    for h in corpus:
        d = dual(h)
        assert dual(d) == h
        assert as_partition(d.edges) == as_partition(h.edges)
        assert as_partition(d.vertices) == as_partition(h.faces)
        assert as_partition(d.faces) == as_partition(h.vertices)


def test_triangle_dual_orbits(corpus):
    for h in corpus:
        t = triangle_dual(h)
        assert triangle_dual(t) == h
        assert as_partition(t.faces) == as_partition(h.edges)
        assert as_partition(t.edges) == as_partition(h.faces)
        assert as_partition(t.vertices) == as_partition(h.vertices)


def test_contrary_swaps_vertices_and_edges(corpus):
    for h in corpus[:100]:
        c = contrary(h)
        assert contrary(c) == h
        assert as_partition(c.vertices) == as_partition(h.edges)
        assert as_partition(c.edges) == as_partition(h.vertices)


def test_nabla_orbits_match_dual(corpus):
    for h in corpus:
        nb, d = nabla(h), dual(h)
        assert as_partition(nb.edges) == as_partition(d.faces)
        assert as_partition(nb.faces) == as_partition(d.edges)


def test_nabla_identity(torus8, corpus):
    def holds(h):
        return same_orbits(nabla(h), triangle_dual(dual(h)))

    assert holds(torus8)
    assert holds(identity_hypermap(1))
    assert all(holds(h) for h in corpus)


def test_duals_preserve_euler_characteristic(corpus):
    for h in corpus[:100]:
        chi = euler_characteristic(h)
        assert euler_characteristic(dual(h)) == chi
        assert euler_characteristic(triangle_dual(h)) == chi


# ---------------------------------------------------------------------------
# every map fills its orbits once, on the first read of an orbit field, and
# the maps of one dual family share one walk table

ORBIT_FIELDS = ("vertices", "vertex_index", "edges", "edge_index", "faces", "face_index")


@pytest.fixture
def walks(monkeypatch):
    """The maps walked since the fixture was set up, in walk order."""
    walked = []
    walk = hypermap._walk_orbits

    def counted(h):
        walked.append(h)
        return walk(h)

    monkeypatch.setattr(hypermap, "_walk_orbits", counted)
    return walked


def test_unread_derived_maps_are_never_walked(torus8, walks):
    for op in (dual, triangle_dual, contrary):
        assert op(op(torus8)) == torus8
    assert nabla(torus8) == contrary(triangle_dual(torus8))
    assert walks == []


def test_dual_command_walks_only_the_input(walks, capsys):
    assert cli.main(["dual", str(TORUS8)]) == 0
    assert capsys.readouterr().out.startswith("darts: 8\n")
    assert walks == []  # neither the parsed input nor its dual reads an orbit


@pytest.mark.parametrize("field", ORBIT_FIELDS)
def test_reading_any_orbit_field_walks_once(torus8, walks, field):
    want = validated_dual(torus8)
    want_fields = [getattr(want, name) for name in ORBIT_FIELDS]
    walks.clear()
    d = dual(torus8)
    assert getattr(d, field) == getattr(want, field)
    assert len(walks) == 1 and walks[0] is d
    assert [getattr(d, name) for name in ORBIT_FIELDS] == want_fields
    assert len(walks) == 1


def test_validated_map_is_unwalked_until_its_first_orbit_read(torus8, walks):
    want = {name: getattr(torus8, name) for name in ORBIT_FIELDS}
    walks.clear()
    parsed, _ = parse_hypermap(TORUS8.read_text())
    drawn = random_hypermap(8, seed=3)
    assert parsed._families is None and drawn._families is None
    for field in ORBIT_FIELDS:
        h = Hypermap(torus8.alpha, torus8.sigma)
        assert h == torus8 and hash(h) == hash(torus8) and repr(h) == repr(torus8) and h.n == 8
        assert walks == [] and h._families is None
        assert getattr(h, field) == want[field]
        assert walks == [h] and walks[0] is h
        assert {name: getattr(h, name) for name in ORBIT_FIELDS} == want
        assert len(walks) == 1
        walks.clear()


def test_only_a_derivation_gives_a_map_a_walk_table(torus8):
    parsed, _ = parse_hypermap(TORUS8.read_text())
    built = [Hypermap(torus8.alpha, torus8.sigma), parsed, random_hypermap(8, seed=3),
             *hypermap._random_draws(20, 10, 3)]
    for h in built:
        assert h._walks is None
        assert genus(h) >= 0  # reading its orbits makes no table either
        assert h._walks is None
    for op in (dual, triangle_dual, contrary):
        h = Hypermap(torus8.alpha, torus8.sigma)
        d = op(h)
        assert d._walks is h._walks == {}  # made, and not yet walked into
        assert op(d)._walks is h._walks and nabla(d)._walks is h._walks
        assert len(d.faces) > 0 and len(h.faces) > 0
        assert 0 < len(h._walks) <= 6


@pytest.mark.parametrize("size", [3, 4])
def test_code_reduce_and_distance_make_no_walk_table(size, monkeypatch, tmp_path, capsys):
    h = square_torus(size)
    for code in (face_code(h), edge_code(h), full_code(h)):
        assert distance(code, size).d == (2 if code.kind == "full" else size)
    assert validate_surface(reduce_to_surface(h, face_code(h))).passed
    assert h._walks is None
    made = []
    monkeypatch.setattr(hypermap, "_family_walks", made.append)
    path = tmp_path / "lattice.hm"
    path.write_text(format_hypermap(h))
    for argv in (["code", path, "--kind", "face"], ["code", path, "--kind", "edge"],
                 ["code", path, "--kind", "full"], ["reduce", path],
                 ["distance", path, "--kind", "edge", "--budget", str(size)]):
        assert cli.main([str(arg) for arg in argv]) == 0
    assert made == []
    assert capsys.readouterr().err == ""


def test_constructor_still_checks_degrees_and_transitivity(walks):
    with pytest.raises(ValueError, match="^degree mismatch: alpha 3, sigma 4$"):
        Hypermap(identity(3), identity(4))
    with pytest.raises(DisconnectedError) as caught:
        Hypermap(parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4))
    assert caught.value.components == ((0, 1), (2, 3))
    assert str(caught.value) == "hypermap is not connected; dart components: {1 2}, {3 4}"
    assert walks == []


def test_disconnected_error_lists_at_most_64_labels():
    with pytest.raises(DisconnectedError) as caught:
        Hypermap(identity(100), identity(100))
    assert caught.value.components == tuple((i,) for i in range(100))
    listed = ", ".join("{%d}" % (i + 1) for i in range(64))
    assert str(caught.value) == (
        f"hypermap is not connected; dart components: {listed}, ... (100 components)")
    # whole components only: the one that would pass 64 labels is not begun
    halves = parse_cycles("(" + " ".join(map(str, range(1, 41))) + ")", 80)
    with pytest.raises(DisconnectedError) as caught:
        Hypermap(halves, parse_cycles("(" + " ".join(map(str, range(41, 81))) + ")", 80))
    assert caught.value.components == (tuple(range(40)), tuple(range(40, 80)))
    first = " ".join(str(i + 1) for i in range(40))
    assert str(caught.value) == (
        f"hypermap is not connected; dart components: {{{first}}}, ... (2 components)")


def test_concurrent_first_reads_see_the_validated_orbits():
    h = square_torus(8)
    derived = [getattr(validated_dual(h), name) for name in ORBIT_FIELDS]
    constructed = [getattr(h, name) for name in ORBIT_FIELDS]
    builds = [(lambda: dual(h), derived), (lambda: Hypermap(h.alpha, h.sigma), constructed)]
    threads, seen = 8, []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for build, want in builds * 5:
            d = build()
            assert d._families is None
            barrier = threading.Barrier(threads)

            def read():
                barrier.wait(timeout=30)
                seen.append([getattr(d, name) for name in ORBIT_FIELDS])

            workers = [threading.Thread(target=read) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert list(d._families) == want
            assert all(values == want for values in seen[-threads:])
    finally:
        sys.setswitchinterval(switch)
    assert len(seen) == 2 * 5 * threads


def test_concurrent_first_reads_across_a_family_share_one_walk_table():
    square = square_torus(8)
    ops = (dual, lambda h: h, triangle_dual, contrary, nabla, lambda h: triangle_dual(dual(h)))
    wants = [[getattr(op(square), name) for name in ORBIT_FIELDS] for op in ops]
    threads, seen = 12, []  # more threads than maps, so two threads often read one map
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            h = Hypermap(square.alpha, square.sigma)
            family = [op(h) for op in ops]
            barrier = threading.Barrier(threads)

            def read(i):
                barrier.wait(timeout=30)
                seen.append((i, [getattr(family[i], name) for name in ORBIT_FIELDS]))

            workers = [threading.Thread(target=read, args=(i % len(ops),))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert all(m._walks is h._walks for m in family)
            assert len(h._walks) == 5  # six permutations, of which alpha = alpha^-1 on a map
    finally:
        sys.setswitchinterval(switch)
    assert len(seen) == 5 * threads
    assert all(values == wants[i] for i, values in seen)


def test_unread_derived_map_equals_hashes_and_copies_as_a_validated_build(torus8, corpus):
    for h in (torus8, *corpus[:50]):
        d, want = dual(h), validated_dual(h)
        assert d == want and want == d and hash(d) == hash(want)
        copies = [copy.copy(d), copy.deepcopy(d),
                  *(pickle.loads(pickle.dumps(d, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        assert d._families is None  # none of it read an orbit
        want_fields = [getattr(want, name) for name in ORBIT_FIELDS]
        for made in copies:
            assert type(made) is Hypermap and made == want and hash(made) == hash(want)
            assert made._families is None
            assert [getattr(made, name) for name in ORBIT_FIELDS] == want_fields
            assert made._families == want._families


def test_random_hypermap_deterministic():
    a = random_hypermap(8, seed=123)
    b = random_hypermap(8, seed=123)
    assert a == b
    assert random_hypermap(8, seed=124) != a  # single collision would be a miracle


def test_random_hypermap_single_dart():
    h = random_hypermap(1, seed=0)
    assert h.alpha == identity(1)
    assert h.sigma == identity(1)


@pytest.mark.parametrize("build", [lambda: random_hypermap(0, seed=1),
                                   lambda: random_hypermap(-2, seed=1),
                                   lambda: random_corpus(5, 0, seed=1)])
def test_random_maps_need_at_least_one_dart(build):
    with pytest.raises(ValueError, match="^need at least one dart$"):
        build()


def test_random_pairs_usually_transitive():
    rng = random.Random(5)
    hits = sum(
        is_transitive(random_permutation(8, rng), random_permutation(8, rng))
        for _ in range(1000)
    )
    assert hits / 1000 > 0.5


def test_default_special_darts(torus8):
    assert face_code(torus8).special == frozenset({0, 4})
    assert face_code(identity_hypermap(1)).special == frozenset({0})


def test_default_special_darts_cover_each_orbit(corpus):
    for h in corpus[:100]:
        for build, orbits in ((face_code, h.edges), (edge_code, h.faces)):
            s = build(h).special
            assert all(len(s.intersection(o)) == 1 for o in orbits)


def test_explicit_special_darts(torus8):
    assert face_code(torus8, [1, 4]).special == frozenset({1, 4})
    with pytest.raises(SpecialDartError):
        face_code(torus8, {1, 2})  # both on the same edge
    with pytest.raises(SpecialDartError):
        face_code(torus8, {1})  # second edge uncovered
    with pytest.raises(SpecialDartError):
        face_code(torus8, {1, 99})  # out of range


def test_per_edge_set_transfers_to_triangle_dual(corpus):
    for h in corpus[:100]:
        s = face_code(h).special
        assert edge_code(triangle_dual(h), s).special == s


def test_parse_hypermap_file():
    text = (
        "# an 8-dart example\n"
        "darts: 8\n"
        "alpha: (4 3 2 1)(5 7 8 6)\n"
        "sigma: (7 1 6 3)(5 2 8 4)\n"
        "special: 2 5\n"
    )
    h, special = parse_hypermap(text)
    assert h.n == 8
    assert special == frozenset({1, 4})
    assert format_cycles(h.alpha) == "(1 4 3 2)(5 7 8 6)"


def test_parse_hypermap_docstring_example_parses(torus8):
    _, _, block = parse_hypermap.__doc__.partition("::\n")
    lines = []
    for line in block.splitlines()[1:]:
        if not line.startswith("        "):
            break
        lines.append(line.strip())
    h, special = parse_hypermap("\n".join(lines) + "\n")
    assert h == torus8
    assert special == frozenset({1, 4})


def test_parse_hypermap_without_special():
    h, special = parse_hypermap("darts: 1\nalpha: ()\nsigma: ()\n")
    assert h.n == 1
    assert special is None


def test_format_hypermap_round_trip(corpus):
    for h in corpus[:50]:
        parsed, special = parse_hypermap(format_hypermap(h))
        assert parsed == h
        assert special is None


def test_format_hypermap_with_special(torus8):
    text = format_hypermap(torus8, special={1, 4})
    assert "special: 2 5" in text
    _, special = parse_hypermap(text)
    assert special == frozenset({1, 4})


def test_format_hypermap_keeps_an_empty_special_line(torus8):
    text = format_hypermap(torus8, special=frozenset())
    assert text.endswith("\nspecial: \n")
    assert parse_hypermap(text) == (torus8, frozenset())


@pytest.mark.parametrize("text,line", [
    ("alpha: ()\nsigma: ()\n", 1),                      # missing darts
    ("darts: 0\nalpha: ()\nsigma: ()\n", 1),            # bad count
    ("darts: 2\nalpha: (1 2\nsigma: ()\n", 2),          # unclosed cycle
    ("darts: 2\nalpha: (1 2)\nsigma: (1 1)\n", 3),      # duplicate label
    ("darts: 2\nalpha: (1 2)\nsigma: ()\nspecial: 3\n", 4),  # special out of range
    ("darts: 2\nalpha: (1 2)\nsigma: ()\nspecial: 1 1\n", 4),  # special repeated
    ("darts: 2\nnope: ()\nsigma: ()\n", 2),             # wrong key
])
def test_parse_hypermap_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_hypermap(text)
    assert err.value.line == line
    assert err.value.col >= 1


def test_special_line_of_every_dart_parses_in_linear_time():
    n = 20_000
    labels = " ".join(str(i) for i in range(1, n + 1))
    text = f"darts: {n}\nalpha: ()\nsigma: ({labels})\nspecial: {labels}\n"
    start = time.perf_counter()
    _, special = parse_hypermap(text)
    assert time.perf_counter() - start < 1.0
    assert special == frozenset(range(n))


def test_repeated_special_dart_names_its_line_and_column():
    text = "darts: 3\nalpha: (1 2 3)\nsigma: ()\nspecial: 3  1 03\n"
    with pytest.raises(ParseError) as err:
        parse_hypermap(text)
    assert (err.value.line, err.value.col, err.value.message) == (
        4, 15, "special dart 3 appears twice")


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_hypermap("darts: 4\nalpha: (1 5)\nsigma: ()\n")
    assert err.value.line == 2
    # column points at the '5' inside the alpha value
    assert err.value.col == 11


def test_corpus_is_deterministic():
    a = random_corpus(20, 6, seed=3)
    b = random_corpus(20, 6, seed=3)
    assert a == b


@pytest.mark.parametrize("text,line,col", [
    ("darts: ٣\nalpha: ()\nsigma: ()\n", 1, 8),            # Arabic-Indic three
    ("darts: ²\nalpha: ()\nsigma: ()\n", 1, 8),            # superscript two
    ("darts: 2\nalpha: (1 ٢)\nsigma: ()\n", 2, 11),        # cycle token
    ("darts: 2\nalpha: (1 2)\nsigma: ()\nspecial: ١\n", 4, 10),  # special dart
])
def test_parse_hypermap_accepts_ascii_digits_only(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_hypermap(text)
    assert (err.value.line, err.value.col) == (line, col)
