import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermap_codes import (
    CycleParseError,
    Permutation,
    compose,
    connected_components,
    cycle_decomposition,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    parse_cycles,
    random_permutation,
)
from hypermap_codes import perm
import slow_paths
from slow_paths import as_partition


@st.composite
def permutations(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    return Permutation(tuple(draw(st.permutations(range(n)))))


@st.composite
def permutation_pairs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    p = Permutation(tuple(draw(st.permutations(range(n)))))
    q = Permutation(tuple(draw(st.permutations(range(n)))))
    return p, q


def naive_compose(p: Permutation, q: Permutation) -> Permutation:
    # Independent oracle: evaluate q(p(i)) one entry at a time.
    out = []
    for i in range(p.degree):
        j = p.images[i]
        out.append(q.images[j])
    return Permutation(tuple(out))


def bfs_reachable(p: Permutation, q: Permutation) -> bool:
    # Oracle: BFS from 0 over the functional graph of p, p^-1, q, q^-1.
    moves = [p, inverse(p), q, inverse(q)]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for m in moves:
            j = m(i)
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == p.degree


ALPHA = parse_cycles("(4 3 2 1)(5 7 8 6)", 8)
SIGMA = parse_cycles("(7 1 6 3)(5 2 8 4)", 8)


def test_compose_is_left_to_right():
    faces = compose(inverse(ALPHA), SIGMA)
    assert faces == parse_cycles("(1 8)(2 7)(3 5)(4 6)", 8)


def test_compose_identity():
    assert compose(identity(8), SIGMA) == SIGMA
    assert compose(SIGMA, identity(8)) == SIGMA


def test_compose_against_naive_oracle():
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randint(1, 12)
        p = random_permutation(n, rng)
        q = random_permutation(n, rng)
        assert compose(p, q) == naive_compose(p, q)
        assert compose(p, inverse(p)) == identity(n)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse_of_alpha_fragment():
    # alpha sends 2 -> 1, so the inverse sends 1 -> 2 (0-based: 0 -> 1).
    assert inverse(ALPHA)(0) == 1


def test_inverse_identity():
    assert inverse(identity(5)) == identity(5)


@given(permutations())
def test_inverse_is_involution(p):
    assert inverse(inverse(p)) == p
    assert compose(p, inverse(p)) == identity(p.degree)


@st.composite
def permutation_triples(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    return tuple(Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(3))


@given(permutation_triples())
def test_compose_associative(pqr):
    p, q, r = pqr
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_cycle_decomposition_of_faces():
    faces = compose(inverse(ALPHA), SIGMA)
    assert cycle_decomposition(faces) == ((0, 7), (1, 6), (2, 4), (3, 5))


def test_cycle_decomposition_identity():
    assert cycle_decomposition(identity(3)) == ((0,), (1,), (2,))


@given(permutations())
def test_cycles_reproduce_images(p):
    cycles = cycle_decomposition(p)
    images = [None] * p.degree
    for cycle in cycles:
        for i, a in enumerate(cycle):
            images[a] = cycle[(i + 1) % len(cycle)]
    assert tuple(images) == p.images
    # canonical form: min-first cycles, sorted by minimum
    assert all(c[0] == min(c) for c in cycles)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


@given(permutations())
def test_cycle_decomposition_deterministic(p):
    assert cycle_decomposition(p) == cycle_decomposition(p)


def test_is_transitive_on_hypermap_pair():
    assert is_transitive(ALPHA, SIGMA)


def test_is_transitive_rejects_fixed_points():
    assert not is_transitive(identity(2), identity(2))
    assert connected_components(identity(2), identity(2)) == ((0,), (1,))


@given(permutation_pairs())
def test_is_transitive_matches_bfs(pq):
    p, q = pq
    assert is_transitive(p, q) == bfs_reachable(p, q)


@given(permutation_pairs())
def test_is_transitive_symmetries(pq):
    p, q = pq
    expected = is_transitive(p, q)
    assert is_transitive(q, p) == expected
    assert is_transitive(inverse(p), q) == expected
    assert is_transitive(p, inverse(q)) == expected


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("images", [(1.0, 0.0), (True, False), (0, 2.0, 1), ("b", "a")])
def test_permutation_refuses_images_that_are_not_ints(images):
    with pytest.raises(ValueError, match="not all integers"):
        Permutation(images)


def test_parse_cycles_round_trip():
    assert format_cycles(ALPHA) == "(1 4 3 2)(5 7 8 6)"
    assert parse_cycles(format_cycles(ALPHA), 8) == ALPHA


def test_parse_cycles_fixed_points():
    p = parse_cycles("(2 3)", 5)
    assert p.images == (0, 2, 1, 3, 4)
    assert format_cycles(identity(4)) == "()"
    assert parse_cycles("()", 4) == identity(4)
    assert parse_cycles("   ", 4) == identity(4)


def test_parse_cycles_duplicate_label():
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1 2)(2 3)", 4)
    assert "appears twice" in str(err.value)
    assert err.value.col == 7


def test_parse_cycles_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 9)", 4)  # out of range
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2", 4)  # unclosed
    with pytest.raises(CycleParseError):
        parse_cycles("1 2", 4)  # missing parens
    with pytest.raises(CycleParseError):
        parse_cycles("(1 x)", 4)  # not a label


@given(permutations())
def test_format_parse_round_trip(p):
    assert parse_cycles(format_cycles(p), p.degree) == p


@given(permutations())
def test_partition_ignores_cyclic_order(p):
    cycles = cycle_decomposition(p)
    rotated = tuple(c[1:] + c[:1] for c in cycles)
    assert as_partition(cycles) == as_partition(rotated)


def test_parse_cycles_rejects_non_ascii_digits():
    for token in ("٣", "²", "1٠"):
        with pytest.raises(CycleParseError) as err:
            parse_cycles(f"(1 {token})", 20)
        assert err.value.col == 4


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_the_shape_table_drops_exactly_the_str_isspace_characters():
    """``_SHAPE`` writes the 29 ``str.isspace`` characters out by hand: this pins
    them, and the ASCII digits it reads as 1, to what ``str`` says."""
    assert len(_WHITESPACE) == 29
    assert {chr(c) for c, image in perm._SHAPE.items() if image is None} == set(_WHITESPACE)
    assert {chr(c): chr(image) for c, image in perm._SHAPE.items() if image is not None} \
        == {digit: "1" for digit in "0123456789"}


def _read(parse, text, degree):
    """The images ``parse`` reads, or its error's type, message and column."""
    try:
        return parse(text, degree).images
    except CycleParseError as exc:
        return CycleParseError, str(exc), exc.col


_SPACE = st.sampled_from(["\r\n", *_WHITESPACE])
# a piece of cycle text: as often as not a space of some kind
_CYCLE_PIECES = st.one_of(
    st.sampled_from(["(", ")", "1", "2", "3", "9", "0", "12", "٣", "１", "+", "-", "_", "\0"]),
    _SPACE)


@st.composite
def _near_grammar_texts(draw):
    """Text of the grammar, spaces of every kind around its labels and cycles,
    and half the time one more piece put in anywhere."""
    def spaces(least):
        return "".join(draw(st.lists(_SPACE, min_size=least, max_size=2)))

    parts = [spaces(0)]
    for _ in range(draw(st.integers(0, 3))):
        labels = draw(st.lists(st.sampled_from(["1", "2", "3", "9", "0", "12", "007"]),
                               max_size=4))
        parts += ["(", spaces(0), *[label + spaces(1) for label in labels], ")", spaces(0)]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(_CYCLE_PIECES))
    return "".join(parts)


@settings(max_examples=500)
@given(st.one_of(st.lists(_CYCLE_PIECES, max_size=24).map("".join), _near_grammar_texts()),
       st.integers(1, 12))
@example("1 (2)", 4)  # a label before the first cycle
@example("(1)\n2", 4)  # a label after a cycle
@example("(1)(", 4)  # a cycle left open
@example(")(1", 4)  # a close before any open
@example("((1))", 4)  # nested cycles
@example("(1 2\x1c3)(\x85)", 4)  # spaces that str.split takes too
def test_parse_cycles_reads_the_grammar_and_names_the_walkers_first_error(text, degree):
    """Text the grammar oracle refuses raises the walker's error; text it
    accepts reads as the walker reads it, to a permutation or a range or
    repeat error."""
    read = _read(parse_cycles, text, degree)
    assert read == _read(slow_paths.parse_cycles, text, degree)
    if not slow_paths.CYCLE_TEXT.fullmatch(text):
        assert read[0] is CycleParseError
