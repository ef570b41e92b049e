"""The check-pair functions of ``gf2`` against the dense GF(2) oracles of
``slow_paths``, and those oracles against plain enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hypermap_codes import gf2
from slow_paths import (
    BitMatrix, echelon_form, from_strings, in_row_space, is_zero, kernel_basis, mat_vec, multiply,
    pair_matrix, rank, render, to_strings, transpose)
from test_fast_paths import _random_pairs

# Check matrices of the 8-dart torus face code, used as fixed fixtures.
HX = from_strings(["111111", "111111"])
HZ = from_strings(["100001", "111010", "010111", "001100"])


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, (0,) * rows)


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    bits = tuple(draw(st.integers(0, (1 << c) - 1)) for _ in range(r))
    return BitMatrix(r, c, bits)


def int_matrix(m: BitMatrix) -> list[list[int]]:
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def int_product_mod2(a, b):
    # Oracle: plain integer matrix product reduced mod 2.
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) % 2 for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def kernel_vectors(m: BitMatrix) -> set[int]:
    # Oracle: enumerate all 2^cols vectors.
    return {v for v in range(1 << m.cols) if mat_vec(m, v) == 0}


def span(rows, count) -> set[int]:
    # Oracle: all subset sums of the rows.
    out = set()
    for mask in range(1 << count):
        v = 0
        for i in range(count):
            if (mask >> i) & 1:
                v ^= rows[i]
        out.add(v)
    return out


def test_multiply_chain_condition():
    # boundary1 * boundary2 of the torus face code vanishes.
    assert is_zero(multiply(HX, transpose(HZ)))


def test_multiply_identity():
    assert multiply(identity(4), HZ) == HZ
    assert multiply(HZ, identity(6)) == HZ


def test_multiply_shapes():
    assert multiply(zeros(3, 5), zeros(5, 2)) == zeros(3, 2)


def test_multiply_against_integer_oracle():
    rng = random.Random(42)
    for _ in range(50):
        a = BitMatrix(6, 5, tuple(rng.randrange(1 << 5) for _ in range(6)))
        b = BitMatrix(5, 7, tuple(rng.randrange(1 << 7) for _ in range(5)))
        assert int_matrix(multiply(a, b)) == int_product_mod2(int_matrix(a), int_matrix(b))


def test_rank_of_check_matrices():
    assert rank(HX) == 1
    assert rank(HZ) == 3


def test_rank_zero_matrix():
    assert rank(zeros(3, 4)) == 0


@given(bit_matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))


@given(bit_matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).rows == m.cols


@given(bit_matrices())
def test_row_reduce_idempotent(m):
    reduced = echelon_form(m)[0]
    assert echelon_form(reduced)[0] == reduced


def test_kernel_of_all_ones_rows():
    # ker of the 2x6 all-ones matrix is the even-weight subspace, dim 5.
    basis = kernel_basis(HX)
    assert basis.rows == 5
    assert rank(basis) == 5
    assert all(row.bit_count() % 2 == 0 for row in basis.bits)


def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(4)).rows == 0


@settings(max_examples=60)
@given(bit_matrices(max_rows=6, max_cols=10))
def test_kernel_basis_matches_enumeration(m):
    basis = kernel_basis(m)
    assert span(basis.bits, basis.rows) == kernel_vectors(m)


def test_kernel_basis_deterministic():
    rng = random.Random(9)
    for _ in range(20):
        m = BitMatrix(4, 9, tuple(rng.randrange(1 << 9) for _ in range(4)))
        assert kernel_basis(m) == kernel_basis(m)


def test_in_row_space_of_hz():
    first_row = HZ.bits[0]
    assert in_row_space(HZ, first_row)
    assert in_row_space(HZ, 0)
    assert not in_row_space(HZ, HZ.bits[0] ^ 1)


@settings(max_examples=60)
@given(bit_matrices(max_rows=8, max_cols=10), st.integers(0, (1 << 10) - 1))
def test_in_row_space_matches_subset_sums(m, v):
    v &= (1 << m.cols) - 1
    assert in_row_space(m, v) == (v in span(m.bits, m.rows))


def test_render_round_trip():
    assert to_strings(HZ) == ["100001", "111010", "010111", "001100"]
    assert render(HZ) == "100001\n111010\n010111\n001100"
    assert from_strings(to_strings(HZ)) == HZ
    assert from_strings(["10", "01"]) == identity(2)


@pytest.mark.parametrize("rows,cols,bits", [
    (0, -3, ()),       # negative column count
    (1, -3, (0,)),     # negative column count, once a shift error
    (-1, 2, ()),       # negative row count
    (1.0, 2, (1,)),    # float row count
    (1, 2.0, (1,)),    # float column count
    (1, True, (1,)),   # bool column count
    (1, 2, (1.0,)),    # float row mask, once a TypeError
    (1, 2, (True,)),   # bool row mask
])
def test_bitmatrix_refuses_bad_shapes_and_masks(rows, cols, bits):
    with pytest.raises(ValueError):
        BitMatrix(rows, cols, bits)


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (0,))  # wrong row count
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))  # bit outside columns
    with pytest.raises(ValueError):
        from_strings(["012"])


def test_read_rows_inverts_dense_rows():
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        checks, qubits = rng.randint(0, 5), rng.randint(0, 9)
        pairs = _random_pairs(rng, checks, qubits)
        assert gf2.read_rows(list(gf2.dense_rows(pairs, checks)), qubits, "m") == pairs
        # a qubit in two checks (a, b), in one (a, none), or in none (none, none)
        seen.update(("two", "one", "none")[(a == checks) + (b == checks)] for a, b in pairs)
    assert seen == {"two", "one", "none"}


def test_rows_group_items_by_check_in_qubit_order():
    # check 3 is the padding: qubit "c" is in no check, "b" and "e" in one
    pairs = ((0, 2), (1, 3), (3, 3), (0, 1), (2, 3))
    assert gf2.rows(pairs, 3, "abcde") == [["a", "d"], ["b", "d"], ["a", "e"]]
    assert gf2.rows((), 2, []) == [[], []]
    rng = random.Random(35)
    for _ in range(500):
        checks, qubits = rng.randint(0, 5), rng.randint(0, 9)
        pairs = _random_pairs(rng, checks, qubits)
        assert gf2.rows(pairs, checks, range(qubits)) == \
            [[j for j, pair in enumerate(pairs) if i in pair] for i in range(checks)]


def test_rank_matches_gauss_jordan_rank():
    rng = random.Random(24)
    for _ in range(3000):
        checks, qubits = rng.randint(0, 6), rng.randint(0, 12)
        pairs = _random_pairs(rng, checks, qubits)
        assert gf2.forest(pairs, checks).count(1) == rank(pair_matrix(pairs, checks)), pairs
