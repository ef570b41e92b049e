"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  The random corpus is fixed-seed, so every run checks the
same instances.
"""

import random
import time
from contextlib import contextmanager

from hypermap_codes import (
    compose,
    contrary,
    distance,
    dual,
    edge_code,
    euler_characteristic,
    export_json,
    export_walsh_dot,
    face_code,
    format_cycles,
    full_code,
    inverse,
    nabla,
    parse_json,
    reduce_to_surface,
    run_verification,
    stabilizer_strings,
    triangle_dual,
    validate_surface,
)
from slow_paths import (
    BitMatrix, as_partition, boundary1, boundary2, from_strings, hx, hz, in_row_space,
    incidence21, is_zero, kernel_basis, mat_vec, multiply, rank, same_orbits)

HX_ROWS = ["111111", "111111"]
HZ_ROWS = ["100001", "111010", "010111", "001100"]
GENERATORS = [
    "X_v1 = X1 X3 X4 X6 X7 X8",
    "X_v2 = X1 X3 X4 X6 X7 X8",
    "Z_f1 = Z1 Z8",
    "Z_f2 = Z1 Z3 Z4 Z7",
    "Z_f3 = Z3 Z6 Z7 Z8",
    "Z_f4 = Z4 Z6",
]


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_worked_example_reproduction(torus8):
    with criterion("1 worked-example reproduction"):
        start = time.perf_counter()
        faces = compose(inverse(torus8.alpha), torus8.sigma)
        assert format_cycles(faces) == "(1 8)(2 7)(3 5)(4 6)"
        assert as_partition(torus8.faces) == as_partition(((0, 7), (1, 6), (2, 4), (3, 5)))
        code = face_code(torus8, {1, 4})
        assert hx(code) == from_strings(HX_ROWS)
        assert hz(code) == from_strings(HZ_ROWS)
        assert stabilizer_strings(code) == GENERATORS
        assert code.k == 2
        assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_example_distance(torus8):
    with criterion("2 worked-example distance"):
        start = time.perf_counter()
        code = face_code(torus8, {1, 4})

        def oracle(check, other):
            best = None
            for v in range(1, 1 << code.n):
                if mat_vec(check, v) == 0 and not in_row_space(other, v):
                    w = v.bit_count()
                    best = w if best is None or w < best else best
            return best

        assert oracle(hz(code), hx(code)) == 2
        assert oracle(hx(code), hz(code)) == 2
        result = distance(code)
        assert (result.dx, result.dz, result.d) == (2, 2, 2)
        assert result.exact
        assert time.perf_counter() - start < 1.0


def test_criterion_3_involution_and_identity_suite(corpus):
    with criterion("3 involution/identity suite (500 hypermaps)"):
        start = time.perf_counter()
        assert len(corpus) >= 500
        assert all(1 <= h.n <= 10 for h in corpus)
        for h in corpus:
            assert dual(dual(h)) == h
            assert triangle_dual(triangle_dual(h)) == h
            t = triangle_dual(h)
            assert as_partition(t.faces) == as_partition(h.edges)
            assert as_partition(t.edges) == as_partition(h.faces)
            nb, d = nabla(h), dual(h)
            assert as_partition(nb.edges) == as_partition(d.faces)
            assert as_partition(nb.faces) == as_partition(d.edges)
            assert same_orbits(nb, triangle_dual(d))
        assert time.perf_counter() - start < 30.0


def test_criterion_4_code_equality(corpus):
    with criterion("4 face/edge code equality across duals"):
        for h in corpus:
            fc = face_code(h)
            s = fc.special
            ec = edge_code(triangle_dual(h), s)
            assert (fc.ends, fc.sides) == (ec.ends, ec.sides)
            assert boundary1(fc) == boundary1(ec)
            assert boundary2(fc) == boundary2(ec)
            fc2 = face_code(dual(h), s)
            ec2 = edge_code(contrary(triangle_dual(h)), s)
            assert (fc2.ends, fc2.sides) == (ec2.ends, ec2.sides)
            assert boundary1(fc2) == boundary1(ec2)
            assert boundary2(fc2) == boundary2(ec2)


def test_criterion_5_topology_consistency(corpus):
    with criterion("5 homology/topology consistency"):
        for h in corpus:
            chi = euler_characteristic(h)
            assert chi % 2 == 0
            k = face_code(h).k
            assert k == 2 - chi
            assert full_code(h).k == k + len(h.edges) - 1
            complex_ = reduce_to_surface(h, face_code(h))
            assert all(sum(row) == 2 for row in incidence21(complex_))
            assert complex_.euler_characteristic == chi
            assert validate_surface(complex_, face_code(h)).passed


def test_criterion_6_chain_conditions(corpus):
    with criterion("6 chain conditions"):
        for h in corpus:
            # the full code is the raw complex: its ends are d1, its sides d2
            iota = BitMatrix(h.n, len(h.edges), tuple(1 << e for e in h.edge_index))
            assert is_zero(multiply(boundary1(full_code(h)), iota))
            for q in (face_code(h),
                      edge_code(h),
                      full_code(h)):
                assert is_zero(multiply(boundary1(q), boundary2(q)))


def test_criterion_7_gf2_oracle_equivalence():
    with criterion("7 GF(2) oracle equivalence (200 matrices)"):
        rng = random.Random(2024)
        for _ in range(200):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 12)
            m = BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))

            kernel = {v for v in range(1 << cols) if mat_vec(m, v) == 0}
            assert (1 << (cols - rank(m))) == len(kernel)

            basis = kernel_basis(m)
            spanned = set()
            for mask in range(1 << basis.rows):
                v = 0
                for i in range(basis.rows):
                    if (mask >> i) & 1:
                        v ^= basis.bits[i]
                spanned.add(v)
            assert spanned == kernel

            row_span = set()
            for mask in range(1 << rows):
                v = 0
                for i in range(rows):
                    if (mask >> i) & 1:
                        v ^= m.bits[i]
                row_span.add(v)
            for _ in range(5):
                v = rng.randrange(1 << cols)
                assert in_row_space(m, v) == (v in row_span)


def test_criterion_8_cli_determinism_and_round_trip(corpus):
    with criterion("8 CLI determinism and JSON round-trip"):
        first = run_verification(trials=60, max_darts=9, seed=7)
        second = run_verification(trials=60, max_darts=9, seed=7)
        assert first.passed
        assert first.render() == second.render()
        for h in corpus[:40]:
            assert export_walsh_dot(h) == export_walsh_dot(h)
            assert parse_json(export_json(h)) == h
            code = face_code(h)
            assert export_json(code) == export_json(code)
            assert parse_json(export_json(code)) == code
            complex_ = reduce_to_surface(h, face_code(h))
            assert parse_json(export_json(complex_)) == complex_
