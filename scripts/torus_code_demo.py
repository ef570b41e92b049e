#!/usr/bin/env python3
"""End-to-end walkthrough on the 8-dart genus-1 hypermap.

Builds the face code, checks it against the edge code of the triangle
dual, reduces to the surface-code cell complex, and computes the exact
distance.
"""

from hypermap_codes import (
    Hypermap,
    dense_rows,
    distance,
    edge_code,
    euler_characteristic,
    face_code,
    format_cycles,
    genus,
    parse_cycles,
    reduce_to_surface,
    stabilizer_strings,
    triangle_dual,
    validate_surface,
)


def main() -> None:
    alpha = parse_cycles("(4 3 2 1)(5 7 8 6)", 8)
    sigma = parse_cycles("(7 1 6 3)(5 2 8 4)", 8)
    h = Hypermap(alpha, sigma)

    print(f"hypermap: alpha={format_cycles(h.alpha)} sigma={format_cycles(h.sigma)}")
    print(f"orbits: {len(h.vertices)} vertices, {len(h.edges)} edges, {len(h.faces)} faces")
    print(f"surface: chi={euler_characteristic(h)}, genus={genus(h)}")

    s = {1, 4}  # one special dart per edge: darts 2 and 5, 1-based
    face = face_code(h, s)  # built once: the code, the reduction and its validation share it
    print(f"\nface code: n={face.n}, k={face.k}")
    print("H_X:\n" + "\n".join(dense_rows(face.ends, len(face.x_labels))))
    print("H_Z:\n" + "\n".join(dense_rows(face.sides, len(face.z_labels))))
    for line in stabilizer_strings(face):
        print(line)

    result = distance(face)
    print(f"\ndistance: d_X={result.dx}, d_Z={result.dz}, d={result.d}")

    # the same set picks one dart per face of the triangle dual
    twin = edge_code(triangle_dual(h), s)
    print(f"edge code of the triangle dual matches: "
          f"{(twin.ends, twin.sides) == (face.ends, face.sides)}")

    complex_ = reduce_to_surface(h, face)
    report = validate_surface(complex_, face)
    print(f"\nsurface reduction: {len(complex_.zero_cells)}/{len(complex_.one_cells)}/"
          f"{len(complex_.two_cells)} cells, chi={complex_.euler_characteristic}")
    print(f"surface validation: {'PASS' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
