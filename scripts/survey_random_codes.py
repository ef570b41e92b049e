#!/usr/bin/env python3
"""Sample random hypermaps and tabulate their face-code parameters.

Useful for eyeballing how genus, qubit count, and distance move together
as the dart count grows.
"""

import argparse
from collections import Counter

from hypermap_codes import (
    distance,
    euler_characteristic,
    face_code,
    genus,
    random_corpus,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-darts", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=None,
                        help="distance search weight cap (default: exact)")
    args = parser.parse_args()

    print(f"{'darts':>5} {'V':>3} {'E':>3} {'F':>3} {'chi':>4} {'g':>2} "
          f"{'n':>3} {'k':>3} {'d':>4}")
    params = Counter()
    for h in random_corpus(args.trials, args.max_darts, args.seed):
        code = face_code(h)  # the minimum dart of each edge is special
        if code.k == 0:
            d_text = "-"
        else:
            # exact at any size: the cycle search is polynomial in n
            result = distance(code, budget=args.budget)
            d_text = str(result.d) if result.d is not None else f">{result.budget}"
        print(f"{h.n:>5} {len(h.vertices):>3} {len(h.edges):>3} {len(h.faces):>3} "
              f"{euler_characteristic(h):>4} {genus(h):>2} "
              f"{code.n:>3} {code.k:>3} {d_text:>4}")
        params[(code.n, code.k, d_text)] += 1

    print("\nmost common (n, k, d):")
    for (n, k, d_text), count in params.most_common(8):
        print(f"  [[{n},{k},{d_text}]] x{count}")


if __name__ == "__main__":
    main()
