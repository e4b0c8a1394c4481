#!/usr/bin/env python3
"""Trace the even-link sums: sum over even x of MIS(L_x[odds of n]).

Per residue class mod 4 the ratio to 2^{n/4} settles toward a constant
(3, 3*2^{-1/4}, 2^{3/2}, 2^{5/4} for residues 0, 1, 2, 3); the restricted
sum over x > 2n/3 obeys an exact per-term closed form and approaches the
full geometric value 3 * 2^{n/4} - 3 from below.

Usage: python scripts/even_link_constants.py [--n-max 36]
"""

from __future__ import annotations

import argparse
import sys

from sumfree.census import EVEN_LINK_LIMITS, dprime_sum


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=36)
    args = ap.parse_args()

    print(
        f"{'n':>4} {'mod4':>4} {'total':>10} {'restricted':>10}"
        f" {'geom':>10} {'ratio':>9} {'limit':>7} {'dev*2^(n/12)':>12}"
    )
    for n in range(8, args.n_max + 1):
        sums = dprime_sum(n)
        ratio = sums.ratio()
        limit = EVEN_LINK_LIMITS[n % 4]
        dev = abs(ratio - limit) * 2 ** (n / 12)
        print(
            f"{n:>4} {n % 4:>4} {sums.total:>10} {sums.restricted:>10}"
            f" {sums.geometric_closed_form:>10} {ratio:>9.4f} {limit:>7.4f}"
            f" {dev:>12.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
