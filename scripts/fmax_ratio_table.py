#!/usr/bin/env python3
"""Tabulate f(n), f_max(n) and the ratio f_max(n) / 2^{n/4} by residue class.

The ratio sequences stabilise per residue class mod 4; their limits exist
but are not reproducible at desk scale, so this script only reports the
finite values, cross-checking the branch route (the two-step count of f,
and for f_max the maximal independent sets of each seed's link graph that
block every lower element the seed leaves open) against the oracle, a
counting depth-first walk of every sum-free set, for every n <=
ORACLE_MAX_N.  Both routes run on --workers processes.  It exits 1,
naming the row, if the routes disagree or if some f_max(n) falls below the
Cameron-Erdos lower bound 2^{floor(n/4)}.

Usage: python scripts/fmax_ratio_table.py [--n-max 28] [--workers 4] [--csv]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict

from sumfree.census import ORACLE_MAX_N, branch_counts, oracle_counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=28)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args()

    rows = []
    by_residue: dict[int, list[float]] = defaultdict(list)
    for n in range(1, args.n_max + 1):
        t0 = time.perf_counter()
        f, fmax = branch_counts(n, workers=args.workers)
        elapsed = (time.perf_counter() - t0) * 1000
        if fmax < 2 ** (n // 4):
            print(f"n = {n}: f = {f}, f_max = {fmax} is below the Cameron-Erdos "
                  f"bound 2^{n // 4}", file=sys.stderr)
            return 1
        if n <= ORACLE_MAX_N and (f, fmax) != (want := oracle_counts(n, args.workers)):
            print(f"n = {n}: branch route gives {(f, fmax)}, oracle {want}",
                  file=sys.stderr)
            return 1
        ratio = fmax / 2 ** (n / 4)
        by_residue[n % 4].append(ratio)
        rows.append((n, n % 4, f, fmax, ratio, elapsed))

    if args.csv:
        print("n,residue_mod_4,f,f_max,ratio_fmax_over_2_pow_n_quarter,elapsed_ms")
        for n, r, f, fmax, ratio, ms in rows:
            print(f"{n},{r},{f},{fmax},{ratio:.6f},{ms:.1f}")
    else:
        print(f"{'n':>4} {'mod4':>4} {'f':>12} {'f_max':>10} {'f_max/2^(n/4)':>14}")
        for n, r, f, fmax, ratio, _ in rows:
            print(f"{n:>4} {r:>4} {f:>12} {fmax:>10} {ratio:>14.6f}")
        print("\nlast ratio per residue class:")
        for r in sorted(by_residue):
            print(f"  n = {r} mod 4: {by_residue[r][-1]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
