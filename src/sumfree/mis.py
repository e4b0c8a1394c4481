"""Exact counting and enumeration of maximal independent sets (MIS), and
the count of all independent sets that the two-step count of f(n) sums.

The recursions take raw neighbour masks `nbr` and a vertex mask `free`: a
loop vertex never joins an independent set and never blocks the maximality
of the others beyond its ordinary edges, so it is left out of `free`.  A
`Graph` gives its index masks and `~loops_mask`; the census passes the
element-space masks of `linkgraph.link_masks` as they are.

The recursion is the classic candidates/excluded scheme: the number of
maximal independent sets extending the current choice depends only on the
pair (candidates, excluded), so a plain count is memoised on that pair and
taken per connected component of `free` (an index mask, not a rebuilt
subgraph), the results multiplied.  The Tomita-Tanaka-Takahashi pivot
branches over a closed neighbourhood, which keeps the branch factor at
degree + 1 on the sparse structured graphs this package produces.

The recursion also carries the chosen set, so it can count or list only
the sets that meet a cover (see `count_covering_mis`), dropping a branch
once no set below it can.  Listing refuses past its cap (unless the
3^{n/3} bound already keeps it under) and appends the chosen set at each
maximal leaf of the unmemoised recursion.  `enumerate_mis` returns label tuples in
canonical order (lexicographic on sorted vertex labels).

`_search` and its compiled twin `kernel.mis_search` take the same
arguments and give the same counts, and the same sets in the same order.
Every count and listing here runs the twin when the kernel loads and the
problem fits (64 bits of `free`, 64 pairs), and `_search` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graph import (
    Graph,
    _bits,
    component_masks,
    cycle,
    degree_stats,
    disjoint_p3_packing,
    is_triangle_free,
)


class EnumerationLimitError(RuntimeError):
    """Raised when an exact computation would exceed its configured cap."""


# loop-free vertices counted or listed.  Past the kernel's 64 the count runs
# in Python's _search: at 80, path and cycle count in 2 ms, but a random
# graph with edge chance 0.1 took 15.7 s (10905819 sets) and one with 0.3
# took 0.49 s, on a 2-core Intel Xeon, Python 3.11.7
_VERTEX_LIMIT = 80


def check_vertex_limit(vertices: int) -> None:
    """Refuse a count or listing over more than _VERTEX_LIMIT loop-free vertices."""
    if vertices > _VERTEX_LIMIT:
        raise EnumerationLimitError(
            f"{vertices} loop-free vertices exceeds the limit {_VERTEX_LIMIT}")


def count_mis(g: Graph) -> int:
    """Exact number of maximal independent sets of `g`."""
    return count_covering_mis(g.nbr, ((1 << g.num_vertices) - 1) & ~g.loops_mask)


def count_covering_mis(nbr: Sequence[int], free: int,
                       cover: Sequence[tuple[int, int]] = ()) -> int:
    """Number of maximal independent sets I of `nbr` on the vertex mask `free`
    with I & hit or I & I >> shift for each (shift, hit) in `cover`."""
    check_vertex_limit(free.bit_count())
    return _mis(nbr, free, cover, None)


def mis_masks(nbr: Sequence[int], free: int, cover: Sequence[tuple[int, int]] = (),
              cap: int = 1_000_000) -> list[int]:
    """The maximal independent sets of the graph `nbr` restricted to the
    vertex mask `free` that meet `cover` (as in `count_covering_mis`), as
    vertex masks in no set order.  Raises before listing if there are more
    than `cap`, so memory stays bounded by the output."""
    # Moon-Moser: a simple graph on n vertices has at most 3^{n/3} of them
    if 3 ** free.bit_count() > cap**3 and count_covering_mis(nbr, free, cover) > cap:
        raise EnumerationLimitError(f"more than {cap} maximal independent sets")
    sets: list[int] = []
    _mis(nbr, free, cover, sets)
    return sets


def _mis(nbr: Sequence[int], free: int, cover: Sequence[tuple[int, int]],
         out: Optional[list[int]]) -> int:
    """`kernel.mis_search`, or `_search` where the kernel does not load or fit."""
    from . import kernel
    count = kernel.mis_search(nbr, free, cover, out)
    return _search(nbr, free, cover, out) if count is None else count


def enumerate_mis(g: Graph, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """All maximal independent sets, as sorted label tuples in canonical
    (lexicographic) order; `mis_masks` with its cap, relabelled."""
    sets = mis_masks(g.nbr, ((1 << g.num_vertices) - 1) & ~g.loops_mask, cap=cap)
    return sorted(tuple(sorted(g.labels[i] for i in _bits(m))) for m in sets)


def count_independent(nbr: Sequence[int], free: int) -> int:
    """Number of independent sets of the graph `nbr` inside the vertex mask
    `free`, the empty set included."""
    return _independent(free, nbr, {0: 1})


def _independent(c: int, nbr: Sequence[int], memo: dict[int, int]) -> int:
    """i(c) = i(c - v) + i(c minus N[v]) for the lowest vertex v of the
    mask c, memoised on c.  Module level, not a closure over the memo, so
    no reference cycle keeps a finished memo alive until the next GC."""
    hit = memo.get(c)
    if hit is None:
        low = c & -c
        rest = c ^ low
        near = rest & nbr[low.bit_length() - 1]
        hit = memo[c] = (
            _independent(rest, nbr, memo) + _independent(rest ^ near, nbr, memo)
            if near else 2 * _independent(rest, nbr, memo)
        )
    return hit


def _search(nbr: Sequence[int], free: int, cover: Sequence[tuple[int, int]] = (),
            out: Optional[list[int]] = None) -> int:
    """The number of maximal independent sets of `nbr` inside `free` that
    meet `cover`, each appended to `out` if given: rec(free, 0, 0), where
    rec(cand, excl, chosen) counts those that add vertices of cand to
    chosen and dominate excl.  They lie in reach = chosen | cand, so a
    branch whose reach fails a pair counts 0 (at a leaf, reach is the set).
    A plain count (no pair, no listing) depends on (cand, excl) only: it is
    memoised on that pair and multiplied over the components of `free`.
    The branches are the candidates in N[pivot], the vertex of cand | excl
    with the fewest neighbours in cand (the lowest on ties: one order)."""
    memo = None if cover or out is not None else {}

    def rec(cand: int, excl: int, chosen: int) -> int:
        if cover:
            reach = chosen | cand
            for shift, hit in cover:
                if not (reach & hit or reach & reach >> shift):
                    return 0
        if cand == 0:
            if out is not None and not excl:
                out.append(chosen)
            return 0 if excl else 1
        if memo is not None:
            key = (cand, excl)
            if key in memo:
                return memo[key]
        best = -1
        mm = cand | excl
        while mm:
            low = mm & -mm
            mm ^= low
            k = (cand & nbr[low.bit_length() - 1]).bit_count()
            if best < 0 or k < best:
                pivot, best = low, k
                if not k:
                    break
        branch = cand & (nbr[pivot.bit_length() - 1] | pivot)
        total = 0
        c, x = cand, excl
        while branch:
            low = branch & -branch
            branch ^= low
            near = nbr[low.bit_length() - 1]
            total += rec(c & ~near & ~low, x & ~near, chosen | low)
            c &= ~low
            x |= low
        if memo is not None:
            memo[key] = total
        return total

    roots = [free] if memo is None else component_masks(nbr, free)
    total = math.prod(rec(root, 0, 0) for root in roots)
    # rec reaches itself through its closure cell: emptying the cell frees it
    # and its memo on return, not at the next cyclic GC
    del rec
    return total


_CYCLE_BASE: dict[int, int] = {}


def mis_cycle(m: int) -> int:
    """MIS count of the m-cycle via the recurrence
    MIS(C_m) = MIS(C_{m-2}) + MIS(C_{m-3}), with brute-forced base cases."""
    if m < 3:
        raise ValueError("cycles need m >= 3")
    if not _CYCLE_BASE:
        for base in (3, 4, 5):
            _CYCLE_BASE[base] = count_mis(cycle(base))
    vals = dict(_CYCLE_BASE)
    for k in range(6, m + 1):
        vals[k] = vals[k - 2] + vals[k - 3]
    return vals[m]


@dataclass(frozen=True)
class BoundCheck:
    name: str
    applicable: bool
    bound_log2: Optional[float]
    holds: Optional[bool]


@dataclass(frozen=True)
class BoundCertificates:
    exact: int
    checks: tuple[BoundCheck, ...]


def _leq_power(count: int, base: int, expo: Fraction) -> bool:
    """count <= base**expo (integer base >= 2), exactly: for expo = num/den,
    A <= B with A = den log2(count), B = num log2(base).  Float factors are
    within relative 2^-52 (log2 within an ulp), each product rounds once
    more, so the float B - A is off by under 2^-49 (A + |B|).  Floats decide
    past 2^-30 (A + |B| + 1); nearer, as at matching(k)'s 2^k, integers do."""
    if count <= 0:
        return True
    num, den = expo.numerator, expo.denominator
    lhs, rhs = den * math.log2(count), num * math.log2(base)
    if abs(rhs - lhs) > 2**-30 * (lhs + abs(rhs) + 1):
        return lhs < rhs
    if num < 0:
        return count**den * base ** (-num) <= 1
    return count**den <= base**num


def bound_certificates(g: Graph, p3_exact_limit: int = 30) -> BoundCertificates:
    """Evaluate every applicable MIS upper bound against the exact count.

    Covered: the 3^{n/3} bound for simple graphs, the 2^{n/2} bound for
    triangle-free graphs, its refinement for dense triangle-free graphs, the
    removal variant for almost triangle-free graphs, the almost-regular
    bound, the disjoint-path refinement, and loop monotonicity (erasing
    loops never decreases the count).
    """
    exact = count_mis(g)
    n = g.num_vertices
    checks: list[BoundCheck] = []
    simple = g.loops_mask == 0
    tfree = is_triangle_free(g)
    delta, big_delta, e = degree_stats(g)

    if simple:
        holds = _leq_power(exact, 3, Fraction(n, 3))
        checks.append(BoundCheck("moon-moser", True, n / 3 * math.log2(3), holds))
    else:
        checks.append(BoundCheck("moon-moser", False, None, None))

    if tfree:
        holds = _leq_power(exact, 2, Fraction(n, 2))
        checks.append(BoundCheck("triangle-free-half", True, n / 2, holds))
    else:
        checks.append(BoundCheck("triangle-free-half", False, None, None))

    # dense refinement: D = max degree, k = e - n/2, bound 2^{n/2 - k/(100 D^2)}
    if simple and tfree and big_delta >= 1:
        k = Fraction(2 * e - n, 2)
        expo = Fraction(n, 2) - k / (100 * big_delta * big_delta)
        checks.append(
            BoundCheck("dense-triangle-free", True, float(expo), _leq_power(exact, 2, expo))
        )
    else:
        checks.append(BoundCheck("dense-triangle-free", False, None, None))

    # removal variant: delete a triangle-hitting set T, apply the dense
    # refinement to the rest, pay 2^{101 |T| / 100}
    if simple and big_delta >= 1:
        keep = _triangle_free_part(g)
        np_ = keep.bit_count()
        ep = sum((g.nbr[i] & keep).bit_count() for i in _bits(keep)) // 2
        k = Fraction(2 * ep - np_, 2)
        expo = (
            Fraction(np_, 2)
            - k / (100 * big_delta * big_delta)
            + Fraction(101 * (n - np_), 100)
        )
        checks.append(
            BoundCheck("almost-triangle-free", True, float(expo), _leq_power(exact, 2, expo))
        )
    else:
        checks.append(BoundCheck("almost-triangle-free", False, None, None))

    # almost-regular: with Delta <= k delta and b = sqrt(delta),
    # MIS <= sum_{i <= n/b} C(n, i) * 3^{(k/(k+1)) n/3 + 2n/(3b)}
    if delta >= 1:
        kreg = max(1.0, big_delta / delta)
        b = math.sqrt(delta)
        coeff = sum(math.comb(n, i) for i in range(0, int(n / b) + 1))
        blog = math.log2(coeff) + (
            (kreg / (kreg + 1)) * n / 3 + 2 * n / (3 * b)
        ) * math.log2(3)
        holds = math.log2(max(exact, 1)) <= blog + 1e-9
        checks.append(BoundCheck("almost-regular", True, blog, holds))
    else:
        checks.append(BoundCheck("almost-regular", False, None, None))

    # path packing: triangle-free with k disjoint P_3s gives 2^{n/2 - k/25}
    if tfree:
        k3 = disjoint_p3_packing(g, exact_limit=p3_exact_limit)
        expo = Fraction(n, 2) - Fraction(k3, 25)
        checks.append(
            BoundCheck("path-packing", True, float(expo), _leq_power(exact, 2, expo))
        )
    else:
        checks.append(BoundCheck("path-packing", False, None, None))

    if not simple:
        erased = count_covering_mis(g.nbr, (1 << n) - 1)
        checks.append(BoundCheck("loop-monotone", True, None, exact <= erased))
    else:
        checks.append(BoundCheck("loop-monotone", False, None, None))

    return BoundCertificates(exact, tuple(checks))


def _triangle_free_part(g: Graph) -> int:
    """Index mask left once a greedy triangle-hitting vertex set is removed:
    take the first triangle i < j < k in scan order, drop its vertex with the
    most neighbours left (the first on ties), and repeat.  A removal never
    creates a triangle, so the next one is never earlier in scan order and
    one scan resumes at the same i."""
    active = (1 << g.num_vertices) - 1
    for i in range(g.num_vertices):
        while active >> i & 1:
            mi = g.nbr[i] & active
            j = next((j for j in _bits(mi >> (i + 1) << (i + 1)) if mi & g.nbr[j]), None)
            if j is None:
                break
            common = mi & g.nbr[j]
            tri = (i, j, (common & -common).bit_length() - 1)
            drop = max(tri, key=lambda v: (g.nbr[v] & active).bit_count())
            active &= ~(1 << drop)
    return active
