"""Exact counts of sum-free and maximal sum-free subsets of [n].

Two independent routes are provided and cross-checked:

* oracle: a depth-first walk of every sum-free subset p of [n] by its least
  element lo, counting each and keeping none.  An x < lo can join p iff it
  is neither a difference of p nor half of a member, so each node carries
  those beside the members above lo that can join p; the maximal sets are
  the nodes with neither.  The kernel (`kernel.dfs_counts`) walks it when
  it loads, its Python twin `_dfs_counts` otherwise, on stripes of
  subtrees in a process pool.  It shares no code with the branch route or
  the listing: not `sum_free_subsets_of`, `_seed_graph`, `mask_blocked`,
  `link_masks` or the MIS recursion.
* branch: one pass over the sum-free seeds S = M ∩ [n/2], which reaches
  further than the oracle (`cli.ENUMERATE_MAX_N` against `ORACLE_MAX_N`).
  A seed's share of f counts the independent sets of its link graph on the
  upper half, its share of f_max (in one pruned search, none listed) the
  maximal ones that also block every lower element S leaves open.  Chunks
  of seeds are the tasks of a process pool.  The compiled kernel
  (`kernel.seed_counts`) counts the chunks when it loads (5 ms against 200
  ms at n = 32), and its Python twin `_seed_counts`, which runs no
  compiled code and is the kernel's reference in the tests, counts them
  otherwise.

One per-seed step, `_seed_graph` (a seed's link graph on a sum-free part
and the cover of the elements it leaves open), serves the branch counts, the
two-step listing (seeds in one part joined with maximal independent sets of
their link graphs on the other) and the census of maximal sets with exactly
one even member (the seeds {x} on the odds).  The listing runs a batch of
seeds in one call of the compiled kernel (`kernel.seed_listing`, which
builds the same problem in C) when it loads and takes the part, and its
Python twin `_seed_listings` otherwise; only the sort and the `IntSubset`
wrapping stay in Python.  The listing of the maximal sets of [n] is the
two-step join on the halves; the tests and the two-step-mis check compare
it with the oracle DFS's maximal nodes.  The seeds are listed level by
level, each set's children being the elements above its maximum that it
leaves sum-free.
Also here: the single-even sandwich, the even-link sums whose 2^{n/4} ratios
stabilise by residue class, and a census of sets with small sumset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Iterable

from .intset import (
    GroundSet,
    IntSubset,
    iter_mask,
    mask_blocked,
    mask_is_sum_free,
)
from .linkgraph import link_masks, link_pair_even, link_single_even
from .mis import EnumerationLimitError, _search, check_vertex_limit, count_independent, count_mis

# oracle_counts(n, 2) on a 2-core Intel Xeon, gcc 12.2, Python 3.11.7: 74 s
# at n = 60, 304 s at 64 and 480 s at 65 (peak RSS 22 MB, 15 MB per worker),
# about 1.5x per +1, so 66 extrapolates past a 600 s budget.  Without a
# compiler the Python twin walks 1.9e6 sets/s on 2 workers (1.9 s at 36):
# about 10 h at 65
ORACLE_MAX_N = 65
# the pool's tasks are the subtrees where lo first drops to n - 16 or below:
# for n > 30 every subset of [n - 15, n] is sum-free, so 2^16 nodes lie above
_ORACLE_CUT = 16


# ---------------------------------------------------------------------------
# oracle route: a counting DFS over the sum-free masks
# ---------------------------------------------------------------------------


def _dfs_nodes(n: int, cut: int, stripe: int, stripes: int):
    """Yields (p, joinable) for each sum-free mask p of [n] (element e at bit
    e - 1) that one stripe counts, in kernel.c's walk order; joinable is the
    mask of the e outside p that leave p | {e} sum-free."""
    if not (1 <= n <= 128 and 0 <= cut <= n and 0 <= stripe < stripes):
        raise ValueError("need 1 <= n <= 128, 0 <= cut <= n and 0 <= stripe < stripes")
    low, task = (1 << cut) - 1, -1
    stack = [(0, n + 1, 0, 0)]  # (p, lo, blk, ext) as in kernel.c's walk
    while stack:
        p, lo, blk, ext = stack.pop()
        if lo <= cut and p & low == 1 << lo - 1:
            task += 1
            if task % stripes != stripe:
                continue
        kids = (1 << lo - 1) - 1 & ~blk
        if lo <= cut or not stripe:
            yield p, kids | ext
        # the highest kid comes off first; x takes ext plus the kids above x
        rest = kids
        while rest:
            b = rest & -rest
            rest ^= b
            x = b.bit_length()
            stack.append((p | b, x, blk | p >> x | (0 if x % 2 else 1 << x // 2 - 1),
                          (ext | kids >> x << x) & ~(p << x | p >> x | 1 << 2 * x - 1)))


def _dfs_counts(n: int, cut: int, stripe: int, stripes: int) -> tuple[int, int]:
    """(f, f_max) over one stripe, as `kernel.dfs_counts` counts them: the
    nodes, and those with no joinable element."""
    f = f_max = 0
    for _, joinable in _dfs_nodes(n, cut, stripe, stripes):
        f += 1
        f_max += not joinable
    return f, f_max


def oracle_counts(n: int, workers: int = 1) -> tuple[int, int]:
    """(f(n), f_max(n)) by the counting DFS, one stripe per worker.  Maximal
    is the definition: no single added element leaves the set sum-free."""
    if not 1 <= n <= ORACLE_MAX_N:
        raise ValueError(f"the oracle takes 1 <= n <= {ORACLE_MAX_N}")
    from . import kernel
    stripes = max(workers, 1)
    task = partial(kernel.dfs_counts if kernel.load() else _dfs_counts,
                   n, max(n - _ORACLE_CUT, 0), stripes=stripes)
    return _pooled_counts(task, range(stripes), workers)


def sum_free_mask_table(n: int) -> list[int]:
    """The sum-free masks of [n] (element x at bit x - 1), sorted, the empty
    mask 0 first: the DFS's nodes, for the tests and the benchmark's probe."""
    return sorted(p for p, _ in _dfs_nodes(n, 0, 0, 1))


def f_oracle(n: int) -> int:
    """Number of sum-free subsets of [n] (empty set included)."""
    return oracle_counts(n)[0]


def f_max_oracle(n: int) -> int:
    """Number of maximal sum-free subsets of [n], by the counting DFS."""
    return oracle_counts(n)[1]


def _pooled_counts(task, chunks, workers: int) -> tuple[int, int]:
    """(f, f_max) summed over `task(chunk)` for each chunk: in this process,
    or in a pool of `workers` processes."""
    if workers <= 1:
        counts = list(map(task, chunks))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(task, chunks))
    return sum(f for f, _ in counts), sum(f_max for _, f_max in counts)


# ---------------------------------------------------------------------------
# the branch route's seed counts
# ---------------------------------------------------------------------------

_CHUNKS_PER_WORKER = 16  # the heaviest then holds 4.7% of the MISs at n = 24


def _seed_graph(seed: int, part: int, n: int) -> tuple[list[int], int, list, int]:
    """The per-seed problem: a sum-free seed S joined with a set I inside a
    sum-free part B of [n] disjoint from S.  Returns (nbr, free, cover,
    unpaired) from one `mask_blocked(S)`: nbr is S's link graph on B | open,
    the open y being the elements of [n] outside B that S neither holds nor
    blocks; free is B less the loops, which S blocks; cover has a pair for
    each open y <= 2 min B; unpaired is the other open y.

    S | I is sum-free iff I is independent in nbr on free.  It then blocks
    each member of B, by S (a loop) or by I's maximality, and every other
    element but the open y, by S.  It blocks an open y only through I: an i
    with y = i + s, i - s or s - i (y's edges in nbr), i = 2y or y = 2i, or
    members i < i' with y = i' - i or i + i'.  For y <= 2 min B no two
    members of B sum to y, so S | I meets y's pair, as `count_covering_mis`
    reads it, iff it blocks y.  So S | I is maximal iff I is a maximal
    independent set that meets the cover and blocks the unpaired y."""
    blocked = mask_blocked(seed)
    opened = (1 << n) - 1 & ~part & ~seed & ~blocked
    nbr = link_masks(seed, part | opened)
    paired = opened & (1 << 2 * (part & -part).bit_length()) - 1  # none if B is empty
    cover = [(y, (nbr[y - 1] | 1 << 2 * y - 1 | (0 if y % 2 else 1 << y // 2 >> 1)) & part)
             for y in iter_mask(paired)]
    return nbr, part & ~blocked, cover, opened & ~paired


# the most maximal independent sets one seed may list under its cover, as
# in `mis_masks`
_SEED_CAP = 1_000_000


def _seed_listings(n: int, part: int, seeds: list[int], cap: int) -> list[int]:
    """The maximal sum-free sets S | I of [n] for each seed S in turn and
    the part B of `_seed_graph`: the maximal independent sets under its
    cover in `_search`'s order, each union re-tested by the definition at
    the unpaired y only.  A seed with more than `cap` of them raises
    EnumerationLimitError before any is listed.  It runs `_search` alone,
    never the kernel, so it is `kernel.seed_listing`'s reference."""
    if n < 1 or part >> n or any(s >> n or s & part for s in seeds):
        raise ValueError("the part and the seeds must be disjoint masks of [n], n >= 1")
    sets: list[int] = []
    for seed in seeds:
        nbr, free, cover, unpaired = _seed_graph(seed, part, n)
        # Moon-Moser: k vertices carry at most 3^{k/3} maximal independent sets
        if 3 ** free.bit_count() > cap**3:
            check_vertex_limit(free.bit_count())
            if _search(nbr, free, cover) > cap:
                raise EnumerationLimitError(f"more than {cap} maximal independent sets")
        found: list[int] = []
        _search(nbr, free, cover, found)
        sets += [seed | ind for ind in found
                 if not unpaired or not unpaired & ~mask_blocked(seed | ind)]
    return sets


def _listings(n: int, part: int, seeds: list[int]) -> list[int]:
    """`_seed_listings` under `_SEED_CAP`, by `kernel.seed_listing` when the
    kernel loads and takes the part."""
    from . import kernel
    if kernel.load() and kernel.listing_fits(n, part):
        return kernel.seed_listing(n, part, seeds, _SEED_CAP)
    return _seed_listings(n, part, seeds, _SEED_CAP)


def _seed_counts(n: int, seeds: list[int]) -> tuple[int, int]:
    """(f, f_max) over the sets of [n] whose part in [n/2] is in `seeds`,
    by `_seed_graph` on the upper half: the independent sets, and the
    maximal ones under the cover, counted in one pruned `mis._search` that
    lists none.  2 min B passes n there, so no open y is unpaired."""
    half = n // 2
    upper = (1 << n) - 1 >> half << half
    f = f_max = 0
    for seed in seeds:
        nbr, free, cover, _ = _seed_graph(seed, upper, n)
        f += count_independent(nbr, free)
        f_max += _search(nbr, free, cover)
    return f, f_max


def branch_counts(n: int, workers: int = 1) -> tuple[int, int]:
    """(f(n), f_max(n)) as sums of per-seed counts over the sum-free seeds in
    [n/2]: one chunk in this process, or `_CHUNKS_PER_WORKER` striped chunks
    per worker in a pool of `workers`.  Each chunk is counted by the
    compiled kernel, `kernel.seed_counts`, when it loads, and by
    `_seed_counts` otherwise; the two share only this seed listing."""
    from . import kernel
    seeds = sum_free_subsets_of(range(1, n // 2 + 1))
    k = 1 if workers <= 1 else workers * _CHUNKS_PER_WORKER
    chunks = [seeds[i::k] for i in range(k)]
    task = partial(kernel.seed_counts if kernel.load() else _seed_counts, n)
    return _pooled_counts(task, chunks, workers)


def f_branch(n: int, workers: int = 1) -> int:
    """f(n) by the branch route's two-step count."""
    return branch_counts(n, workers)[0]


def f_max_branch(n: int, workers: int = 1) -> int:
    """f_max(n) by the branch route's maximal independent sets of the seeds'
    link graphs."""
    return branch_counts(n, workers)[1]


def _mask_sort_key(mask: int) -> str:
    """Sorts masks as their sorted member tuples do: character x - 1 is "1"
    for a member x and "2" for a gap, up to the largest member, so a prefix
    comes first."""
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def sum_free_subsets_of(members: Iterable[int]) -> list[int]:
    """Masks of all sum-free subsets of a set of positive integers, by
    increasing size: one level per size, each set S beside its children
    (cand), the elements above max S not in S + S; the child S | {x} keeps
    the candidates above x that are not in (S | {x}) + x."""
    level = [(sum(1 << (x - 1) for x in set(members)), 0)]
    out: list[int] = []
    while level:
        out.extend(mask for _, mask in level)
        parents, level = level, []
        for cand, mask in parents:
            while cand:
                low = cand & -cand
                cand ^= low
                t = mask | low
                level.append((cand & ~(t << low.bit_length()), t))
    return out


# ---------------------------------------------------------------------------
# two-step enumeration through link graphs
# ---------------------------------------------------------------------------


def two_step_enumerate(f1: IntSubset, f2: IntSubset, n: int) -> list[IntSubset]:
    """Maximal sum-free subsets of [n] contained in F1 + F2, built by fixing
    a sum-free seed S in F1 and extending it by a maximal independent set of
    the link graph of S on F2.

    F1 and F2 must be disjoint and F2 itself sum-free (the seed-extension
    correspondence needs both the seed and the extension side sum-free).
    Each seed's sets are its listing on F2 (`_listings`), exact for any two
    parts; a union's seed is its part in F1, so no set is listed twice.
    """
    if f1.mask & f2.mask:
        raise ValueError("the two parts must be disjoint")
    if not mask_is_sum_free(f2.mask):
        raise ValueError("the extension part must be sum-free")
    found = _listings(n, f2.mask, sum_free_subsets_of(f1.members))
    found.sort(key=_mask_sort_key)  # in place: one list of masks, not two
    ground = GroundSet(n)
    return [IntSubset(ground, m) for m in found]


# the listing holds every maximal set: n = 48 gives 424991 of them in 1.2 s
# with the compiled kernel and 7.5 s without (peak RSS 90 MB either way) on
# a 2-core Intel Xeon, Python 3.11.7
_ENUMERATE_MAX_N = 48


def enumerate_maximal_sum_free(n: int) -> list[IntSubset]:
    """All maximal sum-free subsets of [n], canonically ordered: the two-step
    join of the seeds in [1, n/2] with the upper half (n/2, n]."""
    if n > _ENUMERATE_MAX_N:
        raise EnumerationLimitError(f"n = {n} exceeds the enumeration limit {_ENUMERATE_MAX_N}")
    half = n // 2
    return two_step_enumerate(IntSubset.of(n, range(1, half + 1)),
                              IntSubset.of(n, range(half + 1, n + 1)), n)


# ---------------------------------------------------------------------------
# maximal sets with exactly one even member
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleEvenCensus:
    n: int
    f_prime_max: int  # exact count of maximal sets with exactly one even member
    lower: int  # sum over evens minus twice the pairwise correction
    upper: int  # sum over evens of the single-even link MIS counts


# n = 30 takes 0.02 s (515 sets) on a 2-core Intel Xeon, Python 3.11.7,
# with the compiled kernel; 40 and 50 took 0.03 and 0.04 s
_SINGLE_EVEN_MAX_N = 30


def single_even_census(n: int) -> SingleEvenCensus:
    """f'_max(n) and its sandwich.  A maximal set with exactly one even
    member x is {x} joined with a set of odds, so f'_max sums, over the
    even x, the listing of the seed {x} on the odds."""
    if n > _SINGLE_EVEN_MAX_N:
        raise EnumerationLimitError(f"n = {n} exceeds the census limit {_SINGLE_EVEN_MAX_N}")
    evens = list(range(2, n + 1, 2))
    upper = dprime_sum(n).total
    pair_sum = 0
    for i, x in enumerate(evens):
        for x2 in evens[i + 1 :]:
            pair_sum += count_mis(link_pair_even(n, x, x2))
    odds = sum(1 << x - 1 for x in range(1, n + 1, 2))
    exact = len(_listings(n, odds, [1 << x - 1 for x in evens]))
    return SingleEvenCensus(n, exact, upper - 2 * pair_sum, upper)


# ---------------------------------------------------------------------------
# even-link sums and their closed forms
# ---------------------------------------------------------------------------


def even_link_term(m: int) -> int:
    """Predicted MIS count of the single-even link graph for even m greater
    than 2n/3: 2^{m/4} when m/2 is even, else 2^{(m-2)/4}."""
    if m % 2:
        raise ValueError("term defined for even m only")
    if (m // 2) % 2 == 0:
        return 1 << (m // 4)
    return 1 << ((m - 2) // 4)


# the residue-class limits of EvenLinkSums.ratio(): n mod 4 -> constant
EVEN_LINK_LIMITS = {0: 3.0, 1: 3 * 2 ** (-1 / 4), 2: 2 ** (3 / 2), 3: 2 ** (5 / 4)}


@dataclass(frozen=True)
class EvenLinkSums:
    n: int
    total: int  # sum over all even x of MIS(L_x[odds])
    restricted: int  # same sum restricted to x > 2n/3
    restricted_formula: int  # per-term closed form summed over x > 2n/3
    geometric_closed_form: int  # per-term closed form summed over all even x

    def ratio(self) -> float:
        return self.total / 2 ** (self.n / 4)


def dprime_sum(n: int) -> EvenLinkSums:
    evens = list(range(2, n + 1, 2))
    per_m = {x: count_mis(link_single_even(n, x)) for x in evens}
    total = sum(per_m.values())
    restricted = sum(v for x, v in per_m.items() if 3 * x > 2 * n)
    restricted_formula = sum(even_link_term(x) for x in evens if 3 * x > 2 * n)
    geometric = sum(even_link_term(x) for x in evens)
    return EvenLinkSums(n, total, restricted, restricted_formula, geometric)


# ---------------------------------------------------------------------------
# sets with small sumset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumsetCensus:
    d: int
    s: int
    r: Fraction
    count: int  # exact number of S in [d], |S| = s, |S+S| <= r s
    bound: float  # 2^{delta s} C(r s / 2, s) d^{floor(r + delta)}
    delta: float


# 1.4e6 (s = 1) to 1.4e7 (s = 6) pair sums a second on a 2-core Intel Xeon,
# Python 3.11.7, so a run within the limit ends in about 10 s (10.0 s at s = 1)
_SUMSET_MAX_PAIR_SUMS = 14 * 10**6


def small_sumset_count(d: int, s: int, r, delta: float = 1 / 9) -> SumsetCensus:
    """Exact census of s-subsets of [d] with sumset at most r*s, next to the
    corresponding counting bound (informational: the bound's validity
    threshold in s is an unspecified constant).  An s-set has at most
    s(s+1)/2 sums, so r past (s+1)/2 admits all: r is capped at s + 1, delta
    at 1, the pair sums at `_SUMSET_MAX_PAIR_SUMS` and the bound at the float
    range."""
    if s < 1 or d < s:
        raise ValueError("need 1 <= s <= d")
    for name, value, cap in (("r", r, s + 1), ("delta", delta, 1)):
        if not (math.isfinite(value) and 0 <= value <= cap):
            raise ValueError(f"{name} = {value} must lie in [0, {cap}]")
    pairs = s * (s + 1) // 2
    limit = _SUMSET_MAX_PAIR_SUMS
    if pairs > limit or math.comb(d, s) * pairs > limit:
        raise EnumerationLimitError(
            f"C({d},{s}) sets of {pairs} sums each exceed the census limit {limit}")
    rr = Fraction(r).limit_denominator(10**6) if isinstance(r, float) else Fraction(r)
    comb, power = math.comb(math.floor(rr * s / 2), s), d ** math.floor(float(rr) + delta)
    if comb and delta * s + math.log2(comb * power) >= 1023:
        raise EnumerationLimitError("the bound exceeds the float range")
    threshold = rr * s
    count = 0
    for combo in combinations(range(1, d + 1), s):
        sums = {a + b for i, a in enumerate(combo) for b in combo[i:]}
        if len(sums) <= threshold:
            count += 1
    bound = 2 ** (delta * s) * comb * power
    return SumsetCensus(d, s, rr, count, float(bound), delta)
