"""Named finite checks, one per desk-verifiable claim about sum-free sets,
link graphs and maximal-independent-set counts.

Every check returns a `CheckReport` carrying the number of instances tried
and a witness string for each failure (never a bare boolean), so a failing
run pinpoints the exact offending instance.  Randomised corpora are fully
determined by the seed.

The asymptotic statements of the theory (container counts, o(2^{n/4}) error
regimes, the limit constants themselves) are out of scope for assertion;
what the suite checks are their finite ingredients: triangle-freeness of
link graphs, the seed/extension correspondence, exact component structure,
exact bound inequalities, and the window-shift self-similarity.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .census import (
    EVEN_LINK_LIMITS,
    _dfs_nodes,
    dprime_sum,
    enumerate_maximal_sum_free,
    even_link_term,
    single_even_census,
    two_step_enumerate,
)
from .graph import (
    Graph,
    are_isomorphic,
    check_isomorphism_map,
    complete,
    connected_components,
    cycle,
    disjoint_p3_packing,
    disjoint_union,
    is_triangle_free,
    matching,
    path,
    prism,
    relabel,
)
from .engine import _walk
from .group import AbelianGroup, _searchable
from .intset import IntSubset, iter_mask, mask_blocked
from .linkgraph import link_family, link_graph_ints, link_single_even
from .mis import bound_certificates, count_mis, enumerate_mis, mis_cycle


@dataclass(frozen=True)
class CheckReport:
    name: str
    instances_checked: int
    failures: tuple[str, ...]
    elapsed_ms: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


CheckFn = Callable[..., CheckReport]

# name -> check, in definition order: the order `verify --all` prints
ALL_CHECKS: dict[str, CheckFn] = {}
SEEDED_CHECKS: set[str] = set()


def _check(name: str) -> Callable[[Callable[..., tuple]], CheckFn]:
    """Register a check under `name`.  Its body returns (instances,
    failures) or (instances, failures, notes); the registered function times
    the body and returns its `CheckReport`.  A body with a `seed` parameter
    is run with `verify`'s seed."""

    def register(body: Callable[..., tuple]) -> CheckFn:
        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckReport:
            started = time.perf_counter()
            instances, failures, *notes = body(*args, **kwargs)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            return CheckReport(name, instances, tuple(failures), elapsed_ms,
                               tuple(notes[0]) if notes else ())

        ALL_CHECKS[name] = run
        if "seed" in inspect.signature(body).parameters:
            SEEDED_CHECKS.add(name)
        return run

    return register


# ---------------------------------------------------------------------------


def _random_sum_free(rng: random.Random, n: int, tries: int = 60) -> list[int]:
    # taken: the set and its blocked mask, recomputed only when the set grows
    mask = taken = 0
    for _ in range(tries):
        x = rng.randint(1, n)
        if not taken >> (x - 1) & 1:
            mask |= 1 << (x - 1)
            taken = mask | mask_blocked(mask)
    return list(iter_mask(mask))


@_check("link-triangle-free")
def check_link_triangle_free(trials: int = 400, n_max: int = 40, seed: int = 0) -> tuple:
    """A sum-free S entirely below B always yields a triangle-free link
    graph on B."""
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(trials):
        n = rng.randint(4, n_max)
        s = _random_sum_free(rng, max(2, n // 3))
        top = max(s) if s else 0
        pool = list(range(top + 1, n + 1))
        b = [v for v in pool if rng.random() < 0.6]
        g = link_graph_ints(s, b)
        if not is_triangle_free(g):
            failures.append(f"triangle in link graph: S={s}, B={b}")
    return trials, failures


@_check("two-step-mis")
def check_two_step_mis(n_max: int = 20) -> tuple:
    """The two-step route, each sum-free S in [n/2] joined with every maximal
    independent set of its link graph on the upper half, lists exactly the
    maximal sum-free sets of [n] that the oracle's DFS finds, a walk that
    shares no code with the join.  A DFS set M missing from the join means
    M's upper part is not a MIS of the link graph of M's lower part, or the
    join's open-element cover cut it."""
    failures: list[str] = []
    instances = 0
    for n in range(2, n_max + 1):
        found = [m for m, joinable in _dfs_nodes(n, 0, 0, 1) if not joinable]
        joined = [m.mask for m in two_step_enumerate(IntSubset.of(n, range(1, n // 2 + 1)),
                                                     IntSubset.of(n, range(n // 2 + 1, n + 1)), n)]
        instances += len(found)
        in_dfs, in_join = set(found), set(joined)
        failures += [f"n={n}, M={tuple(iter_mask(m))}: found by the oracle's DFS but"
                     " missing from the join" for m in found if m not in in_join]
        failures += [f"n={n}, M={tuple(iter_mask(m))}: joined but not found by the oracle's DFS"
                     for m in joined if m not in in_dfs]
    return instances, failures


# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, p: float, loop_p: float) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    loops = [i for i in range(n) if rng.random() < loop_p]
    return Graph.build(range(n), edges, loops)


def bounds_corpus(seed: int = 0, random_count: int = 420) -> list[tuple[str, Graph, int]]:
    """Deterministic corpus of structured families plus seeded random
    graphs; each entry carries the exact-packing vertex limit to use."""
    corpus: list[tuple[str, Graph, int]] = []

    def add(tag: str, g: Graph, p3_limit: int = 30) -> None:
        corpus.append((tag, g, p3_limit))

    for m in range(1, 19):
        add(f"path-{m}", path(m))
    for m in range(3, 19):
        add(f"cycle-{m}", cycle(m))
    for k in range(0, 13):
        add(f"matching-{k}", matching(k))
    for m in range(2, 8):
        add(f"complete-{m}", complete(m))
    add("prism", prism())
    add("2-prisms", disjoint_union(prism(), relabel(prism(), {v: v + 6 for v in range(6)})))
    for a in range(2, 6):
        for b in range(a, 6):
            add(
                f"bipartite-{a}-{b}",
                Graph.build(
                    range(a + b),
                    [(i, a + j) for i in range(a) for j in range(b)],
                ),
            )
    for n in (12, 16, 20):
        for m in range(2, n // 2 + 1, 3):
            add(f"link-family-{n}-{m}", link_family(n, m))
        for x in range(2, n + 1, 2):
            add(f"even-link-{n}-{x}", link_single_even(n, x))
    rng = random.Random(seed)
    for i in range(random_count):
        n = rng.randint(4, 36)
        p = rng.choice([0.08, 0.15, 0.3, 0.5])
        loop_p = rng.choice([0.0, 0.0, 0.1, 0.25])
        add(f"random-{i}-n{n}", _random_graph(rng, n, p, loop_p), 12)
    return corpus


@_check("mis-bounds")
def check_mis_bounds(seed: int = 0, random_count: int = 420) -> tuple:
    """Every applicable counting bound holds, with exact MIS counts, on a
    corpus of structured and random graphs."""
    failures: list[str] = []
    corpus = bounds_corpus(seed, random_count)
    for tag, g, p3_limit in corpus:
        certs = bound_certificates(g, p3_exact_limit=p3_limit)
        for c in certs.checks:
            if c.applicable and not c.holds:
                failures.append(
                    f"{tag}: bound {c.name} violated (exact={certs.exact},"
                    f" bound_log2={c.bound_log2})"
                )
    return len(corpus), failures, [f"corpus size {len(corpus)}"]


# ---------------------------------------------------------------------------


def _component_shape(g: Graph) -> tuple[int, int, int]:
    return (g.num_vertices, g.edge_count(), g.loops_mask.bit_count())


def _is_path_graph(g: Graph) -> bool:
    """Underlying simple graph is a path (single vertex counts)."""
    n = g.num_vertices
    if n == 1:
        return g.nbr[0] == 0
    degs = sorted(m.bit_count() for m in g.nbr)
    return degs[0] == degs[1] == 1 and all(d == 2 for d in degs[2:])


@_check("even-link-decomposition")
def check_even_link_decomposition(n_list: Sequence[int] = (16, 20, 24, 28, 32)) -> tuple:
    """Exact structure of the single-even link graphs on the odds.

    For even m > 2n/3 the graph is (n-m)/2 three-vertex paths plus a
    matching of (3m-2n)/4 edges when m/2 is even, with the matching losing
    half an edge to a loop at m/2 when m/2 is odd; either way the MIS count
    is 2^{floor(m/4)}.  For even m <= 2n/3 the graph is a union of paths
    (at least 3 vertices each except a single loop-carrying path through
    m/2 of at least 2), which yields many disjoint 3-vertex paths and the
    corresponding packing bound.
    """
    failures: list[str] = []
    instances = 0
    for n in n_list:
        if n % 4:
            failures.append(f"n={n}: not divisible by 4")
            continue
        small_total = 0
        for m in range(2, n + 1, 2):
            g = link_single_even(n, m)
            mis = count_mis(g)
            instances += 1
            parts = connected_components(g)
            comps = sorted(_component_shape(c) for c in parts)
            if 3 * m > 2 * n:
                expected = [(3, 2, 0)] * ((n - m) // 2)
                if (m // 2) % 2 == 0:
                    expected += [(2, 1, 0)] * ((3 * m - 2 * n) // 4)
                else:
                    expected += [(2, 1, 0)] * ((3 * m - 2 * n - 2) // 4)
                    expected += [(1, 1, 1)]
                if comps != sorted(expected):
                    failures.append(f"n={n}, m={m}: components {comps}")
                if mis != even_link_term(m):
                    failures.append(
                        f"n={n}, m={m}: MIS {mis} != {even_link_term(m)}"
                    )
            else:
                small_total += mis
                loopy = [c for c in parts if c.loops_mask]
                plain = [c for c in parts if not c.loops_mask]
                if not all(_is_path_graph(c) for c in parts):
                    failures.append(f"n={n}, m={m}: non-path component")
                if any(c.num_vertices < 3 for c in plain):
                    failures.append(f"n={n}, m={m}: short loop-free path")
                if (m // 2) % 2 == 1:
                    if len(loopy) != 1 or loopy[0].num_vertices < 2 or (
                        m // 2 not in loopy[0].labels
                    ):
                        failures.append(f"n={n}, m={m}: bad loop component")
                elif loopy:
                    failures.append(f"n={n}, m={m}: unexpected loop")
                k = disjoint_p3_packing(g)
                if k < n / 10 - 1:
                    failures.append(f"n={n}, m={m}: packing {k} < n/10 - 1")
                if mis**50 > 2 ** (25 * (n // 2) - 2 * k):
                    failures.append(f"n={n}, m={m}: packing bound violated")
        # finite geometric-series form of the tail sum
        if small_total > n * 2 ** (n / 4 - n / 250 + 1):
            failures.append(f"n={n}: small-m total {small_total} too large")
        sums = dprime_sum(n)
        if sums.geometric_closed_form != 3 * 2 ** (n // 4) - 3:
            failures.append(f"n={n}: geometric form mismatch")
        if sums.restricted != sums.restricted_formula:
            failures.append(f"n={n}: restricted sum != per-term formula sum")
    return instances, failures


@_check("even-link-constants")
def check_even_link_constants(n_max: int = 32) -> tuple:
    """Residue-class behaviour of sum over evens x of MIS(L_x[odds]).

    Hard assertions: the per-term closed form for every even m > 2n/3, the
    exact finite geometric sums for 4 | n, and the restricted-ratio climb
    toward its limit 3.  The distance of the full-sum ratio from its limit
    constant is fitted as c * 2^{-n/12} and reported, not asserted.
    """
    failures: list[str] = []
    instances = 0
    fitted: dict[int, float] = {}
    restricted_ratios: list[tuple[int, float]] = []
    for n in range(8, n_max + 1):
        sums = dprime_sum(n)
        instances += 1
        for m in range(2, n + 1, 2):
            if 3 * m > 2 * n:
                actual = count_mis(link_single_even(n, m))
                if actual != even_link_term(m):
                    failures.append(f"n={n}, m={m}: per-term formula fails")
        if n % 4 == 0:
            if sums.geometric_closed_form != 3 * 2 ** (n // 4) - 3:
                failures.append(f"n={n}: geometric sum mismatch")
            restricted_ratios.append((n, sums.restricted / 2 ** (n / 4)))
        if sums.total < 2 ** (n / 4):
            failures.append(f"n={n}: ratio below 1")
        dev = abs(sums.ratio() - EVEN_LINK_LIMITS[n % 4])
        fitted[n % 4] = max(fitted.get(n % 4, 0.0), dev * 2 ** (n / 12))
    for (n1, r1), (n2, r2) in zip(restricted_ratios, restricted_ratios[1:]):
        if not (r1 <= r2 <= 3.0):
            failures.append(f"restricted ratio not climbing: {n1}:{r1} {n2}:{r2}")
    notes = [
        f"residue {i}: limit {EVEN_LINK_LIMITS[i]:.4f},"
        f" fitted err c = {fitted.get(i, 0.0):.3f}"
        for i in sorted(fitted)
    ]
    return instances, failures, notes


# ---------------------------------------------------------------------------


def shift_iso_preconditions(w: int, n: int, t: int, s0: Sequence[int], ell: int) -> bool:
    """Window-scaled preconditions: intervals disjoint and the induced
    matching long enough to remove ell edges."""
    if w < 1 or abs(t) > w or any(not 1 <= a <= w for a in s0) or ell < 0:
        return False
    if n % 4:
        return False
    n2 = n + 4 * ell
    return n >= 4 * (6 * w + abs(t) + 1) and ell <= n2 // 4 + t - 8 * w


def shift_iso_instance(
    w: int, n: int, t: int, s0: Sequence[int], ell: int
) -> tuple[bool, bool]:
    """Build both graphs of one window-shift instance and verify the
    explicit four-interval map; returns (map_ok, backtracking_ok_or_True)."""
    if not shift_iso_preconditions(w, n, t, s0, ell):
        raise ValueError("parameters violate the window preconditions")
    p = 4 * w
    n2 = n + 4 * ell
    m, m2 = n // 4 - t, n2 // 4 - t
    s = [n // 2 - a for a in s0]
    s2 = [n2 // 2 - a for a in s0]
    left = link_family(n, m, s)
    right = link_family(n2, m2, s2)
    if ell:
        extra = Graph.build(
            range(n + 1, n + 2 * ell + 1),
            [(n + j, n + ell + j) for j in range(1, ell + 1)],
        )
        union = disjoint_union(left, extra)
    else:
        union = left
    f: dict[int, int] = {}
    for x in range(n // 2 + 1, n + 1):
        if x <= n // 2 + p:
            f[x] = x + 2 * ell
        elif x <= 3 * n // 4 + p - t:
            f[x] = x + 3 * ell
        else:
            f[x] = x + 4 * ell
    for j in range(1, ell + 1):
        f[n + j] = n2 // 2 + p + j
        f[n + ell + j] = 3 * n2 // 4 + p + j - t
    map_ok = check_isomorphism_map(union, right, f)
    search_ok = are_isomorphic(union, right) if n2 <= 48 else True
    return map_ok, search_ok


def default_shift_grid() -> list[tuple[int, int, int, tuple[int, ...], int]]:
    grid = []
    for w, ns in ((1, (36, 48, 60)), (2, (64, 80)), (3, (96,))):
        for n in ns:
            for t in range(-w, w + 1):
                for s0 in ((), tuple(range(1, w + 1))):
                    for ell in (1, 2, 4):
                        if shift_iso_preconditions(w, n, t, s0, ell):
                            grid.append((w, n, t, s0, ell))
    return grid


@_check("shift-isomorphism")
def check_shift_isomorphism(grid: Optional[Sequence[tuple]] = None) -> tuple:
    """Growing n by 4*ell (with the minimum offset t and the near-n/2
    fringe fixed relative to the window) adds exactly an ell-edge matching
    to the upper-half link graph, via the explicit four-interval map."""
    tuples = list(grid) if grid is not None else default_shift_grid()
    failures: list[str] = []
    for w, n, t, s0, ell in tuples:
        try:
            map_ok, search_ok = shift_iso_instance(w, n, t, s0, ell)
        except ValueError as exc:
            failures.append(f"W={w}, n={n}, t={t}, S0={s0}, l={ell}: {exc}")
            continue
        if not map_ok:
            failures.append(f"W={w}, n={n}, t={t}, S0={s0}, l={ell}: map fails")
        if not search_ok:
            failures.append(f"W={w}, n={n}, t={t}, S0={s0}, l={ell}: search fails")
    return len(tuples), failures, [f"grid size {len(tuples)}"]


# ---------------------------------------------------------------------------


@_check("single-even-sandwich")
def check_single_even_sandwich(n_max: int = 18) -> tuple:
    """The count of maximal sets with exactly one even member sits between
    the single-even link sums and their pairwise-corrected lower form; and
    any maximal extension of x + (maximal independent set of L_x[odds])
    adds only even numbers."""
    failures: list[str] = []
    instances = 0
    for n in range(4, n_max + 1):
        census = single_even_census(n)
        instances += 1
        if not census.lower <= census.f_prime_max <= census.upper:
            failures.append(
                f"n={n}: sandwich {census.lower} <= {census.f_prime_max}"
                f" <= {census.upper} fails"
            )
        maximal = [m.mask for m in enumerate_maximal_sum_free(n)]
        for x in range(2, n + 1, 2):
            for ind in enumerate_mis(link_single_even(n, x)):
                base = 1 << (x - 1)
                for v in ind:
                    base |= 1 << (v - 1)
                for mm in maximal:
                    if mm & base == base:
                        # added elements must all be even, so the odd part
                        # stays I
                        for e in iter_mask(mm & ~base):
                            if e % 2:
                                failures.append(
                                    f"n={n}, x={x}, I={ind}: odd growth {e}"
                                )
    return instances, failures


@_check("cycle-recurrence")
def check_cycle_recurrence(m_max: int = 24, bound_max: int = 64) -> tuple:
    """MIS(C_m) = MIS(C_{m-2}) + MIS(C_{m-3}) with both sides counted
    exactly, and MIS(C_m) < 2^{0.49 m} for 4 <= m <= bound_max (including
    disjoint unions of cycles of length >= 4)."""
    failures: list[str] = []
    instances = 0
    exact = {m: count_mis(cycle(m)) for m in range(3, m_max + 1)}
    for m in range(6, m_max + 1):
        instances += 1
        if exact[m] != exact[m - 2] + exact[m - 3]:
            failures.append(f"recurrence fails at m={m}")
        if mis_cycle(m) != exact[m]:
            failures.append(f"mis_cycle({m}) != exact count")
    for m in range(4, bound_max + 1):
        instances += 1
        if mis_cycle(m) ** 100 >= 2 ** (49 * m):
            failures.append(f"2^(0.49 m) bound fails at m={m}")
    # disjoint unions of cycles of length >= 4 inherit the bound
    rng = random.Random(7)
    for _ in range(20):
        parts = [rng.randint(4, 12) for _ in range(rng.randint(2, 4))]
        total = sum(parts)
        prod = 1
        for ln in parts:
            prod *= mis_cycle(ln)
        instances += 1
        if prod**100 >= 2 ** (49 * total):
            failures.append(f"cycle-union bound fails for {parts}")
    return instances, failures


# ---------------------------------------------------------------------------


def default_group_splits() -> list[str]:
    return ["Z2xZ2", "Z2xZ2xZ2", "Z5", "Z7", "Z9", "Z10", "Z12"]


def _two_step_terms(grp: AbelianGroup) -> tuple[int, int, int]:
    """(|B|, seeds, f_max) of a group from one walk over its index masks: B
    is the first longest sum-free set in preorder, the one
    group.max_sum_free returns, and the seeds are the sum-free sets inside
    C, the non-zero elements outside B."""
    walked = _walk(_searchable(grp))
    b = max((s for s, _ in walked), key=int.bit_count)
    c = (1 << grp.order) - 2 & ~b  # index 0, the identity, is not in C
    seeds = sum(1 for s, _ in walked if not s & ~c)
    return b.bit_count(), seeds, sum(maximal for _, maximal in walked)


@_check("group-two-step-bound")
def check_group_two_step_bound(descs: Optional[Sequence[str]] = None) -> tuple:
    """Two-step counting bound for groups: with B a maximum sum-free set
    and C the remaining non-zero elements, the number of maximal sum-free
    subsets is at most (number of sum-free seeds in C) * 3^{|B|/3}."""
    failures: list[str] = []
    names = list(descs) if descs is not None else default_group_splits()
    for desc in names:
        b, seeds, fmax = _two_step_terms(AbelianGroup.parse(desc))
        # fmax <= seeds * 3^{|B|/3}, exactly: fmax^3 <= seeds^3 * 3^{|B|}
        if fmax**3 > seeds**3 * 3**b:
            failures.append(f"{desc}: two-step bound fails ({fmax} vs {seeds})")
    return len(names), failures


def run_check(name: str, seed: int = 0) -> CheckReport:
    if name not in ALL_CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {sorted(ALL_CHECKS)}")
    fn = ALL_CHECKS[name]
    if name in SEEDED_CHECKS:
        return fn(seed=seed)
    return fn()


def run_all(seed: int = 0) -> list[CheckReport]:
    return [run_check(name, seed) for name in ALL_CHECKS]
