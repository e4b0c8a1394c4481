"""Maximal-independent-set counting, enumeration, and the bound suite."""

from __future__ import annotations

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import census, cli, kernel, mis
from sumfree.checks import bounds_corpus
from sumfree.graph import (
    Graph,
    _bits,
    are_isomorphic,
    cycle,
    disjoint_p3_packing,
    disjoint_union,
    induced_subgraph,
    matching,
    path,
    prism,
    relabel,
)
from sumfree.group import AbelianGroup, f_group
from sumfree.mis import (
    EnumerationLimitError,
    _leq_power,
    bound_certificates,
    count_covering_mis,
    count_independent,
    count_mis,
    enumerate_mis,
    mis_cycle,
    mis_masks,
)


@st.composite
def random_graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    loops = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return Graph.build(range(n), edges, loops)


def brute_force_mis(g: Graph) -> list[tuple[int, ...]]:
    """Independent oracle: scan all vertex subsets."""
    n = g.num_vertices
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if not mask >> i & 1:
                continue
            if g.loops_mask >> i & 1 or g.nbr[i] & mask:
                ok = False
                break
        if not ok:
            continue
        # maximal: every vertex outside is excluded for a reason
        for i in range(n):
            if mask >> i & 1:
                continue
            if not (g.loops_mask >> i & 1 or g.nbr[i] & mask):
                ok = False
                break
        if ok:
            out.append(tuple(g.labels[i] for i in range(n) if mask >> i & 1))
    return sorted(out)


def test_strip_loops():
    p3_loop = Graph.build(range(3), [(0, 1), (1, 2)], [0])
    assert enumerate_mis(p3_loop) == [(1,), (2,)]  # the loop vertex 0 is left out
    all_loops = Graph.build(range(3), [(0, 1)], [0, 1, 2])
    assert count_mis(all_loops) == 1  # the empty set is the unique MIS
    assert enumerate_mis(all_loops) == [()]


def test_counts():
    assert count_mis(cycle(4)) == 2
    assert count_mis(prism()) == 6
    for k in range(6):
        assert count_mis(matching(k)) == 2**k


def test_enumeration():
    assert enumerate_mis(path(3)) == [(0, 2), (1,)]
    lone = Graph.build([5], [], [5])
    assert enumerate_mis(lone) == [()]
    five = enumerate_mis(cycle(5))
    assert len(five) == 5 and all(len(s) == 2 for s in five)


def test_enumeration_matches_brute_force_on_structured():
    for g in (path(5), cycle(6), matching(3), prism()):
        assert enumerate_mis(g) == brute_force_mis(g)


def test_mis_cycle():
    assert mis_cycle(4) == 2
    assert mis_cycle(5) == 5
    assert mis_cycle(6) == 5  # 2 + 3
    for m in range(3, 25):
        assert mis_cycle(m) == count_mis(cycle(m))
    with pytest.raises(ValueError):
        mis_cycle(2)


def test_cycle_bound():
    for m in range(4, 65):
        assert mis_cycle(m) ** 100 < 2 ** (49 * m)


def test_size_limit():
    with pytest.raises(EnumerationLimitError):
        count_mis(matching(41))  # 82 vertices
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(matching(12), cap=100)
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(cycle(40), cap=1000)  # one component past the cap
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(path(81))
    # two components, each under the default cap, whose product is over it
    two = disjoint_union(cycle(30), relabel(cycle(30), {i: i + 30 for i in range(30)}))
    assert count_mis(cycle(30)) ** 2 > 1_000_000 > count_mis(cycle(30))
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(two)
    # three disjoint triangles meet the 3^{n/3} bound exactly: 27 sets
    triangles = cycle(3)
    for k in (1, 2):
        triangles = disjoint_union(triangles, relabel(cycle(3), {i: i + 3 * k for i in range(3)}))
    assert len(enumerate_mis(triangles, cap=27)) == 27
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(triangles, cap=26)
    exact = count_mis(cycle(12))
    assert len(enumerate_mis(cycle(12), cap=exact)) == exact


def test_bound_certificates_examples():
    c5 = bound_certificates(cycle(5))
    assert c5.exact == 5 and all(c.holds for c in c5.checks if c.applicable)
    m4 = bound_certificates(matching(4))
    assert m4.exact == 16  # 2^{n/2}: the triangle-free bound is tight here
    assert all(c.holds for c in m4.checks if c.applicable)
    three = path(3)
    for k in range(1, 3):
        three = disjoint_union(three, relabel(path(3), {i: i + 3 * k for i in range(3)}))
    certs = bound_certificates(three)
    assert certs.exact == 8 and all(c.holds for c in certs.checks if c.applicable)


def test_loop_vertex_never_chosen():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3)], [1])
    for s in enumerate_mis(g):
        assert 1 not in s


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_count_matches_enumeration_and_brute_force(g):
    sets = enumerate_mis(g)
    assert count_mis(g) == len(sets)
    assert sets == brute_force_mis(g)
    loop_free = [v for i, v in enumerate(g.labels) if not g.loops_mask >> i & 1]
    assert count_mis(g) == count_mis(induced_subgraph(g, loop_free))


def _free(g: Graph) -> int:
    return ((1 << g.num_vertices) - 1) & ~g.loops_mask


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_covering_count_matches_filtered_listing(data):
    # the pruned search counts and lists exactly the sets of the unpruned
    # listing that meet every pair
    g = data.draw(random_graphs())
    n = g.num_vertices
    pair = st.tuples(st.integers(min_value=1, max_value=n),
                     st.integers(min_value=0, max_value=(1 << n) - 1))
    cover = data.draw(st.lists(pair, max_size=4))
    kept = [ind for ind in mis_masks(g.nbr, _free(g))
            if all(ind & hit or ind & ind >> shift for shift, hit in cover)]
    assert count_covering_mis(g.nbr, _free(g), cover) == len(kept)
    assert sorted(mis_masks(g.nbr, _free(g), cover)) == sorted(kept)
    assert count_covering_mis(g.nbr, _free(g)) == count_mis(g)


def test_cap_counts_the_covered_sets():
    # 2^12 sets in all, 4 once ten of the twelve edges must use their even end
    g = matching(12)
    cover = [(24, 1 << 2 * i) for i in range(10)]
    with pytest.raises(EnumerationLimitError):
        mis_masks(g.nbr, _free(g), cap=100)
    assert len(mis_masks(g.nbr, _free(g), cover, cap=4)) == 4
    with pytest.raises(EnumerationLimitError):
        mis_masks(g.nbr, _free(g), cover, cap=3)


# ---------------------------------------------------------------------------
# the compiled search (kernel.mis_search) against mis._search
# ---------------------------------------------------------------------------


def _require_kernel():
    if kernel.load() is None:
        pytest.skip("the compiled kernel does not load here")


@st.composite
def wide_problems(draw):
    """(nbr, free, cover): a random graph on up to 64 vertices whose masks
    are moved up by an offset, free leaving out its loop vertices, and up to
    four pairs whose shifts run past 64.  Past 32 vertices the edge chance
    is at least 0.4, so _search lists at most a few thousand sets."""
    n = draw(st.integers(min_value=0, max_value=64))
    offset = draw(st.sampled_from([0, 1, 9, 64, 100]))
    chance = draw(st.floats(min_value=0.4 if n > 32 else 0.0, max_value=0.9))
    rng = draw(st.randoms(use_true_random=False))
    nbr = [0] * (offset + n)
    for i in range(offset, offset + n):
        for j in range(i + 1, offset + n):
            if rng.random() < chance:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    loops = sum(1 << offset + i for i in range(n) if rng.random() < 0.1)
    free = ((1 << n) - 1 << offset) & ~loops
    shift = st.integers(min_value=1, max_value=100)
    cover = [(draw(shift), rng.getrandbits(n) << offset)
             for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return nbr, free, cover


@given(wide_problems())
@settings(max_examples=60, deadline=None)
def test_kernel_search_matches_the_python_search(problem):
    # the same counts, and the same listing in the same order: the pivot
    # rule and the branch order are the same
    _require_kernel()
    nbr, free, cover = problem
    assert kernel.mis_search(nbr, free) == mis._search(nbr, free)
    assert kernel.mis_search(nbr, free, cover) == mis._search(nbr, free, cover)
    compiled, python = [], []
    assert kernel.mis_search(nbr, free, cover, compiled) == mis._search(nbr, free, cover, python)
    assert compiled == python


@pytest.fixture()
def python_searches(monkeypatch):
    # the arguments of every mis._search call from here on
    calls = []

    def recording(*args):
        calls.append(args)
        return search(*args)

    search = mis._search
    monkeypatch.setattr(mis, "_search", recording)
    return calls


def test_kernel_falls_back_to_the_python_search(monkeypatch, python_searches):
    _require_kernel()
    # 64 vertices and 64 pairs run on the kernel
    assert count_mis(cycle(64)) == mis_cycle(64)
    g = matching(12)
    pair = (24, 1 << 2)  # the edge at 2 must use its even end: half the sets
    assert count_covering_mis(g.nbr, _free(g), [pair] * 64) == 2**11
    assert python_searches == []
    # 80 vertices: the cycle's MIS count is the Perrin number P(80)
    perrin = [3, 0, 2]
    while len(perrin) <= 80:
        perrin.append(perrin[-2] + perrin[-3])
    assert count_mis(cycle(80)) == perrin[80] == 5886726725
    # 65 pairs
    assert count_covering_mis(g.nbr, _free(g), [pair] * 65) == 2**11
    assert len(mis_masks(g.nbr, _free(g), [pair] * 65)) == 2**11
    assert len(python_searches) == 3
    # no kernel: the same counts, all in Python
    monkeypatch.setattr(kernel, "load", lambda: None)
    python_searches.clear()
    assert count_mis(cycle(64)) == mis_cycle(64)
    assert count_covering_mis(g.nbr, _free(g), [pair] * 64) == 2**11
    assert len(mis_masks(g.nbr, _free(g), [pair])) == 2**11
    assert len(python_searches) == 3


def test_kernel_listing_cap(python_searches):
    _require_kernel()
    # 2^20 sets on 40 vertices: counted on the kernel, then refused
    g = matching(20)
    with pytest.raises(EnumerationLimitError, match=r"^more than 1000 maximal independent sets$"):
        mis_masks(g.nbr, _free(g), cap=1000)
    # the listing buffer grows with the sets, never to the cap up front
    assert len(mis_masks(cycle(30).nbr, _free(cycle(30)), cap=2**62)) == mis_cycle(30)
    assert python_searches == []


def test_searches_leave_no_reference_cycle():
    # each search's memo, and each listing's output list, is freed when the
    # call returns, not by the cyclic GC
    g = cycle(9)
    gc.collect()
    gc.disable()
    try:
        count_mis(g)
        count_covering_mis(g.nbr, _free(g), [(1, 1)])
        mis_masks(g.nbr, _free(g))
        count_independent(g.nbr, _free(g))
        disjoint_p3_packing(g)
        are_isomorphic(prism(), prism())
        census.enumerate_maximal_sum_free(12)
        census.sum_free_subsets_of(range(1, 10))
        census.branch_counts(16)
        f_group(AbelianGroup.parse("Z2xZ2xZ2"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_run_leaves_no_reference_cycle():
    # the argument parser is built once, not dropped as cyclic garbage per run
    runs = (["verify", "--check", "group-two-step-bound"],
            ["enumerate", "--n", "16", "--no-cache"],
            ["group", "--desc", "Z2xZ6", "--op", "fmax"],
            ["construct", "--family", "index3", "--group", "Z15"])
    for argv in runs:
        assert cli.run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in runs:
            assert cli.run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(random_graphs(6), random_graphs(6))
@settings(max_examples=80, deadline=None)
def test_listing_on_disjoint_unions_is_the_product(a, b):
    k = a.num_vertices
    g = disjoint_union(a, relabel(b, {v: v + k for v in b.labels}))
    sets = mis_masks(g.nbr, _free(g))
    product = [x | y << k for x in mis_masks(a.nbr, _free(a)) for y in mis_masks(b.nbr, _free(b))]
    assert sorted(sets) == sorted(product)
    assert len(sets) == count_mis(g) == count_mis(a) * count_mis(b)


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_adding_loops_never_increases_count(g):
    erased = Graph(g.labels, g.nbr, 0)
    assert count_mis(g) <= count_mis(erased)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_all_bounds_hold_on_random_graphs(g):
    certs = bound_certificates(g)
    assert all(c.holds for c in certs.checks if c.applicable)


@given(random_graphs(12))
@settings(max_examples=80, deadline=None)
def test_independent_set_count_matches_brute_force(g):
    n = g.num_vertices
    independent = sum(
        1
        for mask in range(1 << n)
        if not mask & g.loops_mask
        and not any(mask >> i & 1 and g.nbr[i] & mask for i in range(n))
    )
    assert count_independent(g.nbr, ((1 << n) - 1) & ~g.loops_mask) == independent


def exact_leq_power(count: int, base: int, expo: Fraction) -> bool:
    """count <= base**expo over the integers: count**den against base**num,
    or count**den * base**-num against 1 for a negative numerator."""
    if count <= 0:
        return True
    num, den = expo.numerator, expo.denominator
    if num < 0:
        return count**den * base**-num <= 1
    return count**den <= base**num


@st.composite
def power_claims(draw):
    base = draw(st.sampled_from([2, 3]))
    den = draw(st.integers(min_value=1, max_value=12))
    num = draw(st.integers(min_value=-30 * den, max_value=60 * den))
    near = base ** max(num // den, 0)  # counts on both sides of the bound
    count = draw(
        st.one_of(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=2**100),
            st.integers(min_value=max(near - 3, 0), max_value=near + 3),
        )
    )
    return count, base, Fraction(num, den)


@given(power_claims())
@settings(max_examples=400)
def test_leq_power_matches_exact_integers(claim):
    count, base, expo = claim
    assert _leq_power(count, base, expo) == exact_leq_power(count, base, expo)


@pytest.mark.parametrize("base", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 5, 17, 18, 40, 80])
def test_leq_power_at_exact_powers(base, k):
    assert _leq_power(base**k, base, Fraction(k))
    assert not _leq_power(base**k + 1, base, Fraction(k))
    # 3^40 - 1 and 3^40 have the same float log2: only integers tell them apart
    assert _leq_power(base**k - 1, base, Fraction(k))
    assert not _leq_power(base**k, base, Fraction(k) - Fraction(1, 125000))


@pytest.mark.parametrize("k", [16, 17, 18, 19])
def test_leq_power_one_off_a_power_of_two(k):
    step = Fraction(1, 125000)  # the largest denominator k/(100 D^2) reaches
    for count in (2**k - 1, 2**k + 1):
        for expo in (k - step, k + step):
            assert _leq_power(count, 2, expo) == exact_leq_power(count, 2, expo)
    # 2^{1/125000} - 1 is about 5.5e-6 = 1/180000, so both verdicts occur
    assert _leq_power(2**k + 1, 2, k + step) == (k >= 18)
    assert _leq_power(2**k - 1, 2, k - step) == (k <= 17)


def test_leq_power_small_counts_and_negative_exponents():
    for base in (2, 3):
        assert _leq_power(0, base, Fraction(-5, 3))
        assert _leq_power(1, base, Fraction(0))
        assert not _leq_power(1, base, Fraction(-1, 125000))
        assert _leq_power(1, base, Fraction(1, 125000))
        assert not _leq_power(2, base, Fraction(-7, 2))


@pytest.mark.parametrize("k", [1, 6, 12, 30])
def test_matching_meets_the_half_bound_exactly(k):
    g = matching(k)
    assert count_mis(g) == 2**k  # equality: the float gap is 0
    half = {c.name: c for c in bound_certificates(g).checks}["triangle-free-half"]
    assert half.applicable and half.holds and half.bound_log2 == k
    assert not _leq_power(2**k + 1, 2, Fraction(2 * k, 2))


def test_bound_verdicts_equal_integer_comparisons(monkeypatch):
    calls = []

    def recorded(count, base, expo):
        verdict = _leq_power(count, base, expo)
        calls.append((count, base, expo, verdict))
        return verdict

    monkeypatch.setattr(mis, "_leq_power", recorded)
    for _, g, p3_limit in bounds_corpus(0):
        bound_certificates(g, p3_limit)
    assert len(calls) > 1000
    assert max(expo.denominator for _, _, expo, _ in calls) == 125000
    for count, base, expo, verdict in calls:
        assert verdict == exact_leq_power(count, base, expo), (count, base, expo)


def restart_scan_triangle_free_part(g):
    """Reference greedy: rescan from the first vertex after every removal."""
    n = g.num_vertices
    active = (1 << n) - 1
    while True:
        tri = None
        for i in range(n):
            if not active >> i & 1:
                continue
            mi = g.nbr[i] & active
            for j in _bits(mi >> (i + 1) << (i + 1)):
                common = mi & g.nbr[j] & active
                if common:
                    k = (common & -common).bit_length() - 1
                    tri = (i, j, k)
                    break
            if tri:
                break
        if tri is None:
            return active
        drop = max(tri, key=lambda v: (g.nbr[v] & active).bit_count())
        active &= ~(1 << drop)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_free_part_matches_the_restart_scan(seed):
    for tag, g, _ in bounds_corpus(seed, 420):
        assert mis._triangle_free_part(g) == restart_scan_triangle_free_part(g), tag
