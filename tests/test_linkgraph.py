"""Link graphs: edge/loop rules, the upper-half family, even-number links."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.graph import is_triangle_free
from sumfree.group import AbelianGroup, GroupSubset
from sumfree.intset import iter_mask, mask_blocked, mask_is_sum_free
from sumfree.linkgraph import (
    link_family,
    link_graph_group,
    link_graph_ints,
    link_masks,
    link_pair_even,
    link_single_even,
)
from sumfree.mis import count_mis


def unordered_schur(a, b, c):
    """The definition the link-graph edges are tested against: {a, b, c}
    is a Schur triple under some ordering."""
    return a + b == c or a + c == b or b + c == a


def test_edge_rule_examples():
    g = link_graph_ints({2}, [5, 7])
    assert g.edges() == [(5, 7)]  # 5 + 2 = 7
    g = link_family(8, 2)
    assert g.edges() == [(5, 7), (6, 8)]


def test_matching_structure_and_added_loops():
    g = link_family(16, 4)
    assert g.edges() == [(9, 13), (10, 14), (11, 15), (12, 16)]
    assert count_mis(g) == 16
    g = link_family(16, 4, [8])
    assert [v for v, w in g.edges() if v == w] == [12, 16]  # 4+8 and 8+8


def test_loops_cover_sums_and_shifts():
    # every vertex of (S+S) | (S+m) inside the upper half carries a loop
    rng = random.Random(5)
    for _ in range(200):
        n = rng.choice([12, 16, 20, 24])
        m = rng.randint(1, n // 2)
        pool = [x for x in range(1, n // 2 + 1)]
        s = sorted(rng.sample(pool, k=rng.randint(0, 3)))
        if not mask_is_sum_free(
            sum(1 << (x - 1) for x in set(s) | {m})
        ):
            continue
        g = link_family(n, m, s)
        loop_targets = {a + b for a in s for b in s} | {a + m for a in s}
        for v in g.labels:
            if v in loop_targets:
                assert g.loops_mask >> g.labels.index(v) & 1, (n, m, s, v)


def test_link_graph_ints_matches_definition():
    # S may overlap B and need not be sum-free
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 24)
        s = rng.sample(range(1, n + 1), k=rng.randint(0, min(4, n)))
        b = [v for v in range(1, n + 1) if rng.random() < 0.6]
        g = link_graph_ints(s, b)
        assert g.labels == tuple(b)
        for i, x in enumerate(b):
            for j, y in enumerate(b):
                edge = i != j and any(unordered_schur(x, y, z) for z in s)
                assert bool(g.nbr[i] >> j & 1) == edge, (s, x, y)
            loop = (
                2 * x in s
                or any(x == z + w for z in s for w in s)
                or any(x == z - w > 0 for z in s for w in s)
            )
            assert bool(g.loops_mask >> i & 1) == loop, (s, x)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
        )
    )
)
def test_link_masks_match_schur_triples(args):
    # element space, x at bit x - 1; S and B may overlap and S need not be
    # sum-free
    n, s_mask, b_mask = args
    s = list(iter_mask(s_mask))
    nbr = link_masks(s_mask, b_mask)
    assert len(nbr) == b_mask.bit_length()
    for x in range(1, len(nbr) + 1):
        in_b = b_mask >> (x - 1) & 1
        want = sum(
            1 << (y - 1)
            for y in iter_mask(b_mask)
            if in_b and y != x and any(unordered_schur(x, y, z) for z in s)
        )
        assert nbr[x - 1] == want, (s, x)
    loops = sum(
        1 << (x - 1)
        for x in iter_mask(b_mask)
        if 2 * x in s
        or any(x == z + w for z in s for w in s)
        or any(x == z - w for z in s for w in s)
    )
    assert b_mask & mask_blocked(s_mask) == loops, s


@pytest.mark.parametrize("desc", ["Z2xZ4", "Z9", "Z3xZ3", "Z2xZ2xZ2", "Z12", "Z15"])
def test_link_graph_group_matches_definition(desc):
    grp = AbelianGroup.parse(desc)
    els = grp.elements()
    add = grp.add

    def schur(x, y, z):
        return add(x, y) == z or add(x, z) == y or add(y, z) == x

    rng = random.Random(31)
    for _ in range(100):
        s = rng.sample(els, k=rng.randint(0, 4))
        b = rng.sample(els, k=rng.randint(0, len(els)))
        g = link_graph_group(grp, GroupSubset.of(grp, s), GroupSubset.of(grp, b))
        verts = [grp.from_index(v) for v in g.labels]
        assert sorted(verts) == sorted(b)
        for i, x in enumerate(verts):
            for j, y in enumerate(verts):
                edge = i != j and any(schur(x, y, z) for z in s)
                assert bool(g.nbr[i] >> j & 1) == edge, (desc, s, x, y)
            loop = (
                add(x, x) in s
                or any(x == add(z, w) for z in s for w in s)
                or any(x == grp.sub(z, w) for z in s for w in s)
            )
            assert bool(g.loops_mask >> i & 1) == loop, (desc, s, x)


def test_spec_objects_validate():
    with pytest.raises(ValueError):
        link_family(12, 7)
    with pytest.raises(ValueError):
        link_family(12, 3, [8])
    with pytest.raises(ValueError):
        link_family(12, 0)
    with pytest.raises(ValueError):
        link_single_even(10, 3)
    with pytest.raises(ValueError):
        link_pair_even(10, 4, 4)


def test_link_graph_dispatch():
    assert link_graph_ints([2], [5, 7]).edges() == [(5, 7)]


def test_group_link_perfect_matching():
    grp = AbelianGroup((2, 2))
    x = GroupSubset.of(grp, [(0, 1)])
    u = GroupSubset.of(grp, [(1, 0), (1, 1)])
    g = link_graph_group(grp, x, u)
    assert g.num_vertices == 2 and g.edge_count() == 1 and g.loops_mask == 0


def test_single_even_decompositions():
    g = link_single_even(24, 20)
    comps = sorted(
        (c.num_vertices, c.edge_count()) for c in _components(g)
    )
    assert comps == [(2, 1), (2, 1), (2, 1), (3, 2), (3, 2)]
    assert count_mis(g) == 2**5
    assert count_mis(link_single_even(24, 18)) == 2**4
    g = link_single_even(8, 2)
    assert g.edges() == [(1, 1), (1, 3), (3, 5), (5, 7)]


def _components(g):
    from sumfree.graph import connected_components

    return connected_components(g)


def test_triangle_free_when_s_below_b():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(6, 40)
        cut = rng.randint(2, n - 1)
        s_pool = list(range(1, cut))
        s: list[int] = []
        mask = 0
        for x in rng.sample(s_pool, k=min(len(s_pool), 6)):
            trial = mask | (1 << (x - 1))
            if mask_is_sum_free(trial):
                mask = trial
                s.append(x)
        b = [v for v in range(cut, n + 1) if rng.random() < 0.7]
        assert is_triangle_free(link_graph_ints(s, b))


def test_triangle_possible_without_sum_free_hypothesis():
    # {10,11,13} spans a triangle through the non-sum-free set {1,2,3}
    g = link_graph_ints({1, 2, 3}, [10, 11, 13])
    assert not is_triangle_free(g)


def test_family_packing_bound():
    # with b = n/2 - D the family graph loses a factor 2^{D/25}:
    # MIS(L(n, m, S)) <= 2^{n/4 - D/25} whenever D >= 1, D <= m <= n/2 - 2D
    checked = 0
    for n in (24, 28, 32):
        for d in (1, 2, 3):
            b = n // 2 - d
            for extra in ([], [n // 2]):
                s = [b] + extra
                for m in (n // 4, n // 4 - 1):
                    if not (d <= m <= n // 2 - 2 * d):
                        continue
                    seed_mask = sum(1 << (x - 1) for x in set(s) | {m})
                    if not mask_is_sum_free(seed_mask):
                        continue
                    mis = count_mis(link_family(n, m, s))
                    assert mis**100 <= 2 ** (25 * n - 4 * d), (n, m, s)
                    checked += 1
    assert checked >= 20


def test_family_loop_count_bound():
    # when S sits just below n/2 with S+S and S+m inside the upper half and
    # disjoint, MIS(L(n, m, S)) <= 2^{n/4 - (|S+S| + |S|)/2}
    checked = 0
    for n in (24, 28, 32):
        for s in ([n // 2 - 1, n // 2], [n // 2 - 2, n // 2], [n // 2 - 2, n // 2 - 1, n // 2]):
            for m in (n // 4 - 1, n // 4 - 2, n // 4 - 3):
                seed_mask = sum(1 << (x - 1) for x in set(s) | {m})
                if not mask_is_sum_free(seed_mask):
                    continue
                ss = {a + b for a in s for b in s}
                sm = {a + m for a in s}
                if not all(n // 2 < v <= n for v in ss | sm) or ss & sm:
                    continue
                mis = count_mis(link_family(n, m, s))
                expo2 = n // 2 - len(ss) - len(s)  # twice the exponent
                assert mis**2 <= 2**expo2, (n, m, s)
                checked += 1
                break
    assert checked >= 8
