"""Finite abelian groups: arithmetic, sum-free search, cosets, counts."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from sumfree.group import (
    AbelianGroup,
    GroupSubset,
    coset_partition,
    enumerate_maximal_sum_free_group,
    enumerate_sum_free_group,
    f_group,
    f_max_group,
    is_sum_free_group,
    max_sum_free,
    mu,
    unique_half,
)

Z5 = AbelianGroup((5,))
Z22 = AbelianGroup((2, 2))


def brute_force_sum_free(group: AbelianGroup) -> tuple[list, list]:
    """Oracle over all subsets: every sum-free set and every maximal one, as
    sorted tuples of element indices."""
    elements = group.elements()
    sets, maximal = [], []
    for r in range(len(elements) + 1):
        for combo in combinations(elements, r):
            s = GroupSubset.of(group, combo)
            if not is_sum_free_group(s):
                continue
            key = tuple(sorted(map(group.index_of, combo)))
            sets.append(key)
            extendable = any(
                g not in s.members
                and is_sum_free_group(GroupSubset.of(group, set(combo) | {g}))
                for g in elements
            )
            if not extendable:
                maximal.append(key)
    return sets, maximal


def indices(group: AbelianGroup, s: GroupSubset) -> tuple[int, ...]:
    return tuple(sorted(map(group.index_of, s.members)))


def test_arithmetic():
    assert Z5.add((3,), (4,)) == (2,)
    assert AbelianGroup((7,)).neg((3,)) == (4,)
    assert Z22.add((1, 0), (1, 1)) == (0, 1)
    with pytest.raises(ValueError):
        Z5.add((3,), (1, 0))


def test_parse_roundtrip():
    g = AbelianGroup.parse("Z4xZ2xZ2")
    assert g.factors == (4, 2, 2)
    assert g.describe() == "Z4xZ2xZ2"
    assert g.order == 16 and g.exponent == 4
    with pytest.raises(ValueError):
        AbelianGroup.parse("Q8")


def test_index_round_trip():
    g = AbelianGroup((3, 4))
    for e in g.elements():
        assert g.from_index(g.index_of(e)) == e


def test_group_subset_mask_round_trip():
    rng = random.Random(7)
    for desc in ("Z2", "Z7", "Z2xZ2", "Z3xZ4", "Z2xZ2xZ6", "Z4xZ6", "Z24"):
        g = AbelianGroup.parse(desc)
        els = g.elements()
        for _ in range(20):
            chosen = rng.sample(els, k=rng.randint(0, len(els)))
            s = GroupSubset.of(g, chosen)
            assert s.members == tuple(sorted(chosen)) and len(s) == len(chosen), desc
            assert all((x in s) == (x in chosen) for x in els)
        assert (1,) * (len(g.factors) + 1) not in s
        with pytest.raises(ValueError, match="outside the group"):
            GroupSubset(g, 1 << g.order)


def _ordered_factorizations(n: int):
    if n == 1:
        yield ()
    for f in range(2, n + 1):
        if n % f == 0:
            for rest in _ordered_factorizations(n // f):
                yield (f,) + rest


def test_table_and_negation_match_the_tuple_arithmetic():
    groups = [AbelianGroup(fs) for n in range(2, 25) for fs in _ordered_factorizations(n)]
    assert len(groups) == 87
    groups += [AbelianGroup.parse(d) for d in ("Z63", "Z3xZ21", "Z2xZ2xZ2xZ2xZ2xZ2")]
    for g in groups:
        els = [g.from_index(i) for i in range(g.order)]
        assert g.table == [[g.index_of(g.add(x, y)) for y in els] for x in els], g
        assert g.negation == [g.index_of(g.neg(x)) for x in els], g
        assert g.table[0] == list(range(g.order))  # index 0 is the identity


@pytest.mark.parametrize("desc", ["Z2xZ4", "Z9", "Z12", "Z3xZ3", "Z2xZ2xZ2", "Z15"])
def test_blocked_matches_the_definition(desc):
    grp = AbelianGroup.parse(desc)
    assert grp.blocked(0) == 0
    rng = random.Random(43)
    sum_free = 0
    for trial in range(300):
        # small sets are mostly sum-free, uniform masks mostly not
        k = rng.randint(1, 4) if trial % 2 else rng.randint(0, grp.order)
        s = GroupSubset.of(grp, rng.sample(grp.elements(), k=k))
        blocked = grp.blocked(s.mask)
        assert (s.mask & blocked == 0) == is_sum_free_group(s), (desc, s.members)
        if s.mask and not s.mask & blocked:
            sum_free += 1
            for w in range(grp.order):
                if not s.mask >> w & 1:
                    joined = GroupSubset(grp, s.mask | 1 << w)
                    assert (not blocked >> w & 1) == is_sum_free_group(joined), (desc, s, w)
    assert sum_free >= 30, desc


def test_is_sum_free_group():
    assert is_sum_free_group(GroupSubset.of(Z22, [(0, 1), (1, 0)]))
    assert is_sum_free_group(GroupSubset.of(Z5, [(1,), (4,)]))
    assert not is_sum_free_group(GroupSubset.of(Z5, [(0,)]))  # 0 + 0 = 0


def test_mu_values():
    assert mu(AbelianGroup((2,))) == 1
    assert mu(Z5) == 2
    assert mu(AbelianGroup((2, 2, 2))) == 4
    for k in range(1, 5):
        grp = AbelianGroup((2,) * k)
        assert mu(grp) == 2 ** (k - 1)
    with pytest.raises(ValueError):
        mu(AbelianGroup((5, 7)))


def test_mu_range_bounds():
    # 2n/7 <= mu(G) <= n/2 on a battery of small groups
    for desc in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
                 "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z12", "Z3xZ5"):
        grp = AbelianGroup.parse(desc)
        m = mu(grp)
        assert 2 * grp.order <= 7 * m, desc
        assert 2 * m <= grp.order, desc


def test_max_sum_free_is_witness():
    w = max_sum_free(AbelianGroup((9,)))
    assert is_sum_free_group(w)
    assert len(w.members) == mu(AbelianGroup((9,)))


def test_unique_half():
    assert unique_half(Z5, (1,)) == (3,)
    assert unique_half(AbelianGroup((9,)), (0,)) == (0,)
    g15 = AbelianGroup((3, 5))
    for x in g15.elements():
        y = unique_half(g15, x)
        assert g15.add(y, y) == x
    with pytest.raises(ValueError):
        unique_half(AbelianGroup((4,)), (2,))


def test_coset_partition():
    cosets = coset_partition(AbelianGroup((9,)), 3)
    assert [sorted(v[0] for v in c.members) for c in cosets] == [
        [0, 3, 6],
        [1, 4, 7],
        [2, 5, 8],
    ]
    assert [len(c) for c in coset_partition(AbelianGroup((7,)), 7)] == [1] * 7
    with pytest.raises(ValueError):
        coset_partition(AbelianGroup((4,)), 3)


def test_group_counts_against_oracle():
    # every factorization into cyclic factors of order <= 12
    for desc in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z2xZ3", "Z7", "Z8",
                 "Z2xZ4", "Z2xZ2xZ2", "Z9", "Z3xZ3", "Z10", "Z2xZ5", "Z11",
                 "Z12", "Z2xZ6", "Z3xZ4", "Z2xZ2xZ3"):
        grp = AbelianGroup.parse(desc)
        sets, maximal = brute_force_sum_free(grp)
        assert f_group(grp) == len(sets), desc
        assert {indices(grp, s) for s in enumerate_sum_free_group(grp)} == set(sets)
        assert f_max_group(grp) == len(maximal), desc
        assert [
            indices(grp, s) for s in enumerate_maximal_sum_free_group(grp)
        ] == sorted(maximal), desc
        longest = max(map(len, sets))
        first = min(s for s in sets if len(s) == longest)
        assert indices(grp, max_sum_free(grp)) == first, desc
    assert f_group(AbelianGroup((2,))) == 2
    assert f_max_group(AbelianGroup((2,))) == 1


def test_order_limit(monkeypatch):
    grp = AbelianGroup((5, 5))
    for search in (mu, max_sum_free, enumerate_sum_free_group,
                   enumerate_maximal_sum_free_group, f_group, f_max_group):
        with pytest.raises(ValueError, match="exceeds the search limit 24"):
            search(grp)
    monkeypatch.setattr("sumfree.group.GROUP_MAX_ORDER", 25)
    assert mu(grp) == 10  # (p + 1) n / 3p for p = 5


def test_maximal_enumeration_members_are_maximal():
    grp = AbelianGroup((2, 2))
    maximal = enumerate_maximal_sum_free_group(grp)
    assert len(maximal) == 3
    for s in maximal:
        assert is_sum_free_group(s)
        for g in grp.elements():
            if g not in s.members:
                assert not is_sum_free_group(
                    GroupSubset.of(grp, set(s.members) | {g})
                )
