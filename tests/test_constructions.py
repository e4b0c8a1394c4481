"""Lower-bound families and their distinct-closure certificates."""

from __future__ import annotations

from dataclasses import replace

import pytest

from sumfree.census import enumerate_maximal_sum_free, f_max_oracle
from sumfree.constructions import (
    FamilyError,
    ce_odd_family,
    exponent7_family,
    index3_family,
    interval_family,
    verify_family,
    z2k_family,
    zn_prism_census,
)
from sumfree.group import AbelianGroup, GroupSubset
from sumfree.intset import IntSubset, is_sum_free
from sumfree.mis import count_mis


def test_ce_odd_family_sizes_and_certificates():
    for n in range(4, 19):
        fam = ce_odd_family(n)
        assert len(fam.members) == 2 ** (n // 4), n
        assert verify_family(fam) == []
    with pytest.raises(FamilyError):
        ce_odd_family(3)


def test_ce_odd_expansion_n8():
    # in the canonical order `construct` prints them
    fam = ce_odd_family(8)
    members = [m.members for m in fam.members]
    assert members == [(1, 3, 8), (1, 5, 8), (3, 7, 8), (5, 7, 8)]
    assert all(is_sum_free(IntSubset.of(8, m)) for m in members)


def test_ce_odd_closures_pairwise_distinct():
    # beyond the window certificate: full maximal closures stay distinct
    for n in (8, 10, 12, 14, 16, 18):
        fam = ce_odd_family(n)
        maximal = enumerate_maximal_sum_free(n)
        closures = []
        for member in fam.members:
            owners = [mm for mm in maximal if mm & member.mask == member.mask]
            assert owners, "member must extend to some maximal set"
            closures.append(frozenset(owners))
        # distinct members never share all their closures
        for i, a in enumerate(closures):
            for b in closures[i + 1 :]:
                assert not (a & b), f"n={n}: shared maximal closure"


def test_interval_family():
    for n in (8, 12, 16):
        fam = interval_family(n)
        assert len(fam.members) == 2 ** (n // 4)
        assert verify_family(fam) == []
        assert all(n // 4 in m for m in fam.members)
    with pytest.raises(FamilyError):
        interval_family(10)


def test_interval_expansion_n8():
    fam = interval_family(8)
    assert [m.members for m in fam.members] == [
        (2, 5, 6),
        (2, 5, 8),
        (2, 6, 7),
        (2, 7, 8),
    ]


def test_families_give_lower_bounds():
    for n in (8, 12, 16):
        assert f_max_oracle(n) >= len(interval_family(n).members)
        assert f_max_oracle(n) >= len(ce_odd_family(n).members)


def test_z2k_family():
    for k in (2, 3, 4):
        fam = z2k_family(k)
        assert len(fam.members) == 2 ** (2**k // 4)
        assert verify_family(fam) == []
    with pytest.raises(FamilyError):
        z2k_family(1)


def test_prism_census():
    expected = {27: (1, 1, 6), 36: (1, 2, 12), 45: (2, 1, 36)}
    for n, (prisms, others, mis) in expected.items():
        census = zn_prism_census(n)
        assert census.prism_components == prisms
        assert census.other_components == others
        assert census.mis == mis
        assert census.prism_components >= census.window_size // 6 - 2
        assert census.mis >= 6 ** (census.window_size // 6 - 2)
    g = zn_prism_census(27).graph
    assert g.num_vertices == 9
    assert count_mis(g) == 6
    # off the exact 9k grid the census still builds and counts
    c = zn_prism_census(29)
    assert c.window_size == 9 and c.mis >= 1


def _ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [()]
    return [(f, *rest) for f in range(2, n + 1) if n % f == 0
            for rest in _ordered_factorizations(n // f)]


def test_index3_family_size_depends_on_the_coset_axis():
    # H is the kernel on the first axis divisible by 3: the anchor has order
    # 3 exactly when that axis is Z3, and then the link graph has one loop
    # fewer and no forced vertex; the groups are every factorisation of the
    # odd orders 3, 9, ..., 63
    groups = [AbelianGroup(f) for n in range(3, 64, 6)
              for f in _ordered_factorizations(n)]
    assert len(groups) == 41
    for grp in groups:
        n = grp.order
        axis = next(f for f in grp.factors if f % 3 == 0)
        want = 2 ** ((n - 3) // 6) if axis == 3 else 2 ** ((n - 9) // 6)
        fam = index3_family(grp)
        assert len(fam.members) == fam.claimed_size == want, grp.describe()
    sizes = {d: len(index3_family(AbelianGroup.parse(d)).members)
             for d in ("Z15", "Z3xZ5", "Z9", "Z3xZ3", "Z21", "Z3xZ7",
                       "Z27", "Z9xZ3", "Z3xZ9")}
    assert sizes == {"Z15": 2, "Z3xZ5": 4, "Z9": 1, "Z3xZ3": 2, "Z21": 4,
                     "Z3xZ7": 8, "Z27": 8, "Z9xZ3": 8, "Z3xZ9": 16}


def test_index3_family():
    fam = index3_family(AbelianGroup((9,)))
    assert len(fam.members) == 1
    assert verify_family(fam) == []
    fam = index3_family(AbelianGroup((21,)))
    assert len(fam.members) == 4 == 2 ** ((21 - 9) // 6)
    assert verify_family(fam) == []
    with pytest.raises(FamilyError):
        index3_family(AbelianGroup((6,)))  # even order


def test_exponent7_family():
    fam = exponent7_family(AbelianGroup((7,)))
    assert len(fam.members) == 1
    assert verify_family(fam) == []
    fam = exponent7_family(AbelianGroup((7, 7)))
    assert len(fam.members) == 2**6
    assert verify_family(fam) == []
    with pytest.raises(FamilyError):
        exponent7_family(AbelianGroup((14,)))


def test_verify_family_reports_broken_integer_families():
    fam = ce_odd_family(8)  # {1,3,8}, {1,5,8}, {3,7,8}, {5,7,8} on the odds below 8
    first = fam.members[0]
    assert verify_family(replace(fam, claimed_size=5)) == ["n=8: 4 members, claimed 5"]
    assert verify_family(replace(fam, members=fam.members[:3] + (first,))) == [
        "n=8: duplicate members"]
    assert verify_family(replace(fam, members=(IntSubset.of(8, (1, 7, 8)),
                                               *fam.members[1:]))) == [
        "n=8: member (1, 7, 8) not sum-free"]
    assert verify_family(replace(fam, members=(IntSubset.of(8, (1, 8)),
                                               *fam.members[1:]))) == [
        "n=8: member (1, 8) extendable by 3", "n=8: member (1, 8) extendable by 5"]


def test_verify_family_reports_broken_group_families():
    fam = z2k_family(2)  # (0,1) with (1,0) or (1,1) on the half {(1,0), (1,1)}
    grp = AbelianGroup((2, 2))
    assert [sorted(m.members) for m in fam.members] == [
        [(0, 1), (1, 0)], [(0, 1), (1, 1)]]
    assert verify_family(replace(fam, claimed_size=3)) == ["Z2xZ2: 2 members, claimed 3"]
    assert verify_family(replace(fam, members=(fam.members[0],) * 2)) == [
        "Z2xZ2: duplicate members"]
    # (1,0) + (1,1) = (0,1)
    triple = GroupSubset.of(grp, {(0, 1), (1, 0), (1, 1)})
    assert verify_family(replace(fam, members=(triple, fam.members[1]))) == [
        "Z2xZ2: member ((0, 1), (1, 0), (1, 1)) not sum-free"]
    alone = GroupSubset.of(grp, {(0, 1)})
    assert verify_family(replace(fam, members=(alone, fam.members[1]))) == [
        "Z2xZ2: member ((0, 1),) extendable by (1, 0)",
        "Z2xZ2: member ((0, 1),) extendable by (1, 1)"]
