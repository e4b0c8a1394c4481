"""Generators for the lower-bound families of sum-free sets.

Each generator returns a `Family`: a list of sum-free sets together with a
window, a region in which no member can be extended.  Distinct members of a
family therefore saturate the window differently and must close up to
distinct maximal sum-free sets, so the family size is a lower bound for the
number of maximal sum-free sets of the ground structure.  `verify_family`
re-checks both properties exhaustively.

Families implemented:

* pair selection below an even anchor m (n or n-1): pick m plus one number
  from each pair {x, m - x} for odd x < m/2; no unused odd number below m
  can be added.  Gives 2^{floor(n/4)} members.
* interval selection for 4 | n: pick n/4, a set S' in the top quarter
  interval, and the n/4-shifted complement in the third quarter; no further
  element of the top quarter can be added.  Gives exactly 2^{n/4} members.
* Z_2^k: one endpoint of each edge of the perfect matching that a
  coordinate vector induces on the opposite half.  Gives 2^{n/4} members.
* Z_n prism window: the link graph of {k, n-2k} on [3k+1, 6k] decomposes
  into triangular prisms (6 maximal independent sets each) plus O(1)
  exceptional components.
* index-3 subgroup (odd order, 3 | n): a near-perfect matching with loops
  on one coset; 2^{(n-9)/6} extensions.
* exponent-7 groups: a perfect matching between two cosets with one loop;
  exactly 2^{n/7 - 1} extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graph import Graph, are_isomorphic, connected_components, prism
from .group import (
    AbelianGroup,
    GroupElem,
    GroupSubset,
    coset_partition,
    is_sum_free_group,
)
from .intset import IntSubset, is_sum_free, mask_is_sum_free
from .linkgraph import link_graph_group
from .mis import EnumerationLimitError, count_mis, enumerate_mis

# with verify_family on a 2-core Intel Xeon: ce-odd at n = 56 (2^14 members)
# takes 0.9 s and z2k at k = 6 (2^16) over 5 minutes; group link graphs cost
# O(order^2), and index3 takes 0.8 s on Z63 (512 members), 21 s on Z81 (4096)
FAMILY_MAX_MEMBERS = 1 << 14
FAMILY_MAX_ORDER = 64


@dataclass(frozen=True)
class Family:
    """Sum-free sets that extend to pairwise distinct maximal sets."""

    ground: str
    members: tuple[Union[IntSubset, GroupSubset], ...]
    window: Union[IntSubset, GroupSubset]
    claimed_size: int


class FamilyError(ValueError):
    pass


def verify_family(fam: Family) -> list[str]:
    """Exhaustive certificate: every member sum-free, members distinct and
    as many as claimed, and no member extendable inside the window."""
    problems: list[str] = []
    if len(fam.members) != fam.claimed_size:
        problems.append(
            f"{fam.ground}: {len(fam.members)} members, claimed {fam.claimed_size}"
        )
    if len(set(_key(m) for m in fam.members)) != len(fam.members):
        problems.append(f"{fam.ground}: duplicate members")
    for member in fam.members:
        if isinstance(member, IntSubset):
            if not is_sum_free(member):
                problems.append(f"{fam.ground}: member {member.members} not sum-free")
                continue
            assert isinstance(fam.window, IntSubset)
            for w in fam.window:
                if w not in member and mask_is_sum_free(
                    member.mask | (1 << (w - 1))
                ):
                    problems.append(
                        f"{fam.ground}: member {member.members} extendable by {w}"
                    )
        else:
            if not is_sum_free_group(member):
                problems.append(f"{fam.ground}: group member not sum-free")
                continue
            assert isinstance(fam.window, GroupSubset)
            grp = member.group
            for w in fam.window.members:
                if w not in member.members and is_sum_free_group(
                    GroupSubset.of(grp, set(member.members) | {w})
                ):
                    problems.append(f"{fam.ground}: member extendable by {w}")
    return problems


def _bound(log2_members: int = 0, order: int = 0) -> None:
    """Refuse 2^log2_members > FAMILY_MAX_MEMBERS or order > FAMILY_MAX_ORDER."""
    if log2_members >= FAMILY_MAX_MEMBERS.bit_length():
        raise EnumerationLimitError(f"members exceed the family limit {FAMILY_MAX_MEMBERS}")
    if order > FAMILY_MAX_ORDER:
        raise EnumerationLimitError(
            f"group order {order} exceeds the family limit {FAMILY_MAX_ORDER}"
        )


def _key(member: Union[IntSubset, GroupSubset]):
    if isinstance(member, IntSubset):
        return ("int", member.mask)
    return ("group", tuple(sorted(member.members)))


def ce_odd_family(n: int) -> Family:
    """Pairs {x, m-x} below the even anchor m = n or n-1."""
    if n < 4:
        raise FamilyError("need n >= 4")
    m = n if n % 2 == 0 else n - 1
    _bound(m // 4)  # one pair per odd x < m/2
    pairs = [(x, m - x) for x in range(1, (m + 1) // 2, 2) if x < m / 2]
    members = []
    for pick in range(1 << len(pairs)):
        chosen = {m}
        for i, (a, b) in enumerate(pairs):
            chosen.add(a if pick >> i & 1 else b)
        members.append(IntSubset.of(n, chosen))
    window = IntSubset.of(n, [x for x in range(1, m, 2)])
    return Family(f"n={n}", tuple(members), window, 1 << len(pairs))


def interval_family(n: int) -> Family:
    """Quarter-interval selection; requires 4 | n."""
    if n % 4:
        raise FamilyError("interval family needs 4 | n")
    q = n // 4
    _bound(q)
    top = list(range(3 * q + 1, n + 1))
    members = []
    for pick in range(1 << len(top)):
        s_prime = {x for i, x in enumerate(top) if pick >> i & 1}
        chosen = {q} | s_prime | {x - q for x in top if x not in s_prime}
        members.append(IntSubset.of(n, chosen))
    window = IntSubset.of(n, top)
    return Family(f"n={n}", tuple(members), window, 1 << len(top))


def z2k_family(k: int) -> Family:
    """One endpoint per matching edge in Z_2^k; 2^{2^k / 4} members."""
    if k < 2:
        raise FamilyError("need k >= 2")
    _bound(1 << min(k - 2, 64))  # 2^{k-2} edges; 2^64 is past any limit
    grp = AbelianGroup((2,) * k)
    x = tuple([0, 1] + [0] * (k - 2))
    half = [g for g in grp.elements() if g[0] == 1]
    # the link graph of x on the half is a perfect matching g ~ g + x
    edges = []
    seen = set()
    for g in half:
        if g in seen:
            continue
        partner = grp.add(g, x)
        seen.add(g)
        seen.add(partner)
        edges.append((g, partner))
    members = []
    for pick in range(1 << len(edges)):
        chosen = {x}
        for i, (a, b) in enumerate(edges):
            chosen.add(a if pick >> i & 1 else b)
        members.append(GroupSubset.of(grp, chosen))
    window = GroupSubset.of(grp, half)
    return Family(grp.describe(), tuple(members), window, 1 << len(edges))


@dataclass(frozen=True)
class PrismCensus:
    n: int
    k: int
    window_size: int
    graph: Graph
    prism_components: int
    other_components: int
    mis: int


def zn_prism_census(n: int) -> PrismCensus:
    k = n // 9
    if k < 1:
        raise FamilyError("need n >= 9")
    _bound(order=n)
    grp = AbelianGroup((n,))
    s = GroupSubset.of(grp, {(k % n,), ((n - 2 * k) % n,)})
    window = GroupSubset.of(grp, {(v,) for v in range(3 * k + 1, 6 * k + 1)})
    graph = link_graph_group(grp, s, window)
    prisms = 0
    others = 0
    reference = prism()
    for comp in connected_components(graph):
        if comp.num_vertices == 6 and comp.loops_mask == 0 and are_isomorphic(
            comp, reference
        ):
            prisms += 1
        else:
            others += 1
    return PrismCensus(
        n, k, len(window.members), graph, prisms, others, count_mis(graph)
    )


def _link_family(group: AbelianGroup, x: GroupElem, window: GroupSubset) -> Family:
    """{x} joined with each maximal independent set of the link graph of x
    on `window`."""
    link = link_graph_group(group, GroupSubset.of(group, {x}), window)
    members = [
        GroupSubset.of(group, {x} | {group.from_index(i) for i in ind})
        for ind in enumerate_mis(link)
    ]
    return Family(group.describe(), tuple(members), window, count_mis(link))


def index3_family(group: AbelianGroup) -> Family:
    """Matching-with-loops construction on an index-3 coset; requires odd
    order divisible by 3."""
    n = group.order
    _bound(order=n)
    if n % 3 or n % 2 == 0:
        raise FamilyError("need odd order divisible by 3")
    cosets = coset_partition(group, 3)
    return _link_family(group, min(cosets[2].members), cosets[1])


def exponent7_family(group: AbelianGroup) -> Family:
    """Perfect-matching construction between two index-7 cosets; requires
    exponent exactly 7 (then the count is 2^{n/7 - 1})."""
    _bound(order=group.order)
    if group.exponent != 7:
        raise FamilyError("need exponent 7")
    cosets = coset_partition(group, 7)
    window = GroupSubset.of(group, cosets[2].members | cosets[3].members)
    return _link_family(group, min(cosets[1].members), window)
