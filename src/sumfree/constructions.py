"""Generators for the lower-bound families of sum-free sets.

Every family is one recipe: an anchor x and a window W give the members
{x} + I for each maximal independent set I of the link graph of {x} on W
(`link_graph_ints` over [n], `link_graph_group` over a group).  The window
is the graph's vertex set, so members differ only inside it and none can
be extended there; distinct members therefore close up to distinct maximal
sum-free sets, and the family size is a lower bound for the number of
maximal sum-free sets.  `verify_family` re-checks both properties, apart
from the MIS listing, from each member's blocked mask (`mask_blocked` over
[n], `AbelianGroup.blocked` over a group).

Families implemented (anchor; window; claimed size):

* pair selection: the even anchor m = n or n - 1; the odd numbers below m,
  where the link graph pairs x with m - x (with a loop at m/2 if odd);
  2^{floor(n/4)} members.
* interval selection for 4 | n: n/4; (n/2, n], a perfect matching
  x ~ x + n/4; exactly 2^{n/4} members.
* Z_2^k: (0, 1, 0, ..., 0); the half with first coordinate 1, a perfect
  matching g ~ g + x; 2^{2^{k-2}} = 2^{n/4} members.
* index-3 (odd order, 3 | n): the least a in coset 2; coset 1, where
  x ~ a - x with loops at a/2 and 2a.  Cosets are taken on the first axis
  divisible by 3: if its order is at least 9, -a is forced and there are
  2^{(n-9)/6} members; if it is Z_3, a/2 = 2a and there are 2^{(n-3)/6}
  (Z15 gives 2, Z3xZ5 gives 4).  The claimed size is this closed form.
* exponent-7 groups: the least element of coset 1; cosets 2 and 3, a perfect
  matching with one loop; exactly 2^{n/7 - 1} members.

The Z_n prism census is not a family: the link graph of {k, n-2k} on
[3k+1, 6k] decomposes into triangular prisms (6 maximal independent sets
each) plus O(1) exceptional components, and `zn_prism_census` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .graph import Graph, are_isomorphic, connected_components, prism
from .group import AbelianGroup, GroupSubset, coset_partition
from .intset import IntSubset, mask_blocked
from .linkgraph import link_graph_group, link_graph_ints
from .mis import EnumerationLimitError, count_mis, enumerate_mis

# every family is bounded by its claimed member count.  Built and verified
# on a 2-core Intel Xeon: 2^16 members took 1.3 s for ce-odd and interval at
# n = 64, 5.2 s for z2k at k = 6, 6.0 and 5.9 s for index3 on Z105 and
# Z3xZ33; exponent7 on Z7xZ7 (2^6) took 2 ms.  The next sizes are 2^17
# (ce-odd and interval at 68, index3 on Z3xZ35), 2^32 (z2k at 7) and 2^48
# (exponent7 on Z7xZ7xZ7)
FAMILY_MAX_MEMBERS = 1 << 16
# zn-prism has no members: its census took 8 ms at n = 251, and from 252 on
# its count refuses the window (81 or more loop-free vertices past
# mis._VERTEX_LIMIT), while the group's order^2 addition table alone grows
# to 0.19 s and 46 MB at 1000, 0.88 s and 154 MB at 2000
FAMILY_MAX_ORDER = 251


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
    as many as claimed, and no member extendable inside the window: M is
    sum-free iff M & blocked(M) is empty, and then the window elements
    outside M | blocked(M) extend it, over [n] and over a group alike."""
    problems: list[str] = []
    if len(fam.members) != fam.claimed_size:
        problems.append(
            f"{fam.ground}: {len(fam.members)} members, claimed {fam.claimed_size}"
        )
    if len(set(fam.members)) != len(fam.members):
        problems.append(f"{fam.ground}: duplicate members")
    for m in fam.members:
        blocked = (m.group.blocked(m.mask) if isinstance(m, GroupSubset)
                   else mask_blocked(m.mask))
        if m.mask & blocked:
            problems.append(f"{fam.ground}: member {m.members} not sum-free")
            continue
        problems += [f"{fam.ground}: member {m.members} extendable by {w}"
                     for w in replace(m, mask=fam.window.mask & ~m.mask & ~blocked).members]
    return problems


def _bound(log2_members: int = 0, order: int = 0) -> None:
    """Refuse 2^log2_members > FAMILY_MAX_MEMBERS or order > FAMILY_MAX_ORDER."""
    if log2_members >= FAMILY_MAX_MEMBERS.bit_length():
        raise EnumerationLimitError(f"members exceed the family limit {FAMILY_MAX_MEMBERS}")
    if order > FAMILY_MAX_ORDER:
        raise EnumerationLimitError(
            f"group order {order} exceeds the family limit {FAMILY_MAX_ORDER}"
        )


def _int_family(n: int, anchor: int, window: range, size: int) -> Family:
    """{anchor} joined with each maximal independent set of its link graph
    on `window`, a set of integers in [n]."""
    link = link_graph_ints({anchor}, window)
    members = [IntSubset.of(n, (anchor, *ind)) for ind in enumerate_mis(link)]
    return Family(f"n={n}", tuple(members), IntSubset.of(n, window), size)


def _group_family(group: AbelianGroup, anchor: int, window: GroupSubset,
                  size: int) -> Family:
    """The anchor's bit joined with each maximal independent set of its link
    graph on `window`."""
    link = link_graph_group(group, GroupSubset(group, anchor), window)
    members = [GroupSubset(group, anchor | sum(1 << i for i in ind))
               for ind in enumerate_mis(link)]
    return Family(group.describe(), tuple(members), window, size)


def ce_odd_family(n: int) -> Family:
    """Pairs {x, m-x} below the even anchor m = n or n-1."""
    if n < 4:
        raise FamilyError("need n >= 4")
    m = n if n % 2 == 0 else n - 1
    _bound(m // 4)  # one pair per odd x < m/2
    return _int_family(n, m, range(1, m, 2), 2 ** (n // 4))


def interval_family(n: int) -> Family:
    """Quarter-interval selection; requires 4 | n."""
    if n % 4:
        raise FamilyError("interval family needs 4 | n")
    q = n // 4
    _bound(q)
    return _int_family(n, q, range(2 * q + 1, n + 1), 2**q)


def z2k_family(k: int) -> Family:
    """One endpoint per matching edge in Z_2^k; 2^{2^k / 4} members."""
    if k < 2:
        raise FamilyError("need k >= 2")
    _bound(1 << min(k - 2, 64))  # 2^{k-2} edges; 2^64 is past any limit
    grp = AbelianGroup((2,) * k)
    half = GroupSubset(grp, (1 << 2**k) - (1 << 2 ** (k - 1)))  # first coordinate 1
    anchor = 1 << grp.index_of((0, 1) + (0,) * (k - 2))
    return _group_family(grp, anchor, half, 2 ** 2 ** (k - 2))


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
    s = GroupSubset(grp, 1 << k | 1 << n - 2 * k)
    window = GroupSubset(grp, ((1 << 3 * k) - 1) << 3 * k + 1)  # [3k+1, 6k]
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
        n, k, len(window), graph, prisms, others, count_mis(graph)
    )


def index3_family(group: AbelianGroup) -> Family:
    """Matching-with-loops construction on an index-3 coset; requires odd
    order divisible by 3."""
    n = group.order
    if n % 3 or n % 2 == 0:
        raise FamilyError("need odd order divisible by 3")
    factor = next(f for f in group.factors if f % 3 == 0)  # the cosets' axis
    log2_size = (n - 3) // 6 if factor == 3 else (n - 9) // 6
    _bound(log2_size)
    cosets = coset_partition(group, 3)
    return _group_family(group, cosets[2].mask & -cosets[2].mask, cosets[1], 2**log2_size)


def exponent7_family(group: AbelianGroup) -> Family:
    """Perfect-matching construction between two index-7 cosets; requires
    exponent exactly 7 (then the count is 2^{n/7 - 1})."""
    if group.exponent != 7:
        raise FamilyError("need exponent 7")
    _bound(group.order // 7 - 1)
    cosets = coset_partition(group, 7)
    window = GroupSubset(group, cosets[2].mask | cosets[3].mask)
    return _group_family(group, cosets[1].mask & -cosets[1].mask, window,
                         2 ** (group.order // 7 - 1))
