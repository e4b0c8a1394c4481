"""Link graphs: edges on a vertex set B induced by Schur triples through S.

For subsets S, B of the ground structure, the link graph of S on B has
vertex set B and

  (i)  an edge x ~ y whenever some z in S makes {x, y, z} a Schur triple
       (unordered: x+y=z, x+z=y or y+z=x); z may coincide in value with x
       or y, which still yields the edge;
  (ii) a loop at x whenever {x, x, z} is a Schur triple for some z in S
       (2x = z) or {x, z, z'} is one for some z, z' in S (x in S+S or
       x in S-S).

Over a group, "Schur triple" means some ordering satisfies a + b = c.

The family built on the upper half, L(n, m, S) = link graph of S + {m} on
[n/2+1, n] with m <= n/2 and S inside [n/2], is the workhorse for counting
maximal sum-free sets whose minimum is m: its vertices in S+S and S+m all
carry loops, and with max(S + {m}) below min(B) the graph is triangle-free.

Over the integers the link graph is built in element space (element x at
bit x - 1) by `link_masks`, from three shifts of the mask of S per vertex.
Its loops are B & `intset.mask_blocked(S)`, which the caller holds (the
census also reads a seed's open elements off it); `link_graph_ints`
relabels both onto B's index space as a `Graph`.  `link_graph_group`
takes its loops from `AbelianGroup.blocked(S)`, the group twin.
"""

from __future__ import annotations

from .graph import Graph, _bits, _induced
from .group import AbelianGroup, GroupSubset
from .intset import IntSubset, iter_mask, mask_blocked


def link_masks(s_mask: int, b_mask: int) -> list[int]:
    """nbr, the edges of the link graph of S on B in element space, for any
    S and B (they may overlap, S need not be sum-free).  nbr[x - 1] is the
    mask of the y in B other than x with y = x + z, z - x or x - z for some
    z in S.  The loop vertices are B & mask_blocked(S), which the caller
    takes from the blocked mask it holds."""
    top = max(s_mask.bit_length(), b_mask.bit_length()) + 1
    # S reversed (its binary digits read backwards), element z at bit
    # top - 1 - z, so x - z is rev >> (top - x)
    rev = int(bin(s_mask)[:1:-1], 2) << (top - 1 - s_mask.bit_length())
    nbr = [0] * b_mask.bit_length()
    m = b_mask
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length()
        near = (s_mask << x) | (s_mask >> x) | (rev >> (top - x))
        nbr[x - 1] = near & (b_mask ^ low)
    return nbr


def link_graph_ints(s_members, b_members) -> Graph:
    """Integer link graph; vertex labels are the elements of B."""
    b = sorted(set(b_members))
    index = {x: 1 << i for i, x in enumerate(b)}
    b_mask = sum(1 << (x - 1) for x in b)
    s_mask = sum(1 << (z - 1) for z in set(s_members))
    nbr = link_masks(s_mask, b_mask)

    def relabel(mask: int) -> int:
        return sum(index[x] for x in iter_mask(mask))

    return Graph._trusted(tuple(b), tuple(relabel(nbr[x - 1]) for x in b),
                          relabel(b_mask & mask_blocked(s_mask)))


def link_graph_group(group: AbelianGroup, s: GroupSubset, b: GroupSubset) -> Graph:
    """Group link graph: x ~ y for y in x + S, x - S or S - x, and loops at
    B & group.blocked(S).  Vertex labels are element indices."""
    add, neg = group.table, group.negation
    zs = list(_bits(s.mask))
    nbr = []
    for x, row in enumerate(add):
        near = 0
        for z in zs:
            near |= 1 << row[z] | 1 << row[neg[z]] | 1 << add[z][neg[x]]
        nbr.append(near & ~(1 << x))
    return _induced(Graph._trusted(tuple(range(group.order)), tuple(nbr), group.blocked(s.mask)),
                    b.mask)


def link_family(n: int, m: int, s_members=()) -> Graph:
    """L(n, m, S): link graph of S + {m} on the upper half [n/2+1, n]."""
    s = IntSubset.of(n, s_members)
    if m < 1 or 2 * m > n:
        raise ValueError(f"m = {m} must lie in [1, n/2]")
    if any(2 * x > n for x in s):
        raise ValueError("S must lie inside [n/2]")
    upper = range(n // 2 + 1, n + 1)
    return link_graph_ints(set(s.members) | {m}, upper)


def link_single_even(n: int, x: int) -> Graph:
    """Link graph of one even number on the odd part of [n]."""
    if x % 2 or not 1 <= x <= n:
        raise ValueError(f"x = {x} must be an even member of [{n}]")
    odds = range(1, n + 1, 2)
    return link_graph_ints({x}, odds)


def link_pair_even(n: int, x: int, x2: int) -> Graph:
    """Link graph of two distinct even numbers on the odd part of [n]."""
    if x == x2:
        raise ValueError("the two even numbers must be distinct")
    for v in (x, x2):
        if v % 2 or not 1 <= v <= n:
            raise ValueError(f"{v} must be an even member of [{n}]")
    odds = range(1, n + 1, 2)
    return link_graph_ints({x, x2}, odds)
