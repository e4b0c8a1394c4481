"""Sum-free subsets of a finite abelian group, by one prefix-tree walk.

Elements are indices 0..N-1, index 0 the identity, and the walk reads the
group's `table` and `negation`.  Subsets are index masks: element i at bit
i.  Every node is a sum-free set S, grown in increasing index order, and
carries

    blocked = {0} | (S + S) | (S - S) | {y : y + y in S}

(`AbelianGroup.blocked` and the identity), the elements whose insertion
would break sum-freeness.  Inserting x adds x + x, the halves of x and, for
every member a, x + a, x - a and a - x.  A node's children are the
candidates above max S that are not blocked; a node is maximal iff it has
no child and every element is in S or blocked.  Preorder visits the sets in
sorted (lexicographic) order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .group import AbelianGroup


def _walk(group: AbelianGroup) -> list[tuple[int, bool]]:
    """Every sum-free set's mask in preorder, each with whether it is maximal."""
    add, neg = group.table, group.negation
    n = len(add)
    halves = [0] * n
    for y in range(n):
        halves[add[y][y]] |= 1 << y
    full = (1 << n) - 1
    out: list[tuple[int, bool]] = []
    members: list[int] = []

    def rec(cand: int, mask: int, blocked: int) -> None:
        out.append((mask, not cand and not full & ~mask & ~blocked))
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            row = add[x]
            b = blocked | 1 << row[x] | halves[x]
            for a in members:
                b |= 1 << row[a] | 1 << row[neg[a]] | 1 << add[a][neg[x]]
            members.append(x)
            rec(cand & ~b, mask | low, b)
            members.pop()

    rec(full & ~1, 0, 1)  # index 0 is the identity
    del rec  # it reaches itself through its closure cell: free it now, not at a GC
    return out


def sum_free_subsets(group: AbelianGroup) -> list[int]:
    """All sum-free subsets' masks, in preorder (lexicographic by members)."""
    return [s for s, _ in _walk(group)]


def maximal_sum_free_subsets(group: AbelianGroup) -> list[int]:
    """All maximal sum-free subsets' masks, in preorder (lexicographic by members)."""
    return [s for s, maximal in _walk(group) if maximal]
