"""Finite abelian groups as explicit products of cyclic factors.

Groups are fixed as Z_{n_1} x ... x Z_{n_k}; elements are residue vectors,
flattened to mixed-radix indices (index 0 the identity), and subsets are
index masks.  `table` and `negation` (built once) and `blocked` (the twin of
`intset.mask_blocked`) are the one index arithmetic over them.
No abstract group interface: every construction used here lives in Z_n, in
Z_2^k, or behind a coordinate projection, and index-r subgroups are realised
only as kernels of a coordinate projection composed with a residue map.

The identity never needs special casing in sum-free tests because 0 + 0 = 0
already disqualifies it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from .engine import maximal_sum_free_subsets, sum_free_subsets
from .graph import _bits

GroupElem = tuple[int, ...]

# f, f_max and mu of Z2xZ2xZ6 (order 24) take 0.15-0.25 s together on a
# 2-core Intel Xeon; f of Z2^5 (order 32) takes 6.9 s and 288 MB
GROUP_MAX_ORDER = 24


@dataclass(frozen=True)
class AbelianGroup:
    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors or any(f < 2 for f in self.factors):
            raise ValueError("factors must all be >= 2")

    @classmethod
    def parse(cls, desc: str) -> "AbelianGroup":
        """Parse descriptors like "Z4xZ2xZ2"."""
        parts = desc.replace(" ", "").split("x")
        factors = []
        for p in parts:
            m = re.fullmatch(r"[Zz](\d+)", p)
            if not m:
                raise ValueError(f"bad group descriptor component {p!r}")
            factors.append(int(m.group(1)))
        return cls(tuple(factors))

    def describe(self) -> str:
        return "x".join(f"Z{f}" for f in self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        e = 1
        for f in self.factors:
            e = e * f // gcd(e, f)
        return e

    def check(self, g: GroupElem) -> GroupElem:
        if len(g) != len(self.factors) or any(
            not 0 <= a < f for a, f in zip(g, self.factors)
        ):
            raise ValueError(f"{g} is not an element of {self.describe()}")
        return g

    def add(self, g: GroupElem, h: GroupElem) -> GroupElem:
        self.check(g), self.check(h)
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def neg(self, g: GroupElem) -> GroupElem:
        self.check(g)
        return tuple((-a) % f for a, f in zip(g, self.factors))

    def sub(self, g: GroupElem, h: GroupElem) -> GroupElem:
        return self.add(g, self.neg(h))

    def elements(self) -> list[GroupElem]:
        out = [()]
        for f in self.factors:
            out = [e + (a,) for e in out for a in range(f)]
        return [tuple(e) for e in out]

    def index_of(self, g: GroupElem) -> int:
        """Flatten to a mixed-radix index: a subset's bit and a graph vertex label."""
        self.check(g)
        idx = 0
        for a, f in zip(g, self.factors):
            idx = idx * f + a
        return idx

    def from_index(self, idx: int) -> GroupElem:
        coords = []
        for f in reversed(self.factors):
            coords.append(idx % f)
            idx //= f
        return tuple(reversed(coords))

    @cached_property  # not a field: equality and hash stay the factors'
    def table(self) -> list[list[int]]:
        """table[i][j] is the index of g_i + g_j.  Built from the last factor
        outward: in Z_f x H, (a, h) has index a|H| + h, and (a, h) + (b, k)
        is ((a + b) mod f, h + k)."""
        rows, size = [[0]], 1
        for f in reversed(self.factors):
            rows = [[(a + b) % f * size + t for b in range(f) for t in row]
                    for a in range(f) for row in rows]
            size *= f
        return rows

    @cached_property
    def negation(self) -> list[int]:
        """negation[i] is the index of -g_i, negated digit by digit."""
        return [self.index_of(tuple(-a % f for a, f in zip(g, self.factors)))
                for g in self.elements()]

    def blocked(self, mask: int) -> int:
        """(S + S) | (S - S) | {x : x + x in S} for the index mask S, empty
        for an empty S.  S is sum-free iff S & blocked(S) == 0; for a
        nonempty sum-free S (0 = s - s is in it) these are exactly the
        elements whose addition breaks sum-freeness."""
        table, neg = self.table, self.negation
        members = list(_bits(mask))
        out = sum(1 << x for x, row in enumerate(table) if mask >> row[x] & 1)
        for s in members:
            for t in members:
                out |= 1 << table[s][t] | 1 << table[s][neg[t]]
        return out


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a group as an index mask: the element with mixed-radix
    index i sits at bit i, so ascending bits are the elements in
    lexicographic order."""

    group: AbelianGroup
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.group.order:
            raise ValueError("subset mask has bits outside the group")

    @classmethod
    def of(cls, group: AbelianGroup, members) -> "GroupSubset":
        return cls(group, sum(1 << group.index_of(g) for g in set(members)))

    @property
    def members(self) -> tuple[GroupElem, ...]:
        return tuple(self.group.from_index(i) for i in _bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, g: GroupElem) -> bool:
        try:
            return bool(self.mask >> self.group.index_of(g) & 1)
        except ValueError:
            return False


def is_sum_free_group(s: GroupSubset) -> bool:
    """No x, y, z in S with x + y = z (x = y allowed)."""
    grp, mem = s.group, frozenset(s.members)
    for x in mem:
        for y in mem:
            if grp.add(x, y) in mem:
                return False
    return True


def _searchable(group: AbelianGroup) -> AbelianGroup:
    """The group, if its order is within the search limit."""
    if group.order > GROUP_MAX_ORDER:
        raise ValueError(f"group order {group.order} exceeds the search limit {GROUP_MAX_ORDER}")
    return group


def mu(group: AbelianGroup) -> int:
    """Size of the largest sum-free subset."""
    return len(max_sum_free(group))


def max_sum_free(group: AbelianGroup) -> GroupSubset:
    """A maximum-size sum-free subset: the lexicographically first by index."""
    return GroupSubset(group, max(sum_free_subsets(_searchable(group)), key=int.bit_count))


def unique_half(group: AbelianGroup, x: GroupElem) -> GroupElem:
    """The unique y with y + y = x; only exists in groups of odd order."""
    if group.order % 2 == 0:
        raise ValueError("halving is not unique in groups of even order")
    group.check(x)
    return tuple((a * ((f + 1) // 2)) % f for a, f in zip(x, group.factors))


def coset_partition(group: AbelianGroup, r: int) -> list[GroupSubset]:
    """Cosets 0+H, 1+H, ..., (r-1)+H for H the kernel of a coordinate
    projection followed by reduction mod r.  Errors when no coordinate
    admits such a projection."""
    if r < 1:
        raise ValueError("index must be >= 1")
    axis = next((j for j, f in enumerate(group.factors) if f % r == 0), None)
    if axis is None:
        raise ValueError(
            f"no index-{r} subgroup via coordinate projection in {group.describe()}"
        )
    masks = [0] * r
    for i, g in enumerate(group.elements()):
        masks[g[axis] % r] |= 1 << i
    return [GroupSubset(group, m) for m in masks]


def enumerate_sum_free_group(group: AbelianGroup) -> list[GroupSubset]:
    return [GroupSubset(group, m) for m in sum_free_subsets(_searchable(group))]


def enumerate_maximal_sum_free_group(group: AbelianGroup) -> list[GroupSubset]:
    return [GroupSubset(group, m) for m in maximal_sum_free_subsets(_searchable(group))]


def f_group(group: AbelianGroup) -> int:
    """Number of sum-free subsets of the group (empty set included)."""
    return len(sum_free_subsets(_searchable(group)))


def f_max_group(group: AbelianGroup) -> int:
    """Number of maximal sum-free subsets of the group."""
    return len(maximal_sum_free_subsets(_searchable(group)))
