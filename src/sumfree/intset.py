"""Arithmetic over the integer interval [n] = {1, ..., n}.

A triple x, y, z with x + y = z is a Schur triple; x and y need not be
distinct.  A set is sum-free if it contains no Schur triple, and a sum-free
subset of [n] is maximal if no element of [n] can be added to it without
creating a Schur triple.

Subsets of [n] are carried as Python bigint bitmasks (bit e-1 <-> element e),
which makes the hot tests one shift-and-AND each:

    exists y, z in S with y + x = z         <=>  S & (S >> x) != 0
    sums  {y + s : y in S}                   =   S << s
    diffs {y - s : y in S, y > s}            =   S >> s

`IntSubset` is the user-facing wrapper; the `mask_*` helpers are shared with
the enumeration engine, which walks millions of masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class GroundSet:
    """The interval [n] = {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set needs n >= 1, got {self.n}")

    @property
    def universe_mask(self) -> int:
        return (1 << self.n) - 1


def mask_from_members(members: Iterable[int], n: int) -> int:
    mask = 0
    for e in members:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def iter_mask(mask: int) -> Iterator[int]:
    """Yield the elements of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def mask_is_sum_free(mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        x = low.bit_length()
        if mask & (mask >> x):
            return False
        m ^= low
    return True


def mask_blocked(mask: int) -> int:
    """The positive members of (S+S) | (S-S) | {s/2 : s in S even}, for any S.

    Link graphs read their loops off this set, also for an S that is not
    sum-free.  When S is sum-free, a Schur triple of S + {x} must use x, so
    these are exactly the elements x whose addition breaks sum-freeness (the
    blocked set); members of S are not treated specially (callers intersect
    with the complement).
    """
    blocked = 0
    m = mask
    while m:
        low = m & -m
        s = low.bit_length()
        blocked |= (mask << s) | (mask >> s)
        if s % 2 == 0:
            blocked |= 1 << (s // 2 - 1)
        m ^= low
    return blocked


def mask_can_add(mask: int, x: int) -> bool:
    """Whether x is outside sum-free `mask` and can join it."""
    return not (mask | mask_blocked(mask)) >> (x - 1) & 1


@dataclass(frozen=True, slots=True)
class IntSubset:
    """A subset of [n], bit-indexed over {1, ..., n}."""

    ground: GroundSet
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.ground.n:
            raise ValueError("subset mask has bits outside the ground set")

    @classmethod
    def of(cls, n: int, members: Iterable[int] = ()) -> "IntSubset":
        return cls(GroundSet(n), mask_from_members(members, n))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.mask))

    @property
    def n(self) -> int:
        return self.ground.n

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.ground.n and bool(self.mask >> (e - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_mask(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()


def is_sum_free(s: IntSubset) -> bool:
    return mask_is_sum_free(s.mask)


def addable_elements(s: IntSubset) -> IntSubset:
    """All x in [n] \\ S such that S + {x} is still sum-free."""
    if not is_sum_free(s):
        raise ValueError("addable_elements requires a sum-free set")
    free = s.ground.universe_mask & ~s.mask & ~mask_blocked(s.mask)
    return IntSubset(s.ground, free)


def is_maximal_sum_free(s: IntSubset) -> bool:
    return is_sum_free(s) and addable_elements(s).mask == 0


def schur_triple_count(s: IntSubset) -> int:
    """Number of triples (x, y, z) in S^3 with x <= y and x + y = z."""
    members = s.members
    count = 0
    for i, x in enumerate(members):
        for y in members[i:]:
            if x + y in s:
                count += 1
    return count
