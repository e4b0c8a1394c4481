"""Exact enumeration toolkit for sum-free sets over integer intervals and
finite abelian groups, the link graphs they induce, and maximal independent
set counting in graphs with loops."""

from .intset import (
    GroundSet,
    IntSubset,
    addable_elements,
    is_maximal_sum_free,
    is_sum_free,
    schur_triple_count,
)

__all__ = [
    "GroundSet",
    "IntSubset",
    "addable_elements",
    "is_maximal_sum_free",
    "is_sum_free",
    "schur_triple_count",
]

__version__ = "0.1.0"
