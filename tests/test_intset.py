"""Ground-set arithmetic over [n]."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumfree.intset import (
    GroundSet,
    IntSubset,
    addable_elements,
    is_maximal_sum_free,
    is_sum_free,
    mask_can_add,
    mask_is_sum_free,
    schur_triple_count,
)

subsets = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.builds(
        IntSubset.of,
        st.just(n),
        st.sets(st.integers(min_value=1, max_value=n)),
    )
)


def test_ground_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        GroundSet(0)


def test_sum_free_examples():
    odds = IntSubset.of(10, range(1, 11, 2))
    upper = IntSubset.of(10, range(6, 11))
    assert is_sum_free(odds)
    assert is_sum_free(upper)
    assert not is_sum_free(IntSubset.of(2, [1, 2]))  # 1 + 1 = 2


def test_addable_elements():
    assert addable_elements(IntSubset.of(4, [2, 3])).members == ()
    assert addable_elements(IntSubset.of(3, [])).members == (1, 2, 3)
    assert addable_elements(IntSubset.of(4, [1, 3])).members == ()


def test_addable_requires_sum_free():
    with pytest.raises(ValueError):
        addable_elements(IntSubset.of(4, [1, 2]))


def test_maximality():
    assert is_maximal_sum_free(IntSubset.of(4, [1, 4]))
    assert not is_maximal_sum_free(IntSubset.of(4, [2]))  # {2,3} extends it
    # the empty set is sum-free but never maximal for n >= 1
    assert is_sum_free(IntSubset.of(1, []))
    assert not is_maximal_sum_free(IntSubset.of(1, []))


def test_schur_triple_count():
    # [4] carries (1,1,2), (1,2,3), (1,3,4), (2,2,4)
    assert schur_triple_count(IntSubset.of(4, [1, 2, 3, 4])) == 4
    assert schur_triple_count(IntSubset.of(9, range(1, 10, 2))) == 0
    assert schur_triple_count(IntSubset.of(5, [])) == 0


@given(subsets)
def test_maximal_implies_sum_free(s):
    if is_maximal_sum_free(s):
        assert is_sum_free(s)


@given(subsets)
def test_addable_extension_stays_sum_free(s):
    if not is_sum_free(s):
        return
    for x in addable_elements(s):
        assert mask_is_sum_free(s.mask | 1 << (x - 1))
    # and non-addable elements genuinely break sum-freeness
    for x in range(1, s.n + 1):
        if x not in s and x not in addable_elements(s):
            assert not mask_is_sum_free(s.mask | 1 << (x - 1))


def test_mask_can_add_matches_definition():
    for n in range(1, 11):
        for mask in range(1 << n):
            if not mask_is_sum_free(mask):
                continue
            for x in range(1, n + 1):
                bit = 1 << (x - 1)
                expected = not mask & bit and mask_is_sum_free(mask | bit)
                assert mask_can_add(mask, x) == expected, (n, mask, x)


@given(subsets)
def test_zero_triples_iff_sum_free(s):
    assert (schur_triple_count(s) == 0) == is_sum_free(s)
