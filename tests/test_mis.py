"""Maximal-independent-set counting, enumeration, and the bound suite."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.graph import (
    Graph,
    cycle,
    disjoint_union,
    induced_subgraph,
    matching,
    path,
    prism,
    relabel,
)
from sumfree.mis import (
    EnumerationLimitError,
    bound_certificates,
    count_mis,
    enumerate_mis,
    mis_cycle,
)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    loops = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return Graph.build(range(n), edges, loops)


def brute_force_mis(g: Graph) -> list[tuple[int, ...]]:
    """Independent oracle: scan all vertex subsets."""
    n = g.num_vertices
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if not mask >> i & 1:
                continue
            if g.loops_mask >> i & 1 or g.nbr[i] & mask:
                ok = False
                break
        if not ok:
            continue
        # maximal: every vertex outside is excluded for a reason
        for i in range(n):
            if mask >> i & 1:
                continue
            if not (g.loops_mask >> i & 1 or g.nbr[i] & mask):
                ok = False
                break
        if ok:
            out.append(tuple(g.labels[i] for i in range(n) if mask >> i & 1))
    return sorted(out)


def test_strip_loops():
    p3_loop = Graph.build(range(3), [(0, 1), (1, 2)], [0])
    assert enumerate_mis(p3_loop) == [(1,), (2,)]  # the loop vertex 0 is left out
    all_loops = Graph.build(range(3), [(0, 1)], [0, 1, 2])
    assert count_mis(all_loops) == 1  # the empty set is the unique MIS
    assert enumerate_mis(all_loops) == [()]


def test_counts():
    assert count_mis(cycle(4)) == 2
    assert count_mis(prism()) == 6
    for k in range(6):
        assert count_mis(matching(k)) == 2**k


def test_enumeration():
    assert enumerate_mis(path(3)) == [(0, 2), (1,)]
    lone = Graph.build([5], [], [5])
    assert enumerate_mis(lone) == [()]
    five = enumerate_mis(cycle(5))
    assert len(five) == 5 and all(len(s) == 2 for s in five)


def test_enumeration_matches_brute_force_on_structured():
    for g in (path(5), cycle(6), matching(3), prism()):
        assert enumerate_mis(g) == brute_force_mis(g)


def test_mis_cycle():
    assert mis_cycle(4) == 2
    assert mis_cycle(5) == 5
    assert mis_cycle(6) == 5  # 2 + 3
    for m in range(3, 25):
        assert mis_cycle(m) == count_mis(cycle(m))
    with pytest.raises(ValueError):
        mis_cycle(2)


def test_cycle_bound():
    for m in range(4, 65):
        assert mis_cycle(m) ** 100 < 2 ** (49 * m)


def test_size_limit():
    with pytest.raises(EnumerationLimitError):
        count_mis(matching(10), limit=10)
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(matching(12), cap=100)
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(cycle(40), cap=1000)  # one component past the cap
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(path(81))
    # two components, each under the default cap, whose product is over it
    two = disjoint_union(cycle(30), relabel(cycle(30), {i: i + 30 for i in range(30)}))
    assert count_mis(cycle(30)) ** 2 > 1_000_000 > count_mis(cycle(30))
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(two)
    # three disjoint triangles meet the 3^{n/3} bound exactly: 27 sets
    triangles = cycle(3)
    for k in (1, 2):
        triangles = disjoint_union(triangles, relabel(cycle(3), {i: i + 3 * k for i in range(3)}))
    assert len(enumerate_mis(triangles, cap=27)) == 27
    with pytest.raises(EnumerationLimitError):
        enumerate_mis(triangles, cap=26)
    exact = count_mis(cycle(12))
    assert len(enumerate_mis(cycle(12), cap=exact)) == exact


def test_bound_certificates_examples():
    c5 = bound_certificates(cycle(5))
    assert c5.exact == 5 and c5.all_hold()
    m4 = bound_certificates(matching(4))
    assert m4.exact == 16  # 2^{n/2}: the triangle-free bound is tight here
    assert m4.all_hold()
    three = path(3)
    for k in range(1, 3):
        three = disjoint_union(three, relabel(path(3), {i: i + 3 * k for i in range(3)}))
    certs = bound_certificates(three)
    assert certs.exact == 8 and certs.all_hold()


def test_loop_vertex_never_chosen():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3)], [1])
    for s in enumerate_mis(g):
        assert 1 not in s


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_count_matches_enumeration_and_brute_force(g):
    sets = enumerate_mis(g)
    assert count_mis(g) == len(sets)
    assert sets == brute_force_mis(g)
    loop_free = [v for i, v in enumerate(g.labels) if not g.loops_mask >> i & 1]
    assert count_mis(g) == count_mis(induced_subgraph(g, loop_free))


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_adding_loops_never_increases_count(g):
    erased = Graph(g.labels, g.nbr, 0)
    assert count_mis(g) <= count_mis(erased)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_all_bounds_hold_on_random_graphs(g):
    certs = bound_certificates(g)
    assert certs.all_hold()
