"""Graphs with loops: families, products, queries, isomorphism, text format."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.checks import bounds_corpus
from sumfree.graph import (
    Graph,
    are_isomorphic,
    cartesian_product,
    check_isomorphism_map,
    complete,
    component_masks,
    connected_components,
    cycle,
    degree_stats,
    disjoint_p3_packing,
    disjoint_union,
    from_text,
    is_triangle_free,
    matching,
    path,
    prism,
    relabel,
    to_text,
)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    loops = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return Graph.build(range(n), edges, loops)


def test_family_sizes():
    assert prism().num_vertices == 6 and prism().edge_count() == 9
    assert matching(3).num_vertices == 6 and matching(3).edge_count() == 3
    du = disjoint_union(path(3), relabel(path(3), {i: i + 3 for i in range(3)}))
    assert du.num_vertices == 6 and du.edge_count() == 4
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_triangle_free():
    assert is_triangle_free(cycle(5))
    assert not is_triangle_free(complete(3))
    c4_loop = Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], [0])
    assert is_triangle_free(c4_loop)  # loops never form triangles


def test_degree_stats():
    lone_loop = Graph.build([0], [], [0])
    assert degree_stats(lone_loop) == (2, 2, 1)
    assert degree_stats(path(3)) == (1, 2, 2)
    assert degree_stats(Graph.build(range(4))) == (0, 0, 0)


def test_p3_packing():
    four = path(3)
    for k in range(1, 4):
        four = disjoint_union(four, relabel(path(3), {i: i + 3 * k for i in range(3)}))
    assert disjoint_p3_packing(four) == 4
    assert disjoint_p3_packing(matching(5)) == 0
    assert disjoint_p3_packing(path(6)) == 2
    # greedy fallback still certifies a lower bound
    assert disjoint_p3_packing(path(40), exact_limit=10) >= 13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p3_packing_is_the_sum_over_components(seed):
    for tag, g, lim in bounds_corpus(seed, 420):
        if g.num_vertices <= lim:  # the exact route; greedy runs on all of g
            want = sum(disjoint_p3_packing(c, exact_limit=lim) for c in connected_components(g))
            assert disjoint_p3_packing(g, exact_limit=lim) == want, tag


def test_isomorphism_map():
    p3 = path(3)
    assert check_isomorphism_map(p3, p3, {0: 0, 1: 1, 2: 2})
    assert not check_isomorphism_map(p3, p3, {0: 1, 1: 0, 2: 2})
    c4 = cycle(4)
    assert check_isomorphism_map(c4, c4, {0: 1, 1: 2, 2: 3, 3: 0})
    with pytest.raises(ValueError):
        check_isomorphism_map(p3, p3, {0: 0, 1: 1})


def test_are_isomorphic():
    assert are_isomorphic(path(3), relabel(path(3), {0: 5, 1: 9, 2: 7}))
    two_k3 = disjoint_union(complete(3), relabel(complete(3), {i: i + 3 for i in range(3)}))
    assert not are_isomorphic(cycle(6), two_k3)
    assert not are_isomorphic(matching(2), path(4))


def test_product_and_components():
    g = cartesian_product(complete(3), complete(2))
    assert g.num_vertices == 6
    assert are_isomorphic(g, prism())
    comps = connected_components(disjoint_union(cycle(3), relabel(cycle(4), {i: i + 10 for i in range(4)})))
    assert sorted(c.num_vertices for c in comps) == [3, 4]


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        Graph((0, 1), (2, 0), 0)
    assert Graph((0, 1), (2, 1), 0) == path(2)


@given(random_graphs(), st.data())
@settings(max_examples=150)
def test_symmetry_check_catches_one_sided_bits(g, data):
    assert Graph(g.labels, g.nbr, g.loops_mask) == g
    n = g.num_vertices
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not pairs:
        return
    i, j = data.draw(st.sampled_from(pairs))
    nbr = list(g.nbr)
    nbr[i] ^= 1 << j  # add or drop the arc i -> j, leave j -> i as it was
    with pytest.raises(ValueError, match="adjacency is not symmetric"):
        Graph(g.labels, tuple(nbr), g.loops_mask)


@given(random_graphs(), st.integers(min_value=0, max_value=(1 << 10) - 1))
@settings(max_examples=80)
def test_component_masks_match_reachability(g, within):
    # reachability by search over the label-pair edge list
    adj = {(u, v) for u, v in g.edges() if u != v}
    adj |= {(v, u) for u, v in adj}
    for mask in (-1, within):
        keep = {v for i, v in enumerate(g.labels) if mask >> i & 1}

        def reach(v):
            seen, todo = {v}, [v]
            while todo:
                w = todo.pop()
                new = {u for u in keep - seen if (w, u) in adj}
                seen |= new
                todo.extend(new)
            return sum(1 << g.labels.index(u) for u in seen)

        want = sorted({reach(v) for v in keep}, key=lambda m: m & -m)
        got = component_masks(g.nbr, mask) if mask != -1 else component_masks(g.nbr)
        assert got == want
    assert [c.labels for c in connected_components(g)] == [
        tuple(v for i, v in enumerate(g.labels) if m >> i & 1)
        for m in component_masks(g.nbr)
    ]


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_product_degrees_add(a, b):
    g, h = complete(a) if a > 1 else path(1), cycle(b + 2)
    gh = cartesian_product(g, h)
    assert gh.num_vertices == g.num_vertices * h.num_vertices
    dg = degree_stats(g)
    dh = degree_stats(h)
    assert degree_stats(gh)[0] == dg[0] + dh[0]
    assert degree_stats(gh)[1] == dg[1] + dh[1]


@given(random_graphs())
@settings(max_examples=80)
def test_loop_degree_rule(g):
    # degrees counted from the edge list: a loop (v, v) meets v twice
    degs = dict.fromkeys(g.labels, 0)
    for u, v in g.edges():
        degs[u] += 1
        degs[v] += 1
    assert sum(degs.values()) == 2 * len(g.edges())
    assert degree_stats(g) == (min(degs.values()), max(degs.values()), len(g.edges()))


@given(random_graphs())
@settings(max_examples=80)
def test_text_round_trip(g):
    assert from_text(to_text(g)) == g


@pytest.mark.parametrize(
    "text, line, reason",
    [
        ("g 2\nv 0 1\nv 1 2\ne 0 5\n", 4, "outside [0, 2)"),
        ("g 2\nv 0 1\nv 1 2\ne 0 -1\n", 4, "outside [0, 2)"),
        ("g 1\nv 1 7\n", 2, "outside [0, 1)"),
        ("g\n", 1, "expected"),
        ("g 2\nv 0 1\nv 1 2\ne 0\n", 4, "expected"),
        ("g 1\nv 0 1 2\n", 2, "expected"),
        ("g 1\nx 0\n", 2, "expected"),
        ("g 1\nv 0 one\n", 2, "integers"),
        ("g 2\nv 0 1\nv 0 3\nv 1 2\n", 3, "duplicate vertex index"),
        ("g 1\nv 0 1\ng 1\n", 3, "repeated g header"),
        ("v 0 1\ng 1\n", 1, "before the g header"),
    ],
)
def test_from_text_rejects_malformed_lines(text, line, reason):
    with pytest.raises(ValueError, match=rf"^graph line {line} .*{re.escape(reason)}"):
        from_text(text)


def test_from_text_vertex_count():
    with pytest.raises(ValueError, match="does not match header"):
        from_text("g 2\nv 0 1\n")
    assert from_text("g 0\n").num_vertices == 0
    g = from_text("\ng 3\nv 0 4\nv 1 5\n  v 2 6\ne 0 1\ne 2 2\n")
    assert g == Graph.build([4, 5, 6], [(4, 5)], [6])


@given(random_graphs())
@settings(max_examples=40)
def test_relabel_is_isomorphic(g):
    shifted = relabel(g, {v: v * 3 + 1 for v in g.labels})
    mapping = {v: v * 3 + 1 for v in g.labels}
    assert check_isomorphism_map(g, shifted, mapping)
    assert are_isomorphic(g, shifted)
