"""Vertex-labelled graphs, possibly with loops.

Vertices are identified by integer labels (ground-set elements or flattened
group-element indices), so a link graph's vertices can always be traced back
to the set elements that produced them.  At most one loop per vertex; a loop
contributes two to the degree of its vertex but counts as one edge.

Internally a graph stores sorted labels plus index bitmasks (one neighbour
mask per vertex, one loop mask); components and subgraphs are cut from those
masks, never rebuilt from label pairs.  That keeps triangle tests, component
splits and isomorphism search cheap for the desk-scale instances handled
here (<= 64 vertices for isomorphism, a few hundred elsewhere).

A direct `Graph(...)` call is the trust boundary: it checks the labels are
distinct and the adjacency in range, loop-free and symmetric, edge by edge.
The builders here and in `linkgraph` produce graphs that satisfy this by
construction, so they go through `Graph._trusted`, which skips the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class Graph:
    labels: tuple[int, ...]
    nbr: tuple[int, ...]  # index-based adjacency bitmasks, self excluded
    loops_mask: int  # index-based

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        for i, m in enumerate(self.nbr):
            if m < 0 or m >> len(self.labels):
                raise ValueError("adjacency mask out of range")
            if m >> i & 1:
                raise ValueError("self-adjacency must be recorded via loops")
            while m:
                low = m & -m
                if not self.nbr[low.bit_length() - 1] >> i & 1:
                    raise ValueError("adjacency is not symmetric")
                m ^= low

    @classmethod
    def _trusted(cls, labels: tuple[int, ...], nbr: tuple[int, ...], loops_mask: int) -> "Graph":
        """The graph with these fields, made without `__post_init__`'s
        checks: only for the package's own builders, whose fields hold those
        invariants by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "nbr", nbr)
        object.__setattr__(g, "loops_mask", loops_mask)
        return g

    @classmethod
    def build(
        cls,
        labels: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        loops: Iterable[int] = (),
    ) -> "Graph":
        """Construct from labels, label-pair edges, and loop labels."""
        lab = tuple(sorted(labels))
        index = {v: i for i, v in enumerate(lab)}
        if len(index) != len(lab):
            raise ValueError("duplicate vertex labels")
        nbr = [0] * len(lab)
        for u, v in edges:
            if u == v:
                raise ValueError(f"edge ({u},{v}) is a loop; pass it via loops")
            iu, iv = index[u], index[v]
            nbr[iu] |= 1 << iv
            nbr[iv] |= 1 << iu
        loops_mask = 0
        for v in loops:
            loops_mask |= 1 << index[v]
        return cls._trusted(lab, tuple(nbr), loops_mask)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted label pairs (u <= v); loops appear as (v, v)."""
        out = []
        for i, m in enumerate(self.nbr):
            mm = m >> (i + 1) << (i + 1)  # only j > i
            while mm:
                low = mm & -mm
                j = low.bit_length() - 1
                out.append((self.labels[i], self.labels[j]))
                mm ^= low
        lm = self.loops_mask
        while lm:
            low = lm & -lm
            i = low.bit_length() - 1
            out.append((self.labels[i], self.labels[i]))
            lm ^= low
        return sorted(out)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr) // 2 + self.loops_mask.bit_count()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def path(m: int) -> Graph:
    if m < 1:
        raise ValueError("path needs m >= 1")
    return Graph.build(range(m), [(i, i + 1) for i in range(m - 1)])


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    return Graph.build(range(m), [(i, (i + 1) % m) for i in range(m)])


def matching(k: int) -> Graph:
    if k < 0:
        raise ValueError("matching needs k >= 0")
    return Graph.build(range(2 * k), [(2 * i, 2 * i + 1) for i in range(k)])


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError("complete graph needs m >= 1")
    return Graph.build(range(m), [(i, j) for i in range(m) for j in range(i + 1, m)])


def relabel(g: Graph, mapping: Mapping[int, int]) -> Graph:
    """Apply an injective label mapping."""
    new = [mapping[v] for v in g.labels]
    if len(set(new)) != len(new):
        raise ValueError("relabel mapping is not injective")
    edges = [(mapping[u], mapping[v]) for u, v in g.edges() if u != v]
    loops = [mapping[v] for v, w in g.edges() if v == w]
    return Graph.build(new, edges, loops)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if set(g.labels) & set(h.labels):
        raise ValueError("disjoint_union requires disjoint label sets")
    edges = [(u, v) for u, v in g.edges() if u != v] + [
        (u, v) for u, v in h.edges() if u != v
    ]
    loops = [v for v, w in g.edges() if v == w] + [v for v, w in h.edges() if v == w]
    return Graph.build(g.labels + h.labels, edges, loops)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G box H; vertex (i, j) gets label i * |H| + j (index positions)."""
    nh = h.num_vertices
    nbr = [
        h.nbr[j] << (i * nh) | sum(1 << (i2 * nh + j) for i2 in _bits(g.nbr[i]))
        for i in range(g.num_vertices)
        for j in range(nh)
    ]
    return Graph._trusted(tuple(range(len(nbr))), tuple(nbr), 0)


def prism() -> Graph:
    """The triangular prism K_3 box K_2 (6 vertices, 9 edges, 6 MIS)."""
    return cartesian_product(complete(3), complete(2))


def is_triangle_free(g: Graph) -> bool:
    """Loops never form triangles; only three distinct mutually adjacent
    vertices count."""
    n = g.num_vertices
    for i in range(n):
        mi = g.nbr[i]
        for j in _bits(mi >> (i + 1) << (i + 1)):
            if mi & g.nbr[j]:
                return False
    return True


def degree_stats(g: Graph) -> tuple[int, int, int]:
    """(min degree, max degree, edge count); a loop adds 2 to its vertex's
    degree but is a single edge."""
    if g.num_vertices == 0:
        return (0, 0, 0)
    degs = [
        g.nbr[i].bit_count() + 2 * (g.loops_mask >> i & 1)
        for i in range(g.num_vertices)
    ]
    return (min(degs), max(degs), g.edge_count())


def component_masks(nbr: Sequence[int], within: int = -1) -> list[int]:
    """Index masks of the connected components of the subgraph induced on
    the index mask `within` (every vertex by default) of the graph with
    neighbour masks `nbr`, by lowest index."""
    rest = within & ((1 << len(nbr)) - 1)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= nbr[i]
            frontier = nxt & rest & ~comp
            comp |= frontier
        rest &= ~comp
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[Graph]:
    """Split into induced subgraphs, one per connected component."""
    return [_induced(g, c) for c in component_masks(g.nbr)]


def induced_subgraph(g: Graph, labels: Sequence[int]) -> Graph:
    """The subgraph induced on the given labels; labels not in `g` are ignored."""
    keep = set(labels)
    return _induced(g, sum(1 << i for i, v in enumerate(g.labels) if v in keep))


def _induced(g: Graph, keep: int) -> Graph:
    """The subgraph induced on the index mask `keep`, index bits compacted."""
    idx = list(_bits(keep))

    def compact(mask: int) -> int:
        return sum(1 << k for k, i in enumerate(idx) if mask >> i & 1)

    return Graph._trusted(
        tuple(g.labels[i] for i in idx),
        tuple(compact(g.nbr[i]) for i in idx),
        compact(g.loops_mask),
    )


def disjoint_p3_packing(g: Graph, exact_limit: int = 30) -> int:
    """Size of a vertex-disjoint collection of 3-vertex paths.

    Exact (by branching with memoisation) up to `exact_limit` vertices,
    greedy above; either way the result is a certified lower bound for the
    packing number, which is all the path-packing bounds need.
    """
    n = g.num_vertices
    if n <= exact_limit:
        return sum(_p3_exact(g.nbr, comp, {}) for comp in component_masks(g.nbr))
    return _p3_greedy(g)


def _p3_exact(nbr: Sequence[int], free: int, memo: dict[int, int]) -> int:
    """Most disjoint 3-vertex paths inside the index mask `free`, memoised
    on the mask.  Module level, not a closure over the memo, so no reference
    cycle keeps a finished memo alive until the next GC."""
    if free in memo:
        return memo[free]
    # branch on the lowest free vertex: skip it, or use it in some P_3
    low = free & -free
    if not low:
        return 0
    v = low.bit_length() - 1
    fv = free ^ low
    best = _p3_exact(nbr, fv, memo)
    # v as an endpoint: v - b - c
    for b in _bits(nbr[v] & fv):
        rest = fv & ~(1 << b)
        for c in _bits(nbr[b] & rest):
            best = max(best, 1 + _p3_exact(nbr, rest & ~(1 << c), memo))
    # v as the centre: b - v - c
    nb = list(_bits(nbr[v] & fv))
    for i, b in enumerate(nb):
        for c in nb[i + 1 :]:
            best = max(best, 1 + _p3_exact(nbr, fv & ~(1 << b) & ~(1 << c), memo))
    memo[free] = best
    return best


def _p3_greedy(g: Graph) -> int:
    free = (1 << g.num_vertices) - 1
    count = 0
    for b in range(g.num_vertices):
        if not free >> b & 1:
            continue
        nb = [u for u in _bits(g.nbr[b] & free)]
        if len(nb) >= 2:
            free &= ~(1 << b) & ~(1 << nb[0]) & ~(1 << nb[1])
            count += 1
    return count


def check_isomorphism_map(g: Graph, h: Graph, f: Mapping[int, int]) -> bool:
    """Whether the label map f : V(g) -> V(h) is an exact isomorphism
    (adjacency and loops preserved in both directions)."""
    if sorted(f.keys()) != list(g.labels):
        raise ValueError("map is not total on the first graph")
    if sorted(f.values()) != list(h.labels):
        raise ValueError("map is not a bijection onto the second graph")
    mapped = sorted(
        (min(f[u], f[v]), max(f[u], f[v])) for u, v in g.edges()
    )
    return mapped == h.edges()


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism search with degree/loop invariants."""
    n = g.num_vertices
    if n > 64 or h.num_vertices > 64:
        raise ValueError("isomorphism search is limited to 64 vertices")
    if n != h.num_vertices or g.edge_count() != h.edge_count():
        return False
    if g.loops_mask.bit_count() != h.loops_mask.bit_count():
        return False

    def sig(gr: Graph, i: int) -> tuple:
        deg = gr.nbr[i].bit_count()
        loop = gr.loops_mask >> i & 1
        ndegs = sorted(gr.nbr[j].bit_count() for j in _bits(gr.nbr[i]))
        return (deg, loop, tuple(ndegs))

    gs = [sig(g, i) for i in range(n)]
    hs = [sig(h, i) for i in range(n)]
    if sorted(gs) != sorted(hs):
        return False

    # match g-vertices in order of rarest signature first
    order = sorted(range(n), key=lambda i: (gs.count(gs[i]), -g.nbr[i].bit_count()))
    assign = [-1] * n  # g index -> h index
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used >> j & 1 or hs[j] != gs[i]:
                continue
            ok = True
            for p in range(pos):
                ip = order[p]
                if bool(g.nbr[i] >> ip & 1) != bool(h.nbr[j] >> assign[ip] & 1):
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = j
            used |= 1 << j
            if extend(pos + 1):
                return True
            used &= ~(1 << j)
            assign[i] = -1
        return False

    found = extend(0)
    del extend  # it reaches itself through its closure cell: free it now, not at a GC
    return found


def to_text(g: Graph) -> str:
    """Serialise in the exchange format:

    g <num_vertices>
    v <index> <label>        (one per vertex)
    e <u> <v>                (vertex indices; u = v denotes a loop)
    """
    lines = [f"g {g.num_vertices}"]
    index = {v: i for i, v in enumerate(g.labels)}
    for i, v in enumerate(g.labels):
        lines.append(f"v {i} {v}")
    for u, v in g.edges():
        lines.append(f"e {index[u]} {index[v]}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Graph:
    """Parse the `to_text` format, `g` header first.  A malformed line raises
    ValueError naming it."""
    labels: dict[int, int] = {}
    edges: list[list[int]] = []
    n = None
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        kind, *fields = parts
        where = f"graph line {number} {line.strip()!r}"
        if len(fields) != {"g": 1, "v": 2, "e": 2}.get(kind):
            raise ValueError(f"{where}: expected 'g n', 'v index label' or 'e u v'")
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"{where}: fields must be integers") from None
        if kind == "g":
            if n is not None:
                raise ValueError(f"{where}: repeated g header")
            n = values[0]
        elif n is None:
            raise ValueError(f"{where}: comes before the g header")
        elif not all(0 <= i < n for i in (values if kind == "e" else values[:1])):
            raise ValueError(f"{where}: vertex index outside [0, {n})")
        elif kind == "e":
            edges.append(values)
        elif values[0] in labels:
            raise ValueError(f"{where}: duplicate vertex index")
        else:
            labels[values[0]] = values[1]
    if n is None or len(labels) != n:
        raise ValueError("vertex count does not match header")
    lab = [labels[i] for i in range(n)]
    return Graph.build(
        lab,
        [(lab[u], lab[v]) for u, v in edges if u != v],
        [lab[u] for u, v in edges if u == v],
    )
