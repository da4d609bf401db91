from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anticomplete, graphs
from twcert.graphs import (
    Graph,
    clique_number,
    mask_of,
    full_subdivision,
    line_graph,
    subdivide,
)
from twcert.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    wall,
)


def test_rejects_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_parallel_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_neighborhood_radii():
    p5 = path_graph(5)
    assert p5.neighborhood([2]) == (1, 2, 3)


def test_neighborhood_on_wall_branch_vertex():
    g = wall(3, 3)
    v = next(u for u in g.vertices if g.degree(u) == 3)
    assert len(g.neighborhood([v])) == 4


def test_components_examples():
    p5 = path_graph(5)
    assert p5.components((0, 1, 3, 4)) == [(0, 1), (3, 4)]
    assert p5.components(p5.vertices) == [tuple(range(5))]
    c4 = cycle_graph(4)
    assert c4.components((0, 3)) == [(0, 3)]
    # opposite pair of the 4-cycle: 0-1-2-3-0, so 0 and 2 are non-adjacent
    assert c4.components((0, 2)) == [(0,), (2,)]


@given(graphs())
@settings(max_examples=60)
def test_components_partition_and_anticomplete(g):
    comps = g.components(g.vertices)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    for comp in comps:
        if len(comp) > 1:
            assert g.is_connected_mask(mask_of(comp))
    for c1, c2 in combinations(comps, 2):
        assert anticomplete(g, c1, c2)


def test_line_graph_small_cases():
    assert line_graph(path_graph(3)).edges == ((0, 1),)
    lk13 = line_graph(star_graph(3))
    assert lk13.n == 3 and lk13.m == 3  # triangle
    lc4 = line_graph(cycle_graph(4))
    assert lc4.n == 4 and sorted(lc4.degree(v) for v in lc4.vertices) == [2, 2, 2, 2]
    assert lc4.is_connected()


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_line_graph_degree_formula(g):
    lg = line_graph(g)
    assert lg.n == g.m
    for i, (u, v) in enumerate(g.edges):
        assert lg.degree(i) == g.degree(u) + g.degree(v) - 2


def test_subdivide_identity_and_path():
    p2 = path_graph(2)
    p4 = subdivide(p2, {(0, 1): 3})
    assert p4.n == 4 and p4.m == 3
    g = wall(2, 2)
    assert subdivide(g, {e: 1 for e in g.edges}) == g
    with pytest.raises(ValueError):
        subdivide(g, {g.edges[0]: 0})
    with pytest.raises(ValueError):
        subdivide(g, {(0, 3): 2})  # not an edge


def test_subdivision_preserves_treewidth_small():
    from twcert.separators import exact_treewidth, treewidth_bounds

    for g in [cycle_graph(4), complete_graph(4), complete_bipartite(2, 3), wall(2, 2)]:
        tw = exact_treewidth(g, cap=14)[0]
        sub = full_subdivision(g)
        if sub.n <= 14:
            assert exact_treewidth(sub, cap=14)[0] == tw
        else:
            b = treewidth_bounds(sub)
            assert b.exact == tw


def test_clique_and_independence_numbers():
    assert clique_number(complete_graph(4)) == 4
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(complete_bipartite(2, 3)) == 2


@given(graphs(max_n=7))
@settings(max_examples=40)
def test_clique_number_matches_bruteforce(g):
    best = 1 if g.n else 0
    for r in range(2, g.n + 1):
        for vs in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
                best = max(best, r)
    assert clique_number(g) == best


def test_lexicographic_component_order():
    g = Graph(6, [(0, 5), (1, 2), (3, 4)])
    assert g.components(g.vertices) == [(0, 5), (1, 2), (3, 4)]


class RefGraph:
    """The earlier `Graph` constructor, which stored a sorted edge tuple and
    sorted neighbour tuples beside the masks."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at {u} not allowed in a simple graph")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self._edges = tuple(sorted(seen))
        adj = [[] for _ in range(n)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    def __eq__(self, other):
        return self.n == other.n and self._edges == other._edges


def _built(cls, n, edges):
    try:
        return cls(n, edges)
    except ValueError as exc:
        return str(exc)


@st.composite
def edge_lists(draw, max_n=8):
    """A vertex count and an edge list with repeats, both orientations, and
    sometimes a loop or an end out of range."""
    n = draw(st.integers(-1, max_n))
    end = st.integers(-1, max(n, 0))
    return n, draw(st.lists(st.tuples(end, end), max_size=3 * max_n))


@given(edge_lists(), edge_lists())
@settings(max_examples=300, deadline=None)
def test_graph_matches_tuple_storing_reference(case, other):
    g, ref = _built(Graph, *case), _built(RefGraph, *case)
    if isinstance(ref, str):
        assert g == ref  # the same message for the same first bad edge
        return
    assert g.n == ref.n and g.edges == ref._edges and g.m == len(ref._edges)
    for v in range(g.n):
        assert g.neighbors(v) == ref._adj[v]
        assert g.degree(v) == len(ref._adj[v])
    assert g.max_degree() == max((len(a) for a in ref._adj), default=0)
    same = Graph(ref.n, [(v, u) for u, v in reversed(ref._edges)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(ref.n + 1, ref._edges)
    h, ref_h = _built(Graph, *other), _built(RefGraph, *other)
    if not isinstance(ref_h, str):
        assert (g == h) == (ref == ref_h)
        assert g != h or hash(g) == hash(h)
