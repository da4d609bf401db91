"""Spot-checks against networkx as a wholly independent implementation."""

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import connected_graphs, graphs, is_chordal
from twcert.check import validate_td
from twcert.config import Budget, RunConfig
from twcert.decompose import find_hole
from twcert.detect import induced_copies, iter_induced_maps
from twcert.generators import complete_graph, cycle_graph, path_graph, star_graph
from twcert.graphs import Graph, clique_number, disjoint_union, line_graph
from twcert.separators import exact_treewidth


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@given(graphs(max_n=7))
@settings(max_examples=50, deadline=None)
def test_line_graph_matches_networkx(g):
    ours = line_graph(g)
    theirs = nx.line_graph(_to_nx(g))
    assert ours.n == theirs.number_of_nodes()
    assert ours.m == theirs.number_of_edges()
    index = {e: i for i, e in enumerate(g.edges)}
    for (a, b) in theirs.edges():
        i, j = index[tuple(sorted(a))], index[tuple(sorted(b))]
        assert ours.has_edge(i, j)


@given(connected_graphs(max_n=7))
@settings(max_examples=50, deadline=None)
def test_chordality_matches_networkx(g):
    assert is_chordal(g) == nx.is_chordal(_to_nx(g))


@given(graphs(max_n=10))
@settings(max_examples=200, deadline=None)
def test_find_hole_returns_a_hole_exactly_on_non_chordal_graphs(g):
    hole = find_hole(g)
    assert (hole is None) == nx.is_chordal(_to_nx(g))
    if hole is not None:
        k = len(hole)
        assert k >= 4 and len(set(hole)) == k
        # consecutive vertices, last and first included, are the only edges
        for i, j in combinations(range(k), 2):
            assert g.has_edge(hole[i], hole[j]) == (j - i in (1, k - 1))


@given(graphs(max_n=7))
@settings(max_examples=50, deadline=None)
def test_clique_number_matches_networkx(g):
    if g.n == 0:
        return
    theirs = max(len(c) for c in nx.find_cliques(_to_nx(g)))
    assert clique_number(g) == theirs


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_treewidth_upper_bounds_networkx_heuristic(g):
    tw, td = exact_treewidth(g, cap=14)
    assert validate_td(g, td).ok
    width, _ = nx.algorithms.approximation.treewidth_min_fill_in(_to_nx(g))
    # a heuristic width can never undercut the optimum
    assert width >= tw


# small patterns, including disconnected ones whose non-edges must map to
# non-edges
COPY_PATTERNS = [
    path_graph(1),
    path_graph(2),
    Graph(2, []),
    path_graph(3),
    complete_graph(3),
    path_graph(4),
    cycle_graph(4),
    star_graph(3),
    disjoint_union(path_graph(2), path_graph(2)),
    disjoint_union(path_graph(2), Graph(1, [])),
]


@given(graphs(max_n=7))
@settings(max_examples=50, deadline=None)
def test_induced_copies_match_networkx(g):
    host = _to_nx(g)
    for p in COPY_PATTERNS:
        theirs = {
            tuple(sorted(m))
            for m in GraphMatcher(host, _to_nx(p)).subgraph_isomorphisms_iter()
        }
        assert induced_copies(g, p, Budget(RunConfig.search_budget)) == sorted(theirs)


@given(graphs(max_n=7), graphs(max_n=5))
@settings(max_examples=100, deadline=None)
def test_induced_maps_order_matches_networkx(g, p):
    # networkx maps host -> pattern; invert to the engine's pattern -> host
    # tuples, whose lexicographic order the engine promises
    theirs = []
    for m in GraphMatcher(_to_nx(g), _to_nx(p)).subgraph_isomorphisms_iter():
        inverse = {v: u for u, v in m.items()}
        theirs.append(tuple(inverse[i] for i in range(p.n)))
    assert list(iter_induced_maps(g, p, Budget(RunConfig.search_budget))) == sorted(theirs)
