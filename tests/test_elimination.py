"""The one fill-in elimination routine against the three it replaced: the
set-based minimum-fill order, the bag builder along a fixed order, and the
clique-tree loop over a perfect elimination ordering."""

import random
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, is_chordal, random_graph
from twcert.decompose import NotChordal, chordal_td, maximum_cardinality_search
from twcert.generators import complete_graph, wall
from twcert.graphs import Graph, TreeDecomposition, bits, mask_of
from twcert.separators import along, eliminate, treewidth_bounds
from twcert.suites import chordal_growth


def reference_min_fill_order(g: Graph) -> list[int]:
    adj: list[set[int]] = [set(g.neighbors(v)) for v in g.vertices]
    alive = set(g.vertices)
    order: list[int] = []
    while alive:

        def fill(v: int) -> int:
            nb = [u for u in adj[v] if u in alive]
            return sum(1 for a, b in combinations(nb, 2) if b not in adj[a])

        v = min(alive, key=lambda u: (fill(u), len([x for x in adj[u] if x in alive]), u))
        nb = [u for u in adj[v] if u in alive]
        for a, b in combinations(nb, 2):
            adj[a].add(b)
            adj[b].add(a)
        alive.remove(v)
        order.append(v)
    return order


def reference_elimination_td(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    if g.n == 0:
        return TreeDecomposition(bags=((),), tree_edges=())
    masks = list(g._masks)
    pos = {v: i for i, v in enumerate(order)}
    bags: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        nb = masks[v]
        bags.append(tuple(sorted([v] + list(bits(nb)))))
        neigh = list(bits(nb))
        for a in neigh:
            masks[a] |= nb & ~(1 << a)
            masks[a] &= ~(1 << v)
        later = [w for w in neigh if pos[w] > i]
        if later:
            edges.append((i, pos[min(later, key=lambda w: pos[w])]))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(bags=tuple(bags), tree_edges=tuple(sorted(edges)))


def reference_is_peo(g: Graph, order: Sequence[int]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        first = min(later, key=lambda w: pos[w])
        rest = mask_of(w for w in later if w != first)
        if g.neighbor_mask(first) & rest != rest:
            return False
    return True


def reference_chordal_td(g: Graph) -> TreeDecomposition:
    """The clique-tree loop; only called on chordal graphs."""
    if g.n == 0:
        return TreeDecomposition(bags=((),), tree_edges=())
    order = maximum_cardinality_search(g)
    pos = {v: i for i, v in enumerate(order)}
    bags: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        later = sorted(w for w in g.neighbors(v) if pos[w] > pos[v])
        bags.append(tuple(sorted([v] + later)))
        if later:
            edges.append((i, pos[min(later, key=lambda w: pos[w])]))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(bags=tuple(bags), tree_edges=tuple(sorted(edges)))


def _assert_matches_reference(g: Graph, order: Sequence[int]) -> None:
    want = reference_elimination_td(g, reference_min_fill_order(g))
    assert treewidth_bounds(g).td == want
    assert eliminate(g, along(order))[0] == reference_elimination_td(g, order)
    mcs = maximum_cardinality_search(g)
    chordal = reference_is_peo(g, mcs)
    assert eliminate(g, along(mcs))[1] == (not chordal)
    assert is_chordal(g) == chordal
    if chordal:
        assert chordal_td(g) == reference_chordal_td(g)
    else:
        with pytest.raises(NotChordal):
            chordal_td(g)


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=0, max_n=10), st.randoms(use_true_random=False))
def test_elimination_matches_reference_on_hypothesis_graphs(g, rnd):
    order = list(g.vertices)
    rnd.shuffle(order)
    _assert_matches_reference(g, order)


def test_elimination_matches_reference_on_chordal_growth():
    rng = random.Random(11)
    for _ in range(60):
        g = chordal_growth(rng, rng.randint(1, 30))
        order = list(g.vertices)
        rng.shuffle(order)
        assert is_chordal(g)
        _assert_matches_reference(g, order)


@pytest.mark.parametrize(
    "g",
    [wall(k, k) for k in range(4, 9)]
    + [random_graph(n, p, 100 * n + int(100 * p)) for n in (30, 45, 60) for p in (0.05, 0.1, 0.2)]
    + [complete_graph(16)]
    + [random_graph(n, p, 100 * n + int(100 * p)) for n in (16, 30) for p in (0.5, 0.9)],
    ids=[f"wall{k}x{k}" for k in range(4, 9)]
    + [f"rand-n{n}-p{p}" for n in (30, 45, 60) for p in (0.05, 0.1, 0.2)]
    + ["K16"]
    + [f"rand-n{n}-p{p}" for n in (16, 30) for p in (0.5, 0.9)],
)
def test_min_fill_matches_reference_at_scale(g):
    """Min-fill re-keys only the eliminated vertex's bag and the vertices
    with two neighbours in it; a key left stale would change the order on
    graphs this large, where the hypothesis graphs above rarely show it.
    On the dense cases almost every vertex outside the bag has two
    neighbours in it, so nearly every key is recomputed each step."""
    want = reference_elimination_td(g, reference_min_fill_order(g))
    assert treewidth_bounds(g).td == want


def reference_maximum_cardinality_search(g: Graph) -> list[int]:
    """The O(n^2) scan the bucket queue replaced: each step visits the
    unvisited vertex of the largest weight, the lowest id among ties."""
    weight = [0] * g.n
    visited = [False] * g.n
    order: list[int] = []
    for _ in range(g.n):
        v = max(
            (u for u in g.vertices if not visited[u]),
            key=lambda u: (weight[u], -u),
        )
        visited[v] = True
        order.append(v)
        for w in g.neighbors(v):
            if not visited[w]:
                weight[w] += 1
    order.reverse()
    return order


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=0, max_n=12))
def test_maximum_cardinality_search_matches_reference(g):
    assert maximum_cardinality_search(g) == reference_maximum_cardinality_search(g)


@pytest.mark.parametrize("seed", range(20))
def test_maximum_cardinality_search_matches_reference_at_scale(seed):
    """Random graphs and chordal graphs up to 80 vertices, where the top
    bucket rises and falls many times."""
    rng = random.Random(seed)
    n = rng.randint(20, 80)
    for g in (random_graph(n, rng.choice([0.05, 0.1, 0.3]), seed), chordal_growth(rng, n)):
        assert maximum_cardinality_search(g) == reference_maximum_cardinality_search(g)
