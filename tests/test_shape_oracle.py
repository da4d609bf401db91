"""The `detectors` suite's subdivision oracle against networkx isomorphism.

`is_subdivision_set(g, vs, shape)` decides whether G[vs] subdivides a small
base graph with each edge's length in a range.  On seeded random graphs
with at most 8 vertices it must agree, for every vertex set vs, with
`nx.is_isomorphic(G[vs], H)`, where H runs over the generators' members
with |vs| vertices:

- `THETA_SHAPE` against every `theta(l1, l2, l3)`;
- `PYRAMID_SHAPE` against every `pyramid(l1, l2, l3)`;
- `claw_shape(lens)` against `subdivided_claw(*lens)`, for every leg vector.

Networkx decides isomorphism with its own matcher; the test only skips the
call when the degree sequences differ, which isomorphic graphs never do.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import networkx as nx
import pytest

from conftest import random_graph
from twcert.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    pyramid,
    subdivided_claw,
    theta,
)
from twcert.graphs import Graph, disjoint_union
from twcert.check import (
    PYRAMID_SHAPE,
    THETA_SHAPE,
    claw_shape,
    is_subdivision_set,
)

MAX_N = 8


def _nx(g: Graph, vs=None) -> nx.Graph:
    vs = range(g.n) if vs is None else vs
    h = nx.Graph()
    h.add_nodes_from(vs)
    h.add_edges_from((u, v) for u, v in combinations(vs, 2) if g.has_edge(u, v))
    return h


def _members(n: int) -> dict:
    """shape -> the generated graphs with n vertices it stands for."""
    triples = [t for t in product(range(1, n + 1), repeat=3) if list(t) == sorted(t)]
    out = {
        THETA_SHAPE: [theta(*t).graph for t in triples if t[0] >= 2 and sum(t) - 1 == n],
        PYRAMID_SHAPE: [pyramid(*t).graph for t in triples if t[1] >= 2 and sum(t) + 1 == n],
    }
    for lens in product(range(n), range(1, n), range(1, n)):
        if 1 + sum(lens) == n:
            out[claw_shape(lens)] = [subdivided_claw(*lens).graph]
    return {shape: [_nx(h) for h in hs] for shape, hs in out.items()}


MEMBERS = {n: _members(n) for n in range(1, MAX_N + 1)}


def _degrees(h: nx.Graph) -> list[int]:
    return sorted(d for _, d in h.degree())


def _corpus() -> list[Graph]:
    """Seeded random graphs, plus hosts built from each theta and pyramid on
    at most 7 vertices, relabeled: one with an isolated vertex more, two with
    a vertex more joined to a random set, and one with each edge subdivided
    once.  Random graphs rarely hold the long paths these carry."""
    graphs = [random_graph(4 + seed % 5, (0.3, 0.45, 0.6)[seed % 3], seed) for seed in range(60)]
    rng = random.Random(0)
    for n in range(5, MAX_N):
        for h in MEMBERS[n][THETA_SHAPE] + MEMBERS[n][PYRAMID_SHAPE]:
            edges = list(h.edges)
            hosts = [edges] + [
                edges + [(n, v) for v in range(n) if rng.random() < 0.4] for _ in range(2)
            ]
            hosts += [[e for e in edges if e != (u, v)] + [(u, n), (n, v)] for u, v in edges]
            for host in hosts:
                label = rng.sample(range(n + 1), n + 1)
                graphs.append(Graph(n + 1, [tuple(sorted((label[u], label[v]))) for u, v in host]))
    return graphs


def test_oracle_agrees_with_isomorphism():
    accepted = dict.fromkeys(("theta", "pyramid", "claw"), 0)
    for g in _corpus():
        for r in range(1, g.n + 1):
            for vs in combinations(range(g.n), r):
                h = _nx(g, vs)
                degrees = _degrees(h)
                for shape, hs in MEMBERS[r].items():
                    want = any(
                        _degrees(m) == degrees and nx.is_isomorphic(h, m) for m in hs
                    )
                    assert is_subdivision_set(g, vs, shape) == want, (g.edges, vs, shape)
                    if want:
                        kind = {THETA_SHAPE: "theta", PYRAMID_SHAPE: "pyramid"}
                        accepted[kind.get(shape, "claw")] += 1
    assert min(accepted.values()) >= 10, accepted


def _whole(g: Graph) -> range:
    return range(g.n)


def test_theta_with_a_disjoint_cycle_is_no_theta():
    t = theta(2, 2, 3).graph
    assert is_subdivision_set(t, _whole(t), THETA_SHAPE)
    g = disjoint_union(t, cycle_graph(4))
    # the C4's vertices have degree 2 but lie on no branch path
    assert not is_subdivision_set(g, _whole(g), THETA_SHAPE)


def test_path_back_to_its_branch_vertex_is_rejected():
    # two triangles joined by an edge: degrees (3, 3) as in a theta, but each
    # branch vertex's triangle is a path from it back to itself
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)])
    assert not is_subdivision_set(g, _whole(g), THETA_SHAPE)


def test_k4_is_no_pyramid():
    k4 = complete_graph(4)
    assert not is_subdivision_set(k4, _whole(k4), PYRAMID_SHAPE)
    p = pyramid(1, 2, 2).graph
    assert is_subdivision_set(p, _whole(p), PYRAMID_SHAPE)


def test_k23_is_a_theta():
    k23 = complete_bipartite(2, 3)
    assert is_subdivision_set(k23, _whole(k23), THETA_SHAPE)


@pytest.mark.parametrize("lens", [(0, 2, 1), (1, 1, 1), (2, 1, 3)])
def test_claw_shape_takes_exact_legs(lens):
    longer = (lens[0], lens[1] + 1, lens[2])
    for have, want in product((lens, longer), repeat=2):
        c = subdivided_claw(*have).graph
        assert is_subdivision_set(c, _whole(c), claw_shape(want)) == (have == want)
