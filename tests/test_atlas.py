"""Every graph on at most 7 vertices: the theta, pyramid and wall-line k = 2
detectors against brute-force oracles over all vertex subsets.

`networkx.graph_atlas_g()` lists the 1,253 graphs on 0-7 vertices, one per
isomorphism class, connected or not.  The oracles use networkx and
`itertools` only, so they share no code with the detectors or with `check`.
A detector finds a pattern exactly when some subset passes its oracle, and
the image it returns passes it.  A subset passes when, in the subgraph it
induces:

- theta t: two non-adjacent vertices have degree 3 and every other vertex
  degree 2, and each component of what is left touches both, with at
  least t - 1 vertices.  Each component then has two edges out, so it is a
  path between the two; without the touching test a dumbbell (two cycles
  joined by a path) would pass.
- pyramid t: three pairwise adjacent vertices and one more, the apex, have
  degree 3 and every other vertex degree 2; the apex is adjacent to at most
  one of the three, and only when t = 1; each component of what is left
  touches the apex and one of the three, a different one each time, with at
  least t - 1 vertices and at least 1.
- hole (wall-line k = 2): at least 4 vertices, every one of degree 2, and
  connected.

Every theta and pyramid holds an induced claw, so on the 431 atlas graphs
with none, a vertex with three pairwise non-adjacent neighbours found with
`itertools`, the theta and pyramid detectors answer at 0 ticks.
- subdivided claw (t1, t2, t3): isomorphic to the spider networkx builds,
  a root joined to three paths of those lengths.  Only subsets with the
  spider's degrees, counted with bitmasks, are built as subgraphs.

`find_creature` with (k, t) = (3, 0), (3, 1) and (2, 1) is checked on the
same graphs against a body-first brute force on bitmasks: each connected
vertex set is a body, which keeps the induced paths on t+1 vertices that
miss it, whose joint (first vertex) touches it and whose other vertices do
not; a creature exists when k kept paths are disjoint and pairwise
anticomplete.  The match found must be such a body and k such paths.

`decompose.chordal_td` is checked on the same graphs against
`networkx.is_chordal`: it raises `NotChordal` exactly on the graphs that
are not chordal, with a hole as above; otherwise its bags are cliques that
cover every edge, and its width is the clique number minus 1.
"""

from functools import cache
from itertools import combinations, permutations

import networkx as nx
import pytest

from twcert.config import Budget, RunConfig
from twcert.decompose import NotChordal, chordal_td
from twcert.detect import (
    find_creature,
    find_line_of_subdivided_wall,
    find_subdivided_claw,
    find_t_pyramid,
    find_t_theta,
)
from twcert.graphs import Graph

ATLAS = nx.graph_atlas_g()


def hosts() -> list[tuple[nx.Graph, Graph]]:
    """Each atlas graph, with the same graph as a `Graph`."""
    return [(a, Graph(len(a), [tuple(sorted(e)) for e in a.edges])) for a in ATLAS]


def masks(atlas: nx.Graph) -> list[int]:
    """The neighbour mask of each vertex of `atlas`."""
    return [sum(1 << u for u in atlas[v]) for v in range(len(atlas))]


def parts(h: nx.Graph):
    """The degrees in h, and its vertices of degree 3; None unless every
    other vertex has degree 2."""
    degree = dict(h.degree)
    if any(d not in (2, 3) for d in degree.values()):
        return None
    return degree, [v for v, d in degree.items() if d == 3]


def branches(h: nx.Graph, ends):
    """The components of h without `ends`, each as (its size, the ends it
    touches)."""
    rest = h.subgraph(set(h) - set(ends))
    return [
        (len(c), {e for e in ends if any(h.has_edge(e, v) for v in c)})
        for c in nx.connected_components(rest)
    ]


def is_theta(h: nx.Graph, t: int) -> bool:
    got = parts(h)
    if got is None or len(got[1]) != 2 or h.has_edge(*got[1]):
        return False
    found = branches(h, got[1])
    return len(found) == 3 and all(
        size >= t - 1 and touched == set(got[1]) for size, touched in found
    )


def is_pyramid(h: nx.Graph, t: int) -> bool:
    got = parts(h)
    if got is None or len(got[1]) != 4:
        return False
    for apex in got[1]:
        base = [b for b in got[1] if b != apex]
        if not all(h.has_edge(x, y) for x, y in combinations(base, 2)):
            continue
        direct = [b for b in base if h.has_edge(apex, b)]
        if len(direct) > (1 if t == 1 else 0):
            continue
        found = branches(h, got[1])
        if not all(apex in touched and len(touched) == 2 for _, touched in found):
            continue
        reached = [b for _, touched in found for b in touched if b != apex]
        if sorted(reached + direct) == sorted(base) and all(
            size >= t - 1 for size, _ in found
        ):
            return True
    return False


def is_hole(h: nx.Graph) -> bool:
    return len(h) >= 4 and all(d == 2 for _, d in h.degree) and nx.is_connected(h)


def has_claw(h: nx.Graph) -> bool:
    """Whether some vertex of h has three pairwise non-adjacent neighbours."""
    return any(
        not any(h.has_edge(a, b) for a, b in combinations(trio, 2))
        for v in h
        for trio in combinations(h[v], 3)
    )


# name: (the number of degree-3 vertices, the oracle, the detector)
ORACLES = {
    "theta-t2": (2, lambda h: is_theta(h, 2), lambda g, b: find_t_theta(g, 2, b)),
    "pyramid-t1": (4, lambda h: is_pyramid(h, 1), lambda g, b: find_t_pyramid(g, 1, b)),
    "pyramid-t2": (4, lambda h: is_pyramid(h, 2), lambda g, b: find_t_pyramid(g, 2, b)),
    "hole": (0, is_hole, lambda g, b: find_line_of_subdivided_wall(g, 2, b)),
}

# graphs with a pattern, as measured when the test was written: holes in 721
# atlas graphs, thetas with t = 2 in 208, pyramids with t = 1 in 43 and with
# t = 2 in 1
POSITIVES = {"theta-t2": 208, "pyramid-t1": 43, "pyramid-t2": 1, "hole": 721}


@cache
def shaped_subsets() -> list[dict[int, list[tuple[int, ...]]]]:
    """For each atlas graph, its vertex subsets whose induced degrees are
    all 2 or 3, by how many are 3: the only subsets an oracle can pass,
    found with bitmasks so that networkx builds few subgraphs."""
    out = []
    for atlas in ATLAS:
        n, nbr = len(atlas), masks(atlas)
        shaped: dict[int, list[tuple[int, ...]]] = {}
        for r in range(n + 1):
            for vs in combinations(range(n), r):
                mask = sum(1 << v for v in vs)
                degrees = [(nbr[v] & mask).bit_count() for v in vs]
                if all(d in (2, 3) for d in degrees):
                    shaped.setdefault(degrees.count(3), []).append(vs)
        out.append(shaped)
    return out


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_detectors_match_brute_force_on_the_atlas(name):
    threes, oracle, detect = ORACLES[name]
    positives = claw_free = 0
    for atlas, shaped in zip(ATLAS, shaped_subsets()):
        g = Graph(len(atlas), [tuple(sorted(e)) for e in atlas.edges])
        budget = Budget(RunConfig.search_budget)
        match = detect(g, budget)
        passing = [vs for vs in shaped.get(threes, []) if oracle(atlas.subgraph(vs))]
        assert (match is not None) == bool(passing), (name, atlas.name)
        if match is not None:
            assert match.image in passing, (name, atlas.name)
            positives += 1
        if name != "hole" and not has_claw(atlas):
            assert budget.used == 0, (name, atlas.name)
            claw_free += 1
    assert positives == POSITIVES[name]
    assert claw_free == (0 if name == "hole" else 431)


def spider(legs: tuple[int, int, int]) -> nx.Graph:
    """The subdivided claw with these leg lengths: root 0 joined to three
    paths, a leg of length 0 adding nothing."""
    h = nx.empty_graph(1)
    for t in legs:
        nx.add_path(h, [0, *range(len(h), len(h) + t)])
    return h


def profiled(atlas: nx.Graph, degrees: list[int]) -> list[tuple[int, ...]]:
    """The vertex subsets of `atlas` whose induced degrees, sorted, are
    `degrees`, found with bitmasks."""
    nbr = masks(atlas)
    out = []
    for vs in combinations(range(len(atlas)), len(degrees)):
        mask = sum(1 << v for v in vs)
        if sorted((nbr[v] & mask).bit_count() for v in vs) == degrees:
            out.append(vs)
    return out


# graphs with a claw, as measured when the test was written: (1, 2, 3) has 7
# vertices, so only the spider itself holds one
CLAWS = {(1, 1, 1): 822, (2, 1, 1): 457, (0, 2, 1): 965, (1, 2, 2): 41, (1, 2, 3): 1}


@pytest.mark.parametrize("legs", sorted(CLAWS), ids=lambda ls: "".join(map(str, ls)))
def test_claw_detector_matches_brute_force_on_the_atlas(legs):
    pattern = spider(legs)
    degrees = sorted(d for _, d in pattern.degree)
    positives = 0
    for atlas, g in hosts():
        match = find_subdivided_claw(g, *legs, Budget(RunConfig.search_budget))
        subsets = profiled(atlas, degrees)
        if match is None:
            passing = [
                vs for vs in subsets if nx.is_isomorphic(atlas.subgraph(vs), pattern)
            ]
            assert not passing, (legs, atlas.name)
        else:
            assert match.image in subsets, (legs, atlas.name)
            assert nx.is_isomorphic(atlas.subgraph(match.image), pattern)
            positives += 1
    assert positives == CLAWS[legs]


def connected(nbr: list[int], mask: int) -> bool:
    """Whether the vertices of `mask` induce a connected graph."""
    seen, grown = 0, mask & -mask
    while grown != seen:
        seen = grown
        for v in range(len(nbr)):
            if seen >> v & 1:
                grown |= nbr[v] & mask
    return seen == mask


def induced_paths(nbr: list[int], t: int) -> list[tuple[tuple[int, ...], tuple]]:
    """Each induced path on t+1 vertices, joint first, with its masks: its
    vertices, its joint's neighbours, the neighbours of its other vertices,
    and its vertices with all their neighbours.  Consecutive vertices are
    adjacent and each vertex has its path degree inside the path, so the
    path has no chord."""
    out = []
    for p in permutations(range(len(nbr)), t + 1):
        pm = sum(1 << v for v in p)
        if all(nbr[u] >> v & 1 for u, v in zip(p, p[1:])) and all(
            (nbr[v] & pm).bit_count() == (i > 0) + (i < t) for i, v in enumerate(p)
        ):
            rest = 0
            for v in p[1:]:
                rest |= nbr[v]
            out.append((p, (pm, nbr[p[0]], rest, pm | nbr[p[0]] | rest)))
    return out


def legs(paths, body: int) -> list[tuple[int, ...]]:
    """The masks of the paths that are legs of `body`: each misses it, and
    its joint touches it and no other vertex does."""
    return [
        m for _, m in paths if m[0] & body == 0 and m[1] & body and m[2] & body == 0
    ]


def apart(kept) -> bool:
    """Whether the paths with masks `kept` are disjoint and pairwise
    anticomplete."""
    return all(a[0] & b[3] == 0 for a, b in combinations(kept, 2))


def has_creature(nbr: list[int], paths, k: int) -> bool:
    """Some connected body with k legs that are apart."""
    for body in range(1, 1 << len(nbr)):
        if connected(nbr, body):
            if any(map(apart, combinations(legs(paths, body), k))):
                return True
    return False


# graphs with a creature, as measured when the test was written: with t = 1
# a body and three legs need 7 vertices, so only the claw with legs of
# length 2 holds one
CREATURES = {(2, 1): 380, (3, 0): 925, (3, 1): 1}


@pytest.mark.parametrize("k, t", sorted(CREATURES))
def test_creature_detector_matches_brute_force_on_the_atlas(k, t):
    positives = 0
    for atlas, g in hosts():
        nbr = masks(atlas)
        paths = induced_paths(nbr, t)
        match = find_creature(g, k, t, Budget(RunConfig.search_budget))
        assert (match is not None) == has_creature(nbr, paths, k), atlas.name
        if match is not None:
            roles = dict(match.roles)
            body = sum(1 << v for v in roles["body"])
            chosen = [roles[f"path{i + 1}"] for i in range(k)]
            found = [(p, m) for p, m in paths if p in chosen]
            kept = legs(found, body)
            assert len(kept) == k and connected(nbr, body), atlas.name
            assert apart(kept), atlas.name
            assert match.image == tuple(sorted(set(roles["body"]).union(*chosen)))
            positives += 1
    assert positives == CREATURES[k, t]


def test_chordal_td_matches_networkx_on_the_atlas():
    chordal = 0
    for atlas, g in hosts():
        try:
            td = chordal_td(g)
        except NotChordal as exc:
            assert not nx.is_chordal(atlas), atlas.name
            assert len(set(exc.hole)) == len(exc.hole), atlas.name
            assert is_hole(atlas.subgraph(exc.hole)), atlas.name
            continue
        assert nx.is_chordal(atlas), atlas.name
        for bag in td.bags:
            assert all(atlas.has_edge(u, v) for u, v in combinations(bag, 2))
        assert all(any(u in b and v in b for b in td.bags) for u, v in atlas.edges)
        assert td.width == max(map(len, nx.find_cliques(atlas)), default=0) - 1
        chordal += 1
    assert chordal == 532  # as measured when the test was written
