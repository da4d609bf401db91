"""Pinned results of the family detectors: the exact first match and the
budget it used.  Members are tried in a fixed order under one shared budget,
so a change to that order, or to where ticks are taken, shows here.  Every
pin is also counted by a recursive search of the members, one after
another: one tick per host vertex for each search node the first time a
member expands it, and, in a family search, as many again for each member
offered.  A theta or pyramid member whose base vertices have no placement
is the last member offered with the same base: on the triangle-free walls
the pyramid search offers two members, one with a single-edge path and one
without.  In a theta or pyramid member, a path vertex q edges along
a path of length l, with q <= l - 2, is placed only within host distance
l - q of the image of the path's far end.  A theta or pyramid search on a
host with no induced claw ends at once, at 0 ticks.  The claw and induced
searches run one pattern, with no per-member ticks."""

from itertools import combinations

import pytest

from conftest import subdivided
from twcert.config import Budget
from twcert.detect import (
    PatternMatch,
    find_induced,
    find_line_of_subdivided_wall,
    find_subdivided_claw,
    find_t_pyramid,
    find_t_theta,
)
from twcert.generators import (
    Instance,
    complete_bipartite,
    cycle_graph,
    path_graph,
    pyramid,
    subdivided_claw,
    theta,
    wall,
)
from twcert.graphs import disjoint_union, line_graph

CASES = {
    "theta-t2-wall33": (
        lambda b: find_t_theta(wall(3, 3), 2, b),
        PatternMatch(
            image=(0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11),
            roles=(
                ("ends", (1, 4)),
                ("path1", (1, 5, 4)),
                ("path2", (1, 0, 3, 4)),
                ("path3", (1, 2, 7, 8, 11, 10, 9, 4)),
            ),
        ),
        2532,
    ),
    "theta-t3-wall34": (
        lambda b: find_t_theta(wall(3, 4), 3, b),
        PatternMatch(
            image=(0, 1, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15),
            roles=(
                ("ends", (2, 13)),
                ("path1", (2, 8, 7, 13)),
                ("path2", (2, 1, 0, 4, 5, 12, 13)),
                ("path3", (2, 3, 10, 11, 15, 14, 13)),
            ),
        ),
        11056,
    ),
    "theta-t2-k23": (
        lambda b: find_t_theta(complete_bipartite(2, 3), 2, b),
        PatternMatch(
            image=(0, 1, 2, 3, 4),
            roles=(
                ("ends", (0, 1)),
                ("path1", (0, 2, 1)),
                ("path2", (0, 3, 1)),
                ("path3", (0, 4, 1)),
            ),
        ),
        30,
    ),
    "theta-t2-c8-absent": (lambda b: find_t_theta(cycle_graph(8), 2, b), None, 0),
    "pyramid-t1-found": (
        lambda b: find_t_pyramid(
            disjoint_union(path_graph(2), pyramid(1, 2, 3).graph), 1, b
        ),
        PatternMatch(
            image=(2, 3, 4, 5, 6, 7, 8),
            roles=(
                ("apex", (2,)),
                ("triangle", (3, 4, 5)),
                ("path1", (2, 3)),
                ("path2", (2, 6, 4)),
                ("path3", (2, 7, 8, 5)),
            ),
        ),
        216,
    ),
    "pyramid-t1-wall33-absent": (lambda b: find_t_pyramid(wall(3, 3), 1, b), None, 876),
    "claw-123-wall44": (
        lambda b: find_subdivided_claw(wall(4, 4), 1, 2, 3, b),
        PatternMatch(
            image=(0, 1, 2, 3, 5, 6, 13),
            roles=(
                ("root", (1,)),
                ("leg1", (0,)),
                ("leg2", (2, 3)),
                ("leg3", (6, 5, 13)),
            ),
        ),
        168,
    ),
    "claw-111-c6-absent": (
        lambda b: find_subdivided_claw(cycle_graph(6), 1, 1, 1, b), None, 6
    ),
    "wall-line-k2-c8": (
        lambda b: find_line_of_subdivided_wall(cycle_graph(8), 2, b),
        PatternMatch(
            image=(0, 1, 2, 3, 4, 5, 6, 7),
            roles=(("mapping", (0, 1, 7, 2, 6, 3, 4, 5)),),
        ),
        1152,
    ),
    "wall-line-k2-wall33": (
        lambda b: find_line_of_subdivided_wall(wall(3, 3), 2, b),
        PatternMatch(
            image=(0, 1, 3, 4, 5),
            roles=(("mapping", (0, 1, 3, 5, 4)),),
        ),
        1152,
    ),
    "wall-line-k2-spider-absent": (
        lambda b: find_line_of_subdivided_wall(subdivided_claw(2, 2, 2).graph, 2, b),
        None,
        189,
    ),
    "induced-p5-wall44": (
        lambda b: find_induced(wall(4, 4), path_graph(5), b),
        PatternMatch(
            image=(0, 1, 2, 3, 10),
            roles=(("mapping", (0, 1, 2, 3, 10)),),
        ),
        120,
    ),
    "induced-c4-wall33-absent": (
        lambda b: find_induced(wall(3, 3), cycle_graph(4), b), None, 1092
    ),
    "pyramid-t1-wall44-absent": (
        lambda b: find_t_pyramid(wall(4, 4), 1, b), None, 17928
    ),
    "theta-t3-wall44": (
        lambda b: find_t_theta(wall(4, 4), 3, b),
        PatternMatch(
            image=(1, 2, 3, 5, 6, 7, 9, 10, 13, 14, 15, 17, 18, 21, 22, 23),
            roles=(
                ("ends", (6, 14)),
                ("path1", (6, 5, 13, 14)),
                ("path2", (6, 7, 15, 14)),
                ("path3", (6, 1, 2, 3, 10, 9, 17, 18, 23, 22, 21, 14)),
            ),
        ),
        79896,
    ),
    "theta-t2-wall45": (
        lambda b: find_t_theta(wall(4, 5), 2, b),
        PatternMatch(
            image=(0, 1, 2, 5, 6, 7, 9, 10, 16, 17, 18, 19, 20),
            roles=(
                ("ends", (1, 6)),
                ("path1", (1, 7, 6)),
                ("path2", (1, 0, 5, 6)),
                ("path3", (1, 2, 9, 10, 20, 19, 18, 17, 16, 6)),
            ),
        ),
        105930,
    ),
}


# the family member each match was found in, read back from its roles:
# path lengths (l1, l2, l3), leg lengths (t1, t2, t3) or the vertex count
MEMBER = {
    "theta-t2-wall33": (2, 3, 7),
    "theta-t3-wall34": (3, 6, 6),
    "theta-t2-k23": (2, 2, 2),
    "pyramid-t1-found": (1, 2, 3),
    "claw-123-wall44": (1, 2, 3),
    "wall-line-k2-c8": (8,),
    "wall-line-k2-wall33": (5,),
    "induced-p5-wall44": (5,),
    "theta-t3-wall44": (3, 3, 11),
    "theta-t2-wall45": (2, 3, 9),
}


def member_of(match):
    roles = dict(match.roles)
    if "path1" in roles:
        return tuple(len(roles[f"path{i}"]) - 1 for i in (1, 2, 3))
    if "leg1" in roles:
        return tuple(len(roles[f"leg{i}"]) for i in (1, 2, 3))
    return (len(roles["mapping"]),)


@pytest.mark.parametrize("name", sorted(CASES))
def test_family_detector_pinned(name):
    search, expected, used = CASES[name]
    budget = Budget(10**7)
    match = search(budget)
    assert match == expected
    assert budget.used == used
    if expected is not None:
        assert member_of(match) == MEMBER[name]


# the theta cases as (host, t)
THETAS = {
    "theta-t2-wall33": (wall(3, 3), 2),
    "theta-t3-wall34": (wall(3, 4), 3),
    "theta-t2-k23": (complete_bipartite(2, 3), 2),
    "theta-t2-c8-absent": (cycle_graph(8), 2),
    "theta-t3-wall44": (wall(4, 4), 3),
    "theta-t2-wall45": (wall(4, 5), 2),
}


def length_triples(t, max_sum):
    """Non-decreasing length triples, each at least t, by increasing sum up
    to max_sum, then in lexicographic order."""
    for total in range(3 * t, max_sum + 1):
        for l1 in range(t, total // 3 + 1):
            for l2 in range(l1, (total - l1) // 2 + 1):
                yield l1, l2, total - l1 - l2


def distances(g):
    """All host distances, None between components, by one breadth-first
    search per vertex."""
    out = []
    for s in g.vertices:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append([dist.get(v) for v in g.vertices])
    return out


def path_reaches(g, wit):
    """Pattern vertex -> (far end, bound) for each path vertex q edges along
    a role path of length l with q <= l - 2."""
    out = {}
    for key, chain in wit.roles:
        if key.startswith("path"):
            ell = len(chain) - 1
            for q in range(1, ell - 1):
                out[chain[q]] = (chain[-1], ell - q)
    return out


def has_claw(g):
    """Whether some host vertex has three pairwise non-adjacent neighbours."""
    return any(
        not any(g.has_edge(a, b) for a, b in combinations(trio, 2))
        for v in g.vertices
        for trio in combinations(g.neighbors(v), 3)
    )


def recursive_family(g, instances, above=None, offered=True, reach=False, base=0):
    """The members, the instances in order, searched one after another,
    recursively: each pattern vertex tries every host vertex in id order,
    vertex i only above the image of vertex ``above[i]`` when it is given
    and, when `reach`, only within the bound of its path reach (see
    `path_reaches`) of its far end's image.  Each member costs g.n ticks
    when `offered`, and a search node costs g.n the first time some member
    tries a next vertex below it, a node being its assignment and the
    degrees, earlier neighbours and reaches of the pattern vertices down to
    the one tried.  A member whose first `base` vertices have no placement
    is the last one offered with those vertices' degrees and earlier
    neighbours.  Returns the first match and the ticks taken up to it, or
    None and every member's ticks."""
    ticks = 0
    seen = set()
    dead = set()  # the first `base` entries of members whose base has no placement
    degree = [g.degree(v) for v in g.vertices]
    adjacent = [[g.has_edge(u, v) for v in g.vertices] for u in g.vertices]
    dist = distances(g)
    for wit in instances:
        p = wit.graph
        reaches = path_reaches(g, wit) if reach else {}
        entries = tuple(
            (p.degree(i), p.neighbor_mask(i) % (1 << i), reaches.get(i))
            for i in p.vertices
        )
        if entries[:base] in dead:
            continue
        ticks += g.n if offered else 0
        edges = [[p.has_edge(i, j) for j in range(i)] for i in p.vertices]
        assigned = []
        placed = 0  # the most leading vertices placed at once

        def place(i):
            nonlocal ticks, placed
            placed = max(placed, i)
            if i == p.n:
                return True
            node = (entries[: i + 1], tuple(assigned))
            if node not in seen:
                seen.add(node)
                ticks += g.n
            for cand in g.vertices:
                if cand in assigned or degree[cand] < entries[i][0]:
                    continue
                if above and i in above and cand < assigned[above[i]]:
                    continue
                if i in reaches:
                    end, bound = reaches[i]
                    if dist[assigned[end]][cand] is None or dist[assigned[end]][cand] > bound:
                        continue
                if any(
                    edge != adjacent[a][cand] for edge, a in zip(edges[i], assigned)
                ):
                    continue
                assigned.append(cand)
                if place(i + 1):
                    return True
                assigned.pop()
            return False

        if place(0):
            roles = tuple(
                (key, tuple(assigned[v] for v in seq)) for key, seq in wit.roles
            )
            return PatternMatch(image=tuple(sorted(assigned)), roles=roles), ticks
        if placed < base:
            dead.add(entries[:base])
    return None, ticks


def recursive_theta(g, t):
    """The theta family, its end (vertex 1) placed above its hub, each path
    vertex within its reach of the end; none on a claw-free host, since
    every theta holds a claw at its hub."""
    if not has_claw(g):
        return None, 0
    members = (theta(*ls) for ls in length_triples(t, g.n + 1))
    return recursive_family(g, members, above={1: 0}, reach=True, base=2)


@pytest.mark.parametrize("name", sorted(THETAS))
def test_theta_pins_equal_a_recursive_count(name):
    _, expected, used = CASES[name]
    assert recursive_theta(*THETAS[name]) == (expected, used)


# the wall-line k = 2 cases as hosts
WALL_LINES = {
    "wall-line-k2-c8": cycle_graph(8),
    "wall-line-k2-wall33": wall(3, 3),
    "wall-line-k2-spider-absent": subdivided_claw(2, 2, 2).graph,
}


def cycle_per_length(g):
    """The wall-line k = 2 family as one cycle per length j = 4..n: the
    line graph of the 2x2 wall (a 4-cycle) with its last edge subdivided
    into j - 3 edges, its one role the whole vertex order."""
    base = wall(2, 2)
    members = []
    for j in range(base.m, g.n + 1):
        pattern = line_graph(subdivided(base, {base.edges[-1]: j - 3}))
        members.append(Instance(pattern, (("mapping", tuple(pattern.vertices)),)))
    return recursive_family(g, members)


@pytest.mark.parametrize("name", sorted(WALL_LINES))
def test_wall_line_pins_equal_a_cycle_per_length_count(name):
    _, expected, used = CASES[name]
    assert cycle_per_length(WALL_LINES[name]) == (expected, used)


# the pyramid cases as (host, t)
PYRAMIDS = {
    "pyramid-t1-found": (disjoint_union(path_graph(2), pyramid(1, 2, 3).graph), 1),
    "pyramid-t1-wall33-absent": (wall(3, 3), 1),
    "pyramid-t1-wall44-absent": (wall(4, 4), 1),
}


def recursive_pyramid(g, t):
    """The pyramid family: length triples whose last two are at least 2,
    each path vertex within its reach of its triangle corner; none on a
    claw-free host, since every pyramid holds a claw at its apex."""
    if not has_claw(g):
        return None, 0
    triples = length_triples(t, g.n - 1)
    members = (pyramid(*ls) for ls in triples if ls[1] >= 2)
    return recursive_family(g, members, reach=True, base=4)


@pytest.mark.parametrize("name", sorted(PYRAMIDS))
def test_pyramid_pins_equal_a_recursive_count(name):
    _, expected, used = CASES[name]
    assert recursive_pyramid(*PYRAMIDS[name]) == (expected, used)


def whole(pattern):
    """The instance of an explicit pattern: its one role the whole vertex
    order."""
    return Instance(pattern, (("mapping", tuple(pattern.vertices)),))


# the one-pattern cases as (host, instance)
ENGINES = {
    "claw-123-wall44": (wall(4, 4), subdivided_claw(1, 2, 3)),
    "claw-111-c6-absent": (cycle_graph(6), subdivided_claw(1, 1, 1)),
    "induced-p5-wall44": (wall(4, 4), whole(path_graph(5))),
    "induced-c4-wall33-absent": (wall(3, 3), whole(cycle_graph(4))),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engine_pins_equal_a_recursive_count(name):
    _, expected, used = CASES[name]
    g, instance = ENGINES[name]
    assert recursive_family(g, [instance], offered=False) == (expected, used)
