"""Pinned results of the family detectors: the exact first match and the
budget it used.  Members are tried in a fixed order under one shared budget,
so a change to that order, or to where ticks are taken, shows here.  The
theta pins are also counted by a recursive search that places a theta's end
above its hub, one tick per host vertex tried, and the wall-line k = 2 pins
by searching one cycle per length with the plain engine."""

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
    iter_induced_maps,
)
from twcert.generators import (
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
        9731,
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
        85751,
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
        15,
    ),
    "theta-t2-c8-absent": (lambda b: find_t_theta(cycle_graph(8), 2, b), None, 56),
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
        222,
    ),
    "pyramid-t1-wall33-absent": (lambda b: find_t_pyramid(wall(3, 3), 1, b), None, 13824),
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
        37,
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
        2121,
    ),
    "wall-line-k2-wall33": (
        lambda b: find_line_of_subdivided_wall(wall(3, 3), 2, b),
        PatternMatch(
            image=(0, 1, 3, 4, 5),
            roles=(("mapping", (0, 1, 3, 5, 4)),),
        ),
        1124,
    ),
    "wall-line-k2-spider-absent": (
        lambda b: find_line_of_subdivided_wall(subdivided_claw(2, 2, 2).graph, 2, b),
        None,
        480,
    ),
    "induced-p5-wall44": (
        lambda b: find_induced(wall(4, 4), path_graph(5), b),
        PatternMatch(
            image=(0, 1, 2, 3, 10),
            roles=(("mapping", (0, 1, 2, 3, 10)),),
        ),
        21,
    ),
    "induced-c4-wall33-absent": (
        lambda b: find_induced(wall(3, 3), cycle_graph(4), b), None, 1092
    ),
    "pyramid-t1-wall44-absent": (
        lambda b: find_t_pyramid(wall(4, 4), 1, b), None, 3865128
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
        760954,
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
        802733,
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


def recursive_theta(g, t):
    """The theta family searched member by member, recursively: each pattern
    vertex tries every host vertex in id order and ticks once for each, the
    end (vertex 1) only above the hub's image.  Returns the first match and
    the ticks taken up to it, or None and every member's ticks."""
    ticks = 0
    for ls in length_triples(t, g.n + 1):
        wit = theta(*ls)
        p = wit.graph
        assigned = []

        def place(i):
            nonlocal ticks
            if i == p.n:
                return True
            for cand in g.vertices:
                ticks += 1
                if cand in assigned or g.degree(cand) < p.degree(i):
                    continue
                if i == 1 and cand < assigned[0]:
                    continue  # the hub-below-end filter
                if any(
                    p.has_edge(i, j) != g.has_edge(assigned[j], cand) for j in range(i)
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
    return None, ticks


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
    into j - 3 edges.  Each member tried costs one tick plus the plain
    engine's steps on it.  Returns the first match and the ticks taken up
    to it, or None and every member's ticks."""
    base = wall(2, 2)
    ticks = 0
    for j in range(base.m, g.n + 1):
        ticks += 1
        pattern = line_graph(subdivided(base, {base.edges[-1]: j - 3}))
        budget = Budget(10**7)
        for mapping in iter_induced_maps(g, pattern, budget):
            match = PatternMatch(
                image=tuple(sorted(mapping)), roles=(("mapping", mapping),)
            )
            return match, ticks + budget.used
        ticks += budget.used
    return None, ticks


@pytest.mark.parametrize("name", sorted(WALL_LINES))
def test_wall_line_pins_equal_a_cycle_per_length_count(name):
    _, expected, used = CASES[name]
    assert cycle_per_length(WALL_LINES[name]) == (expected, used)
