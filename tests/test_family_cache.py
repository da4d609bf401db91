"""The family detectors against a plain member-by-member search: the trie
of search trees in `detect._first_copy` changes neither the match nor the
outcome, and it charges n steps (n the host size) per member offered and n
per search-tree node it expands, a node shared by several members once.  The reference takes each member's match from `iter_induced_maps`,
the first map that meets the member's condition, and counts the nodes by a
depth-first search of its own.  It offers every member, where a theta or
pyramid search stops offering the members whose base levels an earlier
member found empty, so those searches take at most the reference's steps,
and the others exactly them.  Under any budget limit below the steps the
whole search takes, the search exhausts the budget, and from there on it
returns its result.  The trie stores at most one tree node per n steps
charged."""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from test_atlas import hosts
from twcert import detect
from twcert.config import Budget
from twcert.detect import (
    PatternMatch,
    find_line_of_subdivided_wall,
    find_t_pyramid,
    find_t_theta,
    iter_induced_maps,
)
from twcert.generators import wall
from twcert.graphs import BudgetExhausted, Graph, bits

UNLIMITED = 10**12

FAMILIES = {
    "theta-t2": lambda g, b: find_t_theta(g, 2, b),
    "theta-t3": lambda g, b: find_t_theta(g, 3, b),
    "pyramid-t1": lambda g, b: find_t_pyramid(g, 1, b),
    "pyramid-t2": lambda g, b: find_t_pyramid(g, 2, b),
    "wall-line-k2": lambda g, b: find_line_of_subdivided_wall(g, 2, b),
}
LINES = {"wall-line-k2"}  # the line families, which offer every member
WALLS = {"wall33": wall(3, 3), "wall34": wall(3, 4)}


def meets(mapping, entries):
    """Does the map send each pattern vertex above the images of the
    vertices its entry's condition names?"""
    return all(mapping[i] > mapping[j] for i, e in enumerate(entries) for j in bits(e[2]))


def distances(g):
    """dist[u][v], the host distance, or None between components: one
    breadth-first search per vertex."""
    dist = []
    for s in g.vertices:
        found = {s: 0}
        queue = [s]
        for u in queue:
            for w in g.neighbors(u):
                if w not in found:
                    found[w] = found[u] + 1
                    queue.append(w)
        dist.append([found.get(v) for v in g.vertices])
    return dist


def first_leaf(g, entries, seen):
    """Search the member with these signature entries (degree, earlier
    neighbours, condition and maybe a reach (v, r)) depth first, host
    vertices in id order, until its first mapping.  A vertex with a reach
    is placed only within host distance r of v's image.  Adds to `seen`
    each node whose next vertex it tries, as the entries down to that
    vertex and the assignment, and returns the first mapping, or None, and
    how many nodes it added."""
    nbr = [g.neighbor_mask(v) for v in g.vertices]
    dist = distances(g)
    assigned: list[int] = []
    added = 0

    def place(i):
        nonlocal added
        if i == len(entries):
            return True
        node = (entries[: i + 1], tuple(assigned))
        if node not in seen:
            seen.add(node)
            added += 1
        degree, earlier, above, *reach = entries[i]
        for c in g.vertices:
            if c in assigned or g.degree(c) < degree:
                continue
            if any(dist[assigned[v]][c] is None or dist[assigned[v]][c] > r for v, r in reach):
                continue
            if any(nbr[a] >> c & 1 != earlier >> j & 1 for j, a in enumerate(assigned)):
                continue
            if any(c < assigned[j] for j in bits(above)):
                continue
            assigned.append(c)
            if place(i + 1):
                return True
            assigned.pop()
        return False

    return (tuple(assigned) if place(0) else None), added


@contextmanager
def reference_detectors():
    """Run the detectors with every member searched on its own: n steps
    when it is offered, n per node its depth-first search adds, and its
    match the first map of `iter_induced_maps` that meets its condition."""

    def first_copy(g, family, budget):
        seen: set = set()
        for k, signature, build in family:
            budget.tick(g.n)
            if k > g.n:
                continue
            entries = tuple(signature)
            leaf, added = first_leaf(g, entries, seen)
            budget.tick(g.n * added)
            if leaf is None:
                continue
            instance = build()
            maps = iter_induced_maps(g, instance.graph, Budget(UNLIMITED))
            mapping = next(m for m in maps if meets(m, entries))
            assert mapping == leaf
            return PatternMatch(
                image=tuple(sorted(mapping)),
                roles=tuple(
                    (key, tuple(mapping[v] for v in seq)) for key, seq in instance.roles
                ),
            )
        return None

    with mock.patch.object(detect, "_first_copy", first_copy):
        yield


def outcome(search, g, limit):
    budget = Budget(limit)
    try:
        result = search(g, budget)
    except BudgetExhausted:
        result = BudgetExhausted
    return result, budget.used


def reference_outcome(search, g):
    with reference_detectors():
        return outcome(search, g, UNLIMITED)


def assert_matches_reference(search, g, limits, exact):
    """The reference's match under an unlimited budget, in at most its
    steps, or exactly them when `exact`; under each limit, exhaustion below
    the steps taken and the same match in the same steps from there on."""
    result, total = reference_outcome(search, g)
    got, used = outcome(search, g, UNLIMITED)
    assert got == result
    assert used == total if exact else used <= total
    for limit in limits(total):
        if limit < used:
            assert outcome(search, g, limit)[0] is BudgetExhausted
        else:
            assert outcome(search, g, limit) == (result, used)


def first_copy_of(patterns):
    """A search over the family of the given patterns, in that order."""

    def search(g, b):
        members = (detect._edge_member(p.n, p.edges) for p in patterns)
        return detect._first_copy(g, members, b)

    return search


@pytest.mark.parametrize("host", sorted(WALLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_walls_match_reference(family, host):
    limits = lambda total: [0, total // 3, total // 2, total - 1, total]
    assert_matches_reference(FAMILIES[family], WALLS[host], limits, family in LINES)


def drawn_limit(data):
    return lambda total: [data.draw(st.integers(0, total), label="limit")]


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(min_n=1, max_n=9), family=st.sampled_from(sorted(FAMILIES)), data=st.data()
)
def test_random_hosts_match_reference(g, family, data):
    assert_matches_reference(FAMILIES[family], g, drawn_limit(data), family in LINES)


@settings(max_examples=150, deadline=None)
@given(
    g=graphs(min_n=1, max_n=8),
    patterns=st.lists(graphs(min_n=1, max_n=5), min_size=2, max_size=8),
    data=st.data(),
)
def test_random_families_match_reference(g, patterns, data):
    """Small random members share prefixes that differ only in degree, or
    only in earlier neighbours, far more often than the named families."""
    assert_matches_reference(first_copy_of(patterns), g, drawn_limit(data), True)


@st.composite
def subcubic_graphs(draw, min_n=10, max_n=16):
    """Random graphs of maximum degree 3, where many theta members share long
    prefixes and fail deep: three stubs per vertex, paired in a random order,
    dropping loops, repeated pairs and a random tail of the pairs."""
    n = draw(st.integers(min_n, max_n))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    pairs = list(zip(stubs[::2], stubs[1::2]))
    kept = pairs[: draw(st.integers(n, len(pairs)))]
    return Graph(n, {(min(e), max(e)) for e in kept if e[0] != e[1]})


@settings(max_examples=25, deadline=None)
@given(
    g=subcubic_graphs(),
    family=st.sampled_from(["theta-t2", "theta-t3", "pyramid-t1"]),
    data=st.data(),
)
def test_subcubic_hosts_match_reference(g, family, data):
    assert_matches_reference(FAMILIES[family], g, drawn_limit(data), False)


def stored_nodes(search, g):
    """The tree nodes a search stores in its trie (the root's one included),
    and the steps it charges."""
    made = []

    class Recorded(detect._Level):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    budget = Budget(UNLIMITED)
    with mock.patch.object(detect, "_Level", Recorded):
        search(g, budget)
    return sum(len(level.vertex) for level in made), budget.used


@pytest.mark.parametrize("host", sorted(WALLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_walls_store_one_node_per_n_steps(family, host):
    g = WALLS[host]
    stored, used = stored_nodes(FAMILIES[family], g)
    assert 1 <= stored <= used // g.n + 1


@settings(max_examples=40, deadline=None)
@given(g=subcubic_graphs(), family=st.sampled_from(sorted(FAMILIES)))
def test_random_hosts_store_one_node_per_n_steps(g, family):
    stored, used = stored_nodes(FAMILIES[family], g)
    assert stored <= used // g.n + 1


@pytest.mark.parametrize("family", ["theta-t2", "pyramid-t1"])
def test_atlas_hosts_match_reference(family):
    """Every graph on at most 7 vertices (`test_atlas.hosts`)."""
    limits = lambda total: [total // 2]
    for _, g in hosts():
        assert_matches_reference(FAMILIES[family], g, limits, False)
