"""Work counts of the family detectors: how many members a family offers,
how many witness graphs it builds and how many members run through the
plain engine.  A member that has no copy is searched on the trie of search
trees in `detect._first_copy`, from its edge list alone; only a member that
runs through `iter_induced_maps` (it embeds, or its charge would overrun the
budget) has its graph built.  The members' edge lists, `line_graph` and
`subdivide` are checked against the plain constructions they replaced."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert import detect
from twcert.config import Budget
from twcert.detect import find_line_of_subdivided_wall, find_t_pyramid, find_t_theta
from twcert.generators import subdivided_claw, wall
from twcert.graphs import Graph, line_graph, subdivide

# the line graph of the 2x2 wall with two edges subdivided, which holds a copy
LINE_HOST = line_graph(subdivide(wall(2, 2), {(0, 1): 3, (1, 3): 2}))

CASES = {
    # name: (search, members offered, graphs built = plain-engine runs)
    "pyramid-t1-wall44": (lambda b: find_t_pyramid(wall(4, 4), 1, b), 337, 0),
    "theta-t2-wall45": (lambda b: find_t_theta(wall(4, 5), 2, b), 33, 1),
    "theta-t3-wall44": (lambda b: find_t_theta(wall(4, 4), 3, b), 32, 1),
    "wall-line-k2-claw222": (
        lambda b: find_line_of_subdivided_wall(subdivided_claw(2, 2, 2).graph, 2, b),
        35,
        0,
    ),
    "wall-line-k2-line-host": (
        lambda b: find_line_of_subdivided_wall(LINE_HOST, 2, b),
        16,
        1,
    ),
}


def counted(name, fn, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(CASES))
def test_members_are_built_only_when_searched(name):
    """A graph is built only when the engine searches its member."""
    search, members, built = CASES[name]
    counts: Counter[str] = Counter()
    first_copy = detect._first_copy

    def members_of(family):
        for member in family:
            counts["members"] += 1
            yield member

    with mock.patch.multiple(
        detect,
        _first_copy=lambda g, family, roles, budget: first_copy(
            g, members_of(family), roles, budget
        ),
        Graph=counted("built", detect.Graph, counts),
        iter_induced_maps=counted("plain", detect.iter_induced_maps, counts),
    ):
        search(Budget(10**7))
    assert (counts["members"], counts["built"], counts["plain"]) == (
        members,
        built,
        built,
    )


def reference_line_graph(g: Graph) -> Graph:
    """The line graph by testing every pair of edges for a shared end."""
    edges = g.edges
    index = {e: i for i, e in enumerate(edges)}
    out = []
    for (u, v), i in index.items():
        for (x, y), j in index.items():
            if j <= i:
                continue
            if u in (x, y) or v in (x, y):
                out.append((i, j))
    return Graph(len(edges), out)


def reference_subdivide(g: Graph, lengths: dict[tuple[int, int], int]) -> Graph:
    """The subdivision built one edge at a time, new vertices numbered from
    g.n in sorted edge order."""
    nxt = g.n
    edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        ell = lengths.get((u, v), 1)
        chain = [u] + list(range(nxt, nxt + ell - 1)) + [v]
        nxt += ell - 1
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


def wall_line_members(k: int, n: int) -> list[detect.Member]:
    """The members the wall-line family offers on a host of n vertices."""
    members: list[detect.Member] = []

    def collect(g, family, roles, budget):
        members.extend(family)

    with mock.patch.object(detect, "_first_copy", collect):
        find_line_of_subdivided_wall(Graph(n, []), k)
    return members


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=9), data=st.data())
def test_line_graph_and_subdivide_match_reference(g, data):
    """Both number the new vertices as the plain constructions do."""
    keys = st.sampled_from(g.edges) if g.edges else st.nothing()
    lengths = data.draw(st.dictionaries(keys, st.integers(1, 4)), label="lengths")
    sub = subdivide(g, lengths)
    assert sub == reference_subdivide(g, lengths)
    assert line_graph(g) == reference_line_graph(g)
    assert line_graph(sub) == reference_line_graph(sub)


@pytest.mark.parametrize("k", [2, 3])
def test_line_edges_match_the_line_graph(k):
    """Each wall-line member's edge list is that of the line graph of its
    subdivision of the k x k wall, in the same vertex numbering, and its
    roles read the whole vertex order."""
    base = wall(k, k)
    for extra in range(4):
        members = wall_line_members(k, base.m + extra)
        # the new vertices per base edge, in the family's order
        spreads = [s for x in range(extra + 1) for s in detect._compositions(x, base.m)]
        assert len(members) == len(spreads)
        for (n, edges, paths), spread in zip(members, spreads):
            lengths = {e: x + 1 for e, x in zip(base.edges, spread)}
            sub = subdivide(base, lengths)
            assert sub == reference_subdivide(base, lengths)
            assert len(edges) == len(set(edges))
            assert n == sub.m
            assert tuple(sorted(edges)) == line_graph(sub).edges
            assert line_graph(sub) == reference_line_graph(sub)
            assert detect._whole(paths) == (("mapping", range(n)),)
