"""Work counts of the family detectors: how many members a family offers,
how many instances it builds, how many members run through the plain
engine, and how many signature entries the members are read for.  Every
member is searched on the trie of search trees in `detect._first_copy`,
from its signature alone, and none runs through
`iter_induced_maps`; only the member that embeds has its instance built,
for its roles.  Theta and pyramid signatures, read from the path lengths,
are checked against the edge lists they stand for; the wall-line members'
edge lists, `line_graph` and `subdivision` against the plain constructions
they replaced."""

from collections import Counter
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, subdivided
from test_detect import recursive_compositions
from twcert import detect
from twcert.config import Budget, RunConfig
from twcert.detect import find_line_of_subdivided_wall, find_t_pyramid, find_t_theta
from twcert.generators import Instance, pyramid, subdivided_claw, theta, wall
from twcert.graphs import Graph, line_graph


def _budget() -> Budget:
    return Budget(RunConfig.search_budget)


# the line graph of the 2x2 wall with two edges subdivided, which holds a copy
LINE_HOST = line_graph(subdivided(wall(2, 2), {(0, 1): 3, (1, 3): 2}))

CASES = {
    # name: (search, members offered, instances built)
    "pyramid-t1-wall44": (lambda b: find_t_pyramid(wall(4, 4), 1, b), 2, 0),
    "theta-t2-wall44": (lambda b: find_t_theta(wall(4, 4), 2, b), 33, 1),
    "theta-t2-wall45": (lambda b: find_t_theta(wall(4, 5), 2, b), 33, 1),
    "theta-t3-wall44": (lambda b: find_t_theta(wall(4, 4), 3, b), 32, 1),
    "wall-line-k2-claw222": (
        lambda b: find_line_of_subdivided_wall(subdivided_claw(2, 2, 2).graph, 2, b),
        4,
        0,
    ),
    "wall-line-k2-line-host": (
        lambda b: find_line_of_subdivided_wall(LINE_HOST, 2, b),
        4,
        1,
    ),
}


def counted(name, fn, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def searched(name: str) -> Counter[str]:
    """Run the named search and count the members it is offered (the
    signatures made), the signature entries read from them and the entries
    they hold, the instances built (theta, pyramid and line instances), and
    the plain-engine runs."""
    search = CASES[name][0]
    counts: Counter[str] = Counter()

    def entries(signature):
        for entry in signature:
            counts["entries"] += 1
            yield entry

    def reading(signature):
        def read(*args):
            counts["members"] += 1
            counts["whole"] += len(list(signature(*args)))
            return entries(signature(*args))

        return read

    with mock.patch.multiple(
        detect,
        _signature=reading(detect._signature),
        _line_signature=reading(detect._line_signature),
        _line_instance=counted("built", detect._line_instance, counts),
        iter_induced_maps=counted("plain", detect.iter_induced_maps, counts),
        theta=counted("built", detect.theta, counts),
        pyramid=counted("built", detect.pyramid, counts),
    ):
        search(Budget(10**7))
    return counts


@pytest.mark.parametrize("name", sorted(CASES))
def test_members_are_built_only_when_searched(name):
    """An instance, a theta or pyramid graph or a line graph, is built only
    for the member that embeds, and the plain engine never runs.  On the
    triangle-free 4x4 wall the first pyramid member with a single-edge path
    and the first without die at their third triangle corner, a base level
    that every member like them shares, so the pyramid search offers those
    two."""
    _, members, built = CASES[name]
    counts = searched(name)
    assert (counts["members"], counts["built"], counts["plain"]) == (
        members,
        built,
        0,
    )


def test_dead_members_read_only_the_entries_to_their_dead_level():
    """Theta t = 2 on the 4x4 wall: a member whose walk down the trie ends
    on a level where an earlier member's search died reads the entries down
    to that level and no more.  The wall has girth 6, so every member with
    two paths of length 2 after the first reads 4 entries, the hub, the end
    and a vertex of each short path; the 33 members read 269 of the 334
    entries their signatures hold."""
    counts = searched("theta-t2-wall44")
    assert (counts["members"], counts["entries"], counts["whole"]) == (33, 269, 334)


TRIANGLE = [(0, 1), (0, 2), (1, 2)]
# a triangle with a claw hanging off it, at vertex 3
CLAWED = [*TRIANGLE, (0, 3), (3, 4), (3, 5)]


def family_members(search, n: int, edges=TRIANGLE) -> list[detect.Member]:
    """The members a family search offers on an n-vertex host with these
    edges: one triangle, which wall-line k >= 3 needs before it offers any
    member, and, for a theta or pyramid family, a claw."""
    members: list[detect.Member] = []

    def collect(g, family, budget):
        members.extend(family)

    with mock.patch.object(detect, "_first_copy", collect):
        search(Graph(n, edges))
    return members


def length_triples(t: int, floor2: int, max_sum: int):
    """Non-decreasing length triples by increasing sum up to max_sum, then
    in lexicographic order: the first at least t, the others at least
    floor2."""
    for total in range(max_sum + 1):
        for l1 in range(t, total // 3 + 1):
            for l2 in range(max(l1, floor2), (total - l1) // 2 + 1):
                yield l1, l2, total - l1 - l2


@pytest.mark.parametrize(
    "search, n, shape, triples",
    [
        # thetas with t = 2 and pyramids with t = 1, path lengths summing to
        # 40 at most: the families offered on hosts of 39 and 41 vertices
        (lambda g: find_t_theta(g, 2, _budget()), 39, theta, length_triples(2, 2, 40)),
        (lambda g: find_t_pyramid(g, 1, _budget()), 41, pyramid, length_triples(1, 2, 40)),
        (lambda g: find_t_theta(g, 3, _budget()), 39, theta, length_triples(3, 3, 40)),
        # t = 2 gives every pyramid path the same floor
        (lambda g: find_t_pyramid(g, 2, _budget()), 41, pyramid, length_triples(2, 2, 40)),
    ],
    ids=["theta-t2", "pyramid-t1", "theta-t3", "pyramid-t2"],
)
def test_signatures_read_from_lengths_match_the_edge_lists(search, n, shape, triples):
    """Each theta or pyramid member's signature, yielded from its path
    lengths, is the one read from its edge list, and building the member
    gives exactly the generator's instance.  The one condition is a theta's:
    its end, vertex 1, lies above its hub."""
    triples = list(triples)
    members = family_members(search, n, CLAWED)
    assert len(members) == len(triples)
    for (k, signature, build), ls in zip(members, triples):
        wit = shape(*ls)
        assert k == wit.graph.n
        entries = list(signature)
        assert [entry[:2] for entry in entries] == [
            entry[:2] for entry in detect._edge_member(k, wit.graph.edges)[1]
        ]
        conditions = {i: entry[2] for i, entry in enumerate(entries) if entry[2]}
        assert conditions == ({1: 1} if shape is theta else {})
        assert build() == wit


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


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=9), data=st.data())
def test_line_graph_and_subdivide_match_reference(g, data):
    """Both number the new vertices as the plain constructions do."""
    keys = st.sampled_from(g.edges) if g.edges else st.nothing()
    lengths = data.draw(st.dictionaries(keys, st.integers(1, 4)), label="lengths")
    sub = subdivided(g, lengths)
    assert sub == reference_subdivide(g, lengths)
    assert line_graph(g) == reference_line_graph(g)
    assert line_graph(sub) == reference_line_graph(sub)


@pytest.mark.parametrize("k", [2, 3])
def test_line_edges_match_the_line_graph(k):
    """Each wall-line member's signature and instance are those of the line
    graph of its subdivision of the k x k wall, in the same vertex
    numbering, and its one role is the whole vertex order.  k = 3 offers
    every subdivision, k = 2 one per length."""
    base = wall(k, k)
    for extra in range(4):
        members = family_members(
            lambda g: find_line_of_subdivided_wall(g, k, _budget()), base.m + extra
        )
        # the new vertices per base edge, in the family's order; at k = 2
        # every spread of one total gives the same cycle, and only the first
        # (all on the last edge) is offered
        spreads = [
            s
            for x in range(extra + 1)
            for s in islice(recursive_compositions(x, base.m), 1 if k == 2 else None)
        ]
        assert len(members) == len(spreads)
        for (n, signature, build), spread in zip(members, spreads):
            lengths = {e: x + 1 for e, x in zip(base.edges, spread)}
            sub = subdivided(base, lengths)
            assert sub == reference_subdivide(base, lengths)
            line = line_graph(sub)
            assert n == sub.m
            assert list(signature) == list(detect._edge_member(n, line.edges)[1])
            assert build() == Instance(line, (("mapping", tuple(range(n))),))
            assert line == reference_line_graph(sub)
