"""The family trie's order condition on any earlier vertex.  A member whose
signature gives the condition ``above`` has as its first mapping the first
of the unconditioned maps that send each pattern vertex i above the images
of the vertices in the mask ``above[i]``.  The family searches pass one
condition only, a theta's end above its hub, which are never adjacent;
here a condition may name an earlier neighbour or non-neighbour, and one
vertex may carry several."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert import detect
from twcert.config import Budget
from twcert.detect import iter_induced_maps
from twcert.generators import wall
from twcert.graphs import Graph, bits

UNLIMITED = 10**9


def filtered(g: Graph, pattern: Graph, above: list[int]) -> list[tuple[int, ...]]:
    """The unconditioned maps that meet every condition."""
    return [
        m
        for m in iter_induced_maps(g, pattern, Budget(UNLIMITED))
        if all(m[i] > m[j] for i, mask in enumerate(above) for j in bits(mask))
    ]


def first_conditioned(g: Graph, pattern: Graph, above: list[int]):
    """The first mapping of the one-member family of the pattern, its
    signature carrying the condition, or None."""
    k, signature, build = detect._edge_member(pattern.n, pattern.edges)
    entries = [(degree, earlier, over) for (degree, earlier, _), over in zip(signature, above)]
    match = detect._first_copy(g, (m for m in [(k, entries, build)]), Budget(UNLIMITED))
    return match and dict(match.roles)["mapping"]


@st.composite
def host_pattern_above(draw):
    """A host and a pattern of at most 8 vertices, the pattern half the
    time an induced subgraph of the host relabelled (so that it has maps),
    and a random condition mask of 0..i-1 for each pattern vertex i."""
    g = draw(graphs(min_n=1, max_n=8))
    if draw(st.booleans()):
        order = draw(st.permutations(range(g.n)))[: draw(st.integers(1, g.n))]
        at = {v: i for i, v in enumerate(order)}
        edges = [(at[u], at[v]) for u, v in g.edges if u in at and v in at]
        pattern = Graph(len(order), edges)
    else:
        pattern = draw(graphs(min_n=1, max_n=8))
    above = [draw(st.integers(0, (1 << i) - 1)) for i in range(pattern.n)]
    return g, pattern, above


@settings(max_examples=400, deadline=None)
@given(host_pattern_above())
def test_conditioned_maps_are_the_unconditioned_maps_filtered(case):
    g, pattern, above = case
    want = filtered(g, pattern, above)
    assert first_conditioned(g, pattern, above) == (want[0] if want else None)


def test_conditions_on_neighbours_and_several_on_one_level():
    """The 4-vertex path 0-3-2-1 in the 3x3 wall: vertex 1 above its
    non-neighbour 0, vertex 2 above its non-neighbour 0 and its neighbour 1,
    vertex 3 above its neighbour 0 and its non-neighbour 1.  The first
    unconditioned map fails the conditions."""
    g, p4 = wall(3, 3), Graph(4, [(0, 3), (1, 2), (2, 3)])
    above = [0, 0b1, 0b11, 0b11]
    want = filtered(g, p4, above)
    assert first_conditioned(g, p4, above) == want[0]
    every = list(iter_induced_maps(g, p4, Budget(UNLIMITED)))
    assert 0 < len(want) < len(every) and want[0] != every[0]
