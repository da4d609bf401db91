"""The engine's order condition on any earlier vertex.  Given ``above``,
`iter_induced_maps` yields exactly the unconditioned maps that send each
pattern vertex i above the images of the vertices in the mask ``above[i]``,
in the same order.  The family searches pass one condition only, a theta's
end above its hub, which are never adjacent; here a condition may name an
earlier neighbour or non-neighbour, and one vertex may carry several."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
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
    got = list(iter_induced_maps(g, pattern, Budget(UNLIMITED), above))
    assert got == filtered(g, pattern, above)


def test_conditions_on_neighbours_and_several_on_one_level():
    """A 4-vertex path in the 3x3 wall: vertex 1 above its neighbour 0,
    vertex 2 above 0 and its neighbour 1, vertex 3 above its non-neighbour
    0 and its non-neighbour 1."""
    g, p4 = wall(3, 3), Graph(4, [(0, 1), (1, 2), (2, 3)])
    above = [0, 0b1, 0b11, 0b11]
    got = list(iter_induced_maps(g, p4, Budget(UNLIMITED), above))
    assert got == filtered(g, p4, above)
    assert 0 < len(got) < len(list(iter_induced_maps(g, p4, Budget(UNLIMITED))))
