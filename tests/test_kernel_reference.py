"""Differential tests: the frontier-only graph kernels and the integer weight
sums against test-local copies of the code they replaced.

The references are the earlier kernels: a `reach_mask` that re-walks every
reached vertex each round, component boundaries read as that `reach_mask`
plus a union of neighbour masks, a cut diameter that runs one full-graph
breadth-first search per cut vertex and reads a distance list (checked
through `SeparationSequence.goodness`), and `WeightFunction` sums that add
the weights as `Fraction`s one by one.  The heaviest
component is checked against the `Fraction` max it was chosen by before.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs
from twcert.centralbag import (
    DegenerateSeparation,
    Separation,
    SeparationSequence,
    canonical_separation,
    clique_separation,
    covering_sequence,
)
from twcert.config import Budget, RunConfig
from twcert.generators import path_graph
from twcert.graphs import Graph, bits, mask_of
from twcert.weights import WeightFunction


def ref_reach_mask(g: Graph, seed: int, allowed: int) -> int:
    cur = seed & allowed
    while True:
        nxt = cur
        for v in bits(cur):
            nxt |= g.neighbor_mask(v) & allowed
        if nxt == cur:
            return cur
        cur = nxt


def ref_component_masks(g: Graph, allowed: int) -> list[int]:
    comps = []
    rest = allowed
    while rest:
        comp = ref_reach_mask(g, rest & -rest, allowed)
        comps.append(comp)
        rest &= ~comp
    return comps


def ref_bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    frontier = seen = 1 << source
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in bits(frontier):
            nxt |= g.neighbor_mask(v)
        nxt &= ~seen
        for v in bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def ref_diameter_of(g: Graph, vs: tuple[int, ...]) -> int:
    best = 0
    for u in vs:
        dist = ref_bfs_distances(g, u)
        for v in vs:
            if dist[v] < 0:
                raise ValueError("set spans disconnected parts of the graph")
            best = max(best, dist[v])
    return best


def ref_values(w: WeightFunction) -> list[Fraction]:
    return [Fraction(x, w.denominator) for x in w.numerators]


def ref_of_mask(w: WeightFunction, mask: int) -> Fraction:
    total = Fraction(0)
    for v, x in enumerate(ref_values(w)):
        if mask >> v & 1:
            total += x
    return total


def ref_of(w: WeightFunction, vs: list[int]) -> Fraction:
    d = ref_values(w)
    return sum((d[v] for v in vs), Fraction(0))


def ref_total(w: WeightFunction) -> Fraction:
    return sum(ref_values(w), Fraction(0))


def outcome(fn, *args) -> tuple[str, str]:
    """(type name, str) of a call's result or of the exception it raised."""
    try:
        return ("value", str(fn(*args)))
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def graph_and_masks(draw, max_n=10):
    g = draw(graphs(min_n=1, max_n=max_n))
    full = g.full_mask()
    seed = draw(st.integers(0, full))
    allowed = draw(st.integers(0, full))
    return g, seed, allowed


@settings(max_examples=300, deadline=None)
@given(graph_and_masks())
def test_reach_and_components_match_reference(case):
    g, seed, allowed = case
    assert g.reach_mask(seed, allowed) == ref_reach_mask(g, seed, allowed)
    assert g.component_masks(allowed) == ref_component_masks(g, allowed)
    assert g.component_masks(g.full_mask()) == ref_component_masks(g, g.full_mask())


def ref_component_boundaries(g: Graph, allowed: int) -> list[tuple[int, int]]:
    out = []
    for comp in ref_component_masks(g, allowed):
        seen = 0
        for v in bits(comp):
            seen |= g.neighbor_mask(v)
        out.append((comp, seen & ~allowed))
    return out


@settings(max_examples=300, deadline=None)
@given(graph_and_masks(max_n=12))
def test_component_boundaries_match_reference(case):
    g, _, allowed = case
    for mask in (allowed, 0, g.full_mask()):
        assert g.component_boundaries(mask) == ref_component_boundaries(g, mask)


@st.composite
def graph_and_path(draw, max_n=9):
    return draw(connected_graphs(min_n=2, max_n=max_n)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(graph_and_path())
def test_goodness_diameter_matches_reference(case):
    g, k = case
    seq = covering_sequence(
        g, WeightFunction.uniform(g), path_graph(k), Budget(RunConfig.search_budget)
    )
    _, t = seq.goodness(g)
    assert t == max((ref_diameter_of(g, s.c) for s in seq.separations), default=0)


def test_goodness_of_cut_across_components_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    within = Separation(0, 0b0011, 0b1100, 0b0001)
    assert ref_diameter_of(g, within.c) == 1
    assert SeparationSequence((within,)).goodness(g) == (1, 1)
    across = Separation(0b0001, 0b0110, 0b1000, 0b0010)
    with pytest.raises(ValueError, match="disconnected parts"):
        ref_diameter_of(g, across.c)
    with pytest.raises(ValueError, match="^set spans disconnected parts of the graph$"):
        SeparationSequence((within, across)).goodness(g)


@st.composite
def weights_and_queries(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    values = [
        draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
        for _ in range(n)
    ]
    if values and draw(st.booleans()) and sum(values):
        total = sum(values)
        values = [x / total for x in values]
    w = WeightFunction.from_values(values)
    mask = draw(st.integers(0, (1 << n) - 1))
    vs = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return w, mask, vs


@settings(max_examples=400, deadline=None)
@given(weights_and_queries())
def test_weight_sums_match_reference(case):
    w, mask, vs = case
    assert outcome(w.of_mask, mask) == outcome(ref_of_mask, w, mask)
    assert outcome(w.of, vs) == outcome(ref_of, w, vs)
    assert str(w.total) == str(ref_total(w))
    assert w.total == ref_total(w)
    assert w.is_normal() == (ref_total(w) == 1)
    ref = ref_values(w)
    for v in set(vs):
        assert str(w[v]) == str(ref[v]) and w[v] == ref[v]


@st.composite
def graph_weights_and_center(draw, max_n=10):
    g = draw(graphs(min_n=1, max_n=max_n))
    # few distinct values, so that components often tie on weight
    values = [
        draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
        for _ in g.vertices
    ]
    w = WeightFunction.from_values(values)
    allowed = draw(st.integers(0, g.full_mask()))
    x = draw(st.integers(0, g.n - 1))
    return g, w, allowed, x


@settings(max_examples=200, deadline=None)
@given(graph_weights_and_center())
def test_heaviest_component_matches_fraction_max(case):
    g, w, allowed, x = case

    def ref_heaviest(comps):
        return max(comps, key=lambda m: ref_of_mask(w, m))

    comps = g.component_masks(allowed)
    for comp in comps:
        assert Fraction(w.numerator_of_mask(comp), w.denominator) == ref_of_mask(w, comp)
    if comps:
        assert max(comps, key=w.numerator_of_mask) == ref_heaviest(comps)
    rest = g.component_masks(g.full_mask() & ~(1 << x))
    if len(rest) >= 2:  # a single vertex is a clique; here it is a cutset
        assert clique_separation(g, w, [x]).b == tuple(bits(ref_heaviest(rest)))
    try:
        sep = canonical_separation(g, w, [x])
    except DegenerateSeparation:
        return
    closed = mask_of(g.neighborhood([x]))
    outside = g.component_masks(g.full_mask() & ~closed)
    assert sep.b == tuple(bits(ref_heaviest(outside)))
