import ast
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from hypothesis import strategies as st

from twcert.centralbag import (
    CentralBagResult,
    Separation,
    SeparationSequence,
    central_bag,
    clique_cutsets,
    clique_separation,
    make_primordial,
)
from twcert.decompose import maximum_cardinality_search
from twcert.graphs import Graph, TreeDecomposition, bits, mask_of, subdivision
from twcert.separators import along, eliminate
from twcert.weights import WeightFunction


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), 2))
    if pool:
        edges = draw(
            st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))
        )
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), 2))
    spanning = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, spanning + extra)


# -- helpers only tests need, so the package does not ship them -------------


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Each of the n(n-1)/2 possible edges kept with probability p."""
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def subdivided(g: Graph, lengths: dict[tuple[int, int], int]) -> Graph:
    """g with each edge in `lengths` replaced by a path of that length, the
    others kept, by `subdivision`: new vertices from g.n on, edge by edge in
    sorted order."""
    n, edges, _ = subdivision(g.n, g.edges, [lengths.get(e, 1) for e in g.edges])
    return Graph(n, edges)


def is_chordal(g: Graph) -> bool:
    """Chordal exactly when the MCS order is a perfect elimination ordering,
    i.e. eliminating along it adds no fill edge."""
    return not eliminate(g, along(maximum_cardinality_search(g)))[1]


def single_bag_td(g: Graph) -> TreeDecomposition:
    return TreeDecomposition(bags=(tuple(range(g.n)),), tree_edges=())


def anticomplete(g: Graph, x, y) -> bool:
    """No edge of g joins a vertex of x to a vertex of y."""
    my = mask_of(y)
    return all(not g.neighbor_mask(v) & my for v in x)


def bc_union(s: Separation) -> tuple[int, ...]:
    return tuple(sorted(s.b + s.c))


def sep(a, c, b, center) -> Separation:
    """The separation with these sides and center, given as vertex tuples."""
    return Separation(mask_of(a), mask_of(c), mask_of(b), mask_of(center))


def restricted(s: Separation, domain: set[int]) -> Separation:
    """s with each side cut down to `domain`; the center, and so the anchor,
    kept."""
    d = mask_of(domain)
    return Separation(s.a_mask & d, s.c_mask & d, s.b_mask & d, s.center_mask)


@dataclass(frozen=True)
class RelationFlags:
    non_crossing: bool
    loosely_non_crossing: bool
    a_non_crossing: bool
    a_loosely_non_crossing: bool


def relation(s1: Separation, s2: Separation) -> RelationFlags:
    """Evaluate every emptiness pattern between two separations, from their
    tuples.

    The symmetric variants may exchange the roles of A and B on either side;
    the A-variants keep the stored skew convention fixed.  The package keeps
    only the two it tests, as `is_laminar` and `is_a_laminar`.
    """
    a1, c1, b1 = mask_of(s1.a), mask_of(s1.c), mask_of(s1.b)
    a2, c2, b2 = mask_of(s2.a), mask_of(s2.c), mask_of(s2.b)
    a_loose = not (a1 & c2) and not (a2 & c1)
    a_non = a_loose and not (a1 & a2)
    loose = False
    non = False
    for x1 in (a1, b1):
        for x2 in (a2, b2):
            if not (x1 & c2) and not (x2 & c1):
                loose = True
                if not (x1 & x2):
                    non = True
    return RelationFlags(
        non_crossing=non,
        loosely_non_crossing=loose,
        a_non_crossing=a_non,
        a_loosely_non_crossing=a_loose,
    )


def primordial(
    seps: Sequence[Separation],
) -> tuple[list[Separation], list[tuple[int, int]]]:
    """`make_primordial` on separations: the kept members, in order, and the
    (dropped index, shielding kept index) pairs."""
    drops = make_primordial([s.b_mask | s.c_mask for s in seps])
    dropped = {i for i, _ in drops}
    return [s for i, s in enumerate(seps) if i not in dropped], drops


def clique_separations(g: Graph, w: WeightFunction) -> SeparationSequence:
    """The separation at every clique cutset, in cutset order."""
    return SeparationSequence(
        separations=tuple(clique_separation(g, w, k) for k in clique_cutsets(g))
    )


def clique_covering(
    g: Graph, w: WeightFunction
) -> tuple[SeparationSequence, list[tuple[int, int]]]:
    """The primordial reduction of the clique separations, run on its own
    before any bag is built: the kept members as a sequence, plus the
    (dropped index, shielding kept index) pairs.  The package reduces them
    only inside `central_bag`."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    kept, drops = primordial(clique_separations(g, w).separations)
    return SeparationSequence(separations=tuple(kept)), drops


def clique_bag(
    g: Graph, w: WeightFunction
) -> tuple[SeparationSequence, CentralBagResult, bool, bool]:
    """The clique separations, their single-level central bag as
    `clique_central_bag` builds it, and two measured properties of that bag:
    it has no clique cutset, and every component of g outside it has a
    clique of g as its neighbourhood."""
    seq = clique_separations(g, w)
    result = central_bag(g, w, seq, (range(len(seq.separations)),))
    sub, _ = g.induced_subgraph(result.bag)
    outside = tuple(sorted(set(g.vertices) - set(result.bag)))
    cliques = all(
        g.is_clique(tuple(sorted(set(g.neighborhood(comp)) - set(comp))))
        for comp in (g.components(outside) if outside else [])
    )
    return seq, result, not clique_cutsets(sub), cliques


def recompute_bag(
    g: Graph, seq: SeparationSequence, result: CentralBagResult
) -> tuple[int, ...]:
    """The bag read back from the kept members alone: the intersection of
    B(S) | C(S) over every member of `result.generator`."""
    cur = g.full_mask()
    for cls in result.generator:
        for i in cls:
            cur &= seq.separations[i].b_mask | seq.separations[i].c_mask
    return tuple(bits(cur))


def last_name(node: ast.expr) -> str:
    """The last name of a decorator or annotation: `dataclass` for
    `@dataclasses.dataclass(frozen=True)`, `InitVar` for `InitVar[int]`."""
    if isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""
