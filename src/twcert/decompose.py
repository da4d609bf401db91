"""Tree decompositions: chordal clique trees, thickened circular-interval
constructions, and strip-structure assembly.

The `TreeDecomposition` type lives in `graphs`, the validator `validate_td`
in `check`, and the elimination orderings in `separators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .check import validate_td
from .generators import LciThickening, StripStructure
from .graphs import Graph, TreeDecomposition, bits
from .separators import along, eliminate, exact_treewidth


# -- chordal graphs ------------------------------------------------------------


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS order (returned in elimination order, i.e. reversed visit order):
    each step visits an unvisited vertex with the most visited neighbours,
    the lowest such id.  The unvisited vertices sit in buckets by that
    count, as masks, so a step takes the lowest bit of the top non-empty
    bucket and moves each unvisited neighbour one bucket up: O(n + m)
    bucket moves."""
    weight = [0] * g.n
    bucket = [g.full_mask()] + [0] * g.n  # bucket[w]: the unvisited of weight w
    unvisited = g.full_mask()
    top = 0
    order: list[int] = []
    for _ in range(g.n):
        while not bucket[top]:
            top -= 1
        low = bucket[top] & -bucket[top]
        bucket[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        order.append(v)
        for w in bits(g.neighbor_mask(v) & unvisited):
            bucket[weight[w]] ^= 1 << w
            weight[w] += 1
            bucket[weight[w]] |= 1 << w
            top = max(top, weight[w])
    order.reverse()
    return order


def find_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """Some chordless cycle of length >= 4, or None if the graph is chordal.

    For an induced path u-v-w, a shortest w-u path avoiding the rest of N[v]
    is induced, misses N[v] inside and has length >= 2, so v closes it into
    a hole."""
    for u, v in g.edges:
        for w in g.neighbors(v):
            if w == u or g.has_edge(u, w):
                continue
            allowed = g.full_mask() & ~((g.neighbor_mask(v) | 1 << v) & ~(1 << u) & ~(1 << w))
            path = g.shortest_path(w, u, allowed=allowed)
            if path is not None:
                return (v, *reversed(path))  # v-u-...-w-v
    return None


class NotChordal(ValueError):
    def __init__(self, hole: tuple[int, ...]):
        super().__init__(f"graph is not chordal; chordless cycle {hole}")
        self.hole = hole


def chordal_td(g: Graph) -> TreeDecomposition:
    """Clique-tree decomposition of a chordal graph: every bag is a clique
    and the width equals the clique number minus one."""
    td, filled = eliminate(g, along(maximum_cardinality_search(g)))
    if filled:
        hole = find_hole(g)
        assert hole is not None
        raise NotChordal(hole)
    return td


# -- thickened circular-interval decompositions ---------------------------------


@dataclass(frozen=True)
class LciTdReport:
    td: TreeDecomposition
    width_bound: int  # 4*Delta + 3 for the thickened graph


def fuzzy_lci_td(lci: LciThickening) -> LciTdReport:
    """Width <= 4*Delta+3 decomposition of a thickened circular-interval graph.

    Completing the fuzzy blocks gives a circular interval graph; deleting
    every block on the first arc that holds a point cuts the circle, the
    remainder is chordal, and re-adding the cut clique to every bag
    decomposes the whole graph.  When no arc holds a point nothing is cut.
    A remainder that is not chordal raises NotChordal with one of its holes,
    in host vertex ids.
    """
    g = lci.graph
    spec = lci.spec
    model = lci.model
    # complete the fuzzy blocks
    extra = []
    for u, v in spec.fuzz:
        bu, bv = spec.block(u), spec.block(v)
        extra.extend((a, b) for a in bu for b in bv)
    completed = Graph(g.n, list(g.edges) + extra)
    held: list[int] = []
    for i in range(len(model.arcs)):
        held = [u for u in range(spec.base.n) if model.contains(i, model.points[u])]
        if held:
            break
    cut_set = sorted(x for u in held for x in spec.block(u))
    rest = [v for v in range(g.n) if v not in set(cut_set)]
    sub, sub_vs = completed.induced_subgraph(rest)
    try:
        inner = chordal_td(sub)
    except NotChordal as exc:
        raise NotChordal(tuple(sub_vs[x] for x in exc.hole)) from exc
    bags = tuple(
        tuple(sorted(set(cut_set) | {sub_vs[x] for x in bag})) for bag in inner.bags
    )
    td = TreeDecomposition(bags=bags, tree_edges=inner.tree_edges)
    return LciTdReport(td=td, width_bound=4 * g.max_degree() + 3)


# -- strip-structure assembly ----------------------------------------------------


@dataclass(frozen=True)
class StripAssemblyReport:
    td: TreeDecomposition  # hub nodes first, one per pattern decomposition node
    bounds_hold: bool  # hub bags <= |bag0|*(Delta+1)^2, strip bags <= |bag_e| + |ends|


def strip_assembly(
    ss: StripStructure,
    td0: TreeDecomposition,
    strip_tds: Mapping[int, TreeDecomposition],
) -> StripAssemblyReport:
    """Glue per-strip decompositions onto a decomposition of the pattern.

    Every strip tree is linked by a fresh edge to a pattern node whose bag
    holds both ends of the strip's pattern edge; hub bags collect the
    end-sets of their pattern vertices, strip bags add both end-sets.
    `ss` must be valid (see `StripStructure.validate`).
    """
    rep = validate_td(_pattern_graph(ss), td0)
    if not rep.ok:
        raise ValueError(f"pattern decomposition invalid: {rep.violations}")
    for i in range(len(ss.pattern_edges)):
        if i not in strip_tds:
            raise ValueError(f"missing decomposition for strip {i}")
        sub, sub_vs = ss.strip_graph(i)
        srep = validate_td(sub, strip_tds[i])
        if not srep.ok:
            raise ValueError(f"strip {i} decomposition invalid: {srep.violations}")

    delta = ss.host.max_degree()
    bags: list[tuple[int, ...]] = []
    tree_edges: list[tuple[int, int]] = []
    hub_bag_of: list[set[int]] = [set() for _ in range(td0.n_nodes)]
    for t in range(td0.n_nodes):
        for u in td0.bags[t]:
            for i, slot in ss.incident(u):
                hub_bag_of[t].update(ss.eta_end[i][slot])
    bags.extend(tuple(sorted(b)) for b in hub_bag_of)
    tree_edges.extend(td0.tree_edges)
    holds = all(
        len(hub_bag_of[t]) <= len(td0.bags[t]) * (delta + 1) ** 2
        for t in range(td0.n_nodes)
    )

    offset = td0.n_nodes
    for i, (a, b) in enumerate(ss.pattern_edges):
        std = strip_tds[i]
        _, sub_vs = ss.strip_graph(i)
        left, right = ss.eta_end[i]
        add = tuple(sorted(set(left) | set(right)))
        # link node: a td0 bag containing both ends of the pattern edge
        candidates = [
            t for t in range(td0.n_nodes) if a in td0.bags[t] and b in td0.bags[t]
        ]
        if not candidates:
            raise ValueError(f"no pattern bag contains both ends of edge {i}")
        s_e = candidates[0]
        t_e = 0  # minimum-id node of the strip tree
        for t in range(std.n_nodes):
            bag = tuple(sorted({sub_vs[x] for x in std.bags[t]} | set(add)))
            bags.append(bag)
            holds = holds and len(bag) <= len(std.bags[t]) + len(left) + len(right)
        tree_edges.extend((offset + x, offset + y) for x, y in std.tree_edges)
        tree_edges.append((s_e, offset + t_e))
        offset += std.n_nodes

    td = TreeDecomposition(bags=tuple(bags), tree_edges=tuple(tree_edges))
    return StripAssemblyReport(td=td, bounds_hold=holds)


def _pattern_graph(ss: StripStructure) -> Graph:
    """The pattern graph of a strip structure; parallel edges collapse."""
    return Graph(ss.pattern_n, [(a, b) for a, b in ss.pattern_edges if a != b])


def decompose_strip_structure(ss: StripStructure, cap: int) -> StripAssemblyReport:
    """Assemble a decomposition of a strip structure's host from an exact
    decomposition of its pattern graph and one per strip: a clique tree, or
    an exact decomposition when the strip is not chordal.  The structure is
    validated first; the exact ones raise CapExceeded above `cap` vertices."""
    ss.validate()
    _, td0 = exact_treewidth(_pattern_graph(ss), cap=cap)
    strips = {}
    for i in range(len(ss.pattern_edges)):
        sg, _ = ss.strip_graph(i)
        try:
            strips[i] = chordal_td(sg)
        except NotChordal:
            strips[i] = exact_treewidth(sg, cap=cap)[1]
    return strip_assembly(ss, td0, strips)
