"""Differential test: the mask-based `validate_td` against the set-based
checker it replaced, on valid and broken decompositions.

The reference walks the tree with a set-based search once for the whole
tree and once per vertex, and reads coverage from sets and bag masks.  Both
must give the same `TdReport`: the verdict, the width, and every violation
message in the same order.  Valid decompositions come from eliminating
along random orders; broken ones put bag vertices at -1 and at n or above,
repeat vertices in a bag, drop or add vertices, empty bags, and repeat tree
edges so that the tree falls apart.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, random_graph
from twcert.check import TdReport, validate_td
from twcert.generators import wall
from twcert.graphs import Graph, TreeDecomposition, mask_of
from twcert.separators import along, eliminate, treewidth_bounds


def ref_validate_td(g: Graph, td: TreeDecomposition) -> TdReport:
    problems: list[str] = []
    if td.n_nodes == 0:
        return TdReport(g.n == 0, -1, ("decomposition has no nodes",) if g.n else ())
    tadj: list[list[int]] = [[] for _ in range(td.n_nodes)]
    for a, b in td.tree_edges:
        tadj[a].append(b)
        tadj[b].append(a)

    def tree_connects(nodes: list[int]) -> bool:
        seen = {nodes[0]}
        stack = [nodes[0]]
        node_set = set(nodes)
        while stack:
            for w in tadj[stack.pop()]:
                if w in node_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(nodes)

    if not tree_connects(list(range(td.n_nodes))):
        problems.append("decomposition tree is not connected")
    covered = set()
    for bag in td.bags:
        for v in bag:
            if not 0 <= v < g.n:
                problems.append(f"bag vertex {v} out of range")
            covered.add(v)
    for v in g.vertices:
        if v not in covered:
            problems.append(f"vertex {v} in no bag")
    bag_masks = [mask_of(v for v in b if 0 <= v < g.n) for b in td.bags]
    for u, v in g.edges:
        need = 1 << u | 1 << v
        if not any(bm & need == need for bm in bag_masks):
            problems.append(f"edge ({u},{v}) inside no bag")
    for v in g.vertices:
        nodes = [t for t in range(td.n_nodes) if bag_masks[t] >> v & 1]
        if nodes and not tree_connects(nodes):
            problems.append(f"bags containing vertex {v} induce a disconnected subtree")
    return TdReport(not problems, td.width, tuple(problems))


def valid_td(g: Graph, rng: random.Random) -> TreeDecomposition:
    order = list(g.vertices)
    rng.shuffle(order)
    return eliminate(g, along(order))[0]


def broken_td(g: Graph, td: TreeDecomposition, rng: random.Random) -> TreeDecomposition:
    """One to three random faults applied to td; the tree keeps k - 1
    in-range edges, as `TreeDecomposition` requires."""
    bags = [list(b) for b in td.bags]
    edges = list(td.tree_edges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        bag = bags[rng.randrange(len(bags))]
        if kind == 0:  # a vertex out of range
            bag.insert(rng.randint(0, len(bag)), rng.choice([-1, -3, g.n, g.n + 4]))
        elif kind == 1 and bag:  # a vertex twice in one bag
            bag.insert(rng.randint(0, len(bag)), rng.choice(bag))
        elif kind == 2 and bag:  # a missing vertex or edge
            bag.remove(rng.choice(bag))
        elif kind == 3 and g.n:  # a vertex whose bags may fall apart
            bag.append(rng.randrange(g.n))
        elif kind == 4 and len(edges) >= 2:  # a repeated tree edge
            i, j = rng.sample(range(len(edges)), 2)
            a, b = edges[j]
            edges[i] = rng.choice([(a, b), (b, a)])
        elif kind == 5:  # an empty bag
            bag.clear()
        elif kind == 6 and g.n:  # a vertex moved to another bag
            v = rng.randrange(g.n)
            for b in bags:
                while v in b:
                    b.remove(v)
            bag.append(v)
    return TreeDecomposition(tuple(map(tuple, bags)), tuple(edges))


def random_td(n: int, rng: random.Random) -> TreeDecomposition:
    """k - 1 random tree edges, which may repeat and leave the tree
    disconnected, and random bags over -1..n."""
    k = rng.randint(1, 6)
    edges = []
    for _ in range(k - 1):
        a, b = rng.sample(range(k), 2)
        edges.append((a, b))
    bags = tuple(
        tuple(rng.randint(-1, n) for _ in range(rng.randint(0, 4))) for _ in range(k)
    )
    return TreeDecomposition(bags, tuple(edges))


def assert_same(g: Graph, td: TreeDecomposition) -> TdReport:
    got = validate_td(g, td)
    assert got == ref_validate_td(g, td)
    return got


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=0, max_n=10), st.randoms(use_true_random=False))
def test_validate_td_matches_reference_on_hypothesis_graphs(g, rnd):
    td = valid_td(g, rnd)
    assert assert_same(g, td).ok
    assert_same(g, broken_td(g, td, rnd))
    assert_same(g, random_td(g.n, rnd))


def test_validate_td_matches_reference_on_seeded_cases():
    rng = random.Random(7)
    kinds: set[str] = set()
    broken = 0
    for case in range(6000):
        g = random_graph(rng.randint(0, 10), rng.choice([0.1, 0.3, 0.5, 0.8]), case)
        td = valid_td(g, rng)
        if case % 3 == 0:
            assert assert_same(g, td).ok
            continue
        rep = assert_same(g, broken_td(g, td, rng) if case % 3 == 1 else random_td(g.n, rng))
        broken += not rep.ok
        kinds.update(p.split()[0] + " " + p.split()[-1] for p in rep.violations)
    assert broken > 3000
    # every kind of violation was produced and compared
    assert kinds == {
        "decomposition connected", "bag range", "vertex bag", "edge bag",
        "bags subtree",
    }


def test_validate_td_matches_reference_on_walls_and_empty_decomposition():
    for k in range(2, 7):
        g = wall(k, k)
        assert assert_same(g, treewidth_bounds(g).td).ok
    empty = TreeDecomposition(bags=(), tree_edges=())
    assert assert_same(Graph(0, []), empty).ok
    assert not assert_same(Graph(2, [(0, 1)]), empty).ok
