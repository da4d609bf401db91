"""The pruned treewidth DP against the unpruned one it replaced.

`reference_treewidth` is the subset DP without the min-fill ceiling: every
candidate of every state is evaluated.  Pruning may only skip candidates
that could never be picked, so the width, the bags and the tree edges must
all be equal.  The pinned `_reach_q` counts show pruning that is lost, which
the outputs alone cannot."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs
from twcert import separators
from twcert.decompose import along, eliminate
from twcert.generators import complete_graph, wall
from twcert.graphs import Graph
from twcert.separators import _reach_q, exact_treewidth


def reference_treewidth(g: Graph):
    n = g.n
    full = (1 << n) - 1
    tw = [0] * (full + 1)
    choice = [0] * (full + 1)
    tw[0] = -1
    for s_mask in range(1, full + 1):
        best, best_v = n, -1
        for v in range(n):
            if not s_mask >> v & 1:
                continue
            prev = s_mask ^ 1 << v
            val = max(tw[prev], _reach_q(g, v, prev).bit_count())
            if val < best:
                best, best_v = val, v
        tw[s_mask], choice[s_mask] = best, best_v
    order_rev = []
    s_mask = full
    while s_mask:
        order_rev.append(choice[s_mask])
        s_mask ^= 1 << choice[s_mask]
    td, _ = eliminate(g, along(reversed(order_rev)))
    return tw[full], td


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def assert_same(g: Graph) -> None:
    tw, td = exact_treewidth(g)
    ref_tw, ref_td = reference_treewidth(g)
    assert tw == ref_tw
    assert td.bags == ref_td.bags
    assert td.tree_edges == ref_td.tree_edges


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=0, max_n=11))
def test_matches_unpruned_dp(g):
    assert_same(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, []),
        Graph(1, []),
        Graph(9, []),
        Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7)]),
        complete_graph(1),
        complete_graph(2),
        complete_graph(9),
        wall(3, 3),
    ],
    ids=["n0", "k1-edgeless", "edgeless9", "disconnected", "k1", "k2", "k9", "wall33"],
)
def test_matches_unpruned_dp_on_edge_cases(g):
    assert_same(g)


@pytest.mark.parametrize(
    "n,p,seed", [(13, 0.25, 1), (13, 0.4, 2), (14, 0.2, 3), (14, 0.35, 4)]
)
def test_matches_unpruned_dp_on_seeded_graphs(n, p, seed):
    assert_same(random_graph(n, p, seed))


@pytest.mark.parametrize(
    "g,calls",
    [
        (wall(3, 4), 46590),  # 524288 = 16 * 2**15 unpruned
        (random_graph(14, 0.3, 7), 3501),  # 114688 = 14 * 2**13 unpruned
    ],
    ids=["wall34", "rand-n14-seed7"],
)
def test_reach_q_calls_pinned(monkeypatch, g, calls):
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return _reach_q(*args)

    monkeypatch.setattr(separators, "_reach_q", counting)
    exact_treewidth(g, cap=g.n)
    assert count == calls
