"""Theorem 1 at its smallest parameters: the truncations L(S(H)) of six
small cubic graphs H, pinned row by row at the default budget.

Theorem 1 says that every graph of maximum degree 3 and large enough
treewidth holds a t-theta, a t-pyramid or the line graph of a subdivision
of the k x k wall as an induced subgraph.  Each host here has maximum
degree 3 and is a line graph, so it has no induced claw; every theta and
pyramid has one, so theta t = 2 and pyramid t = 2 are absent at once, with
no tick charged.  The third outcome, wall-line k = 3 (`wall(3, 3)`), is
pinned as it reads: found (F), absent (A) or `budget` (B).  Measured at
the default budget, the A rows took 0, 33,719 and 34,103 ticks; each B row
runs out after about 0.8 s.  Images and ticks are not pinned.

A brute force over the edge subsets of H (by Whitney, an induced L(W') in
L(S(H)) is a subgraph of S(H) that subdivides `wall(3, 3)`) answers the B
rows F for the cube and A for the Wagner graph and the Petersen graph.  So
a row may move only from B to F or A, and then only to that answer; a
change that moves a row names it in CHANGES.md.

The treewidth is pinned where `exact_treewidth` decides it in under a
second with a cap of 18 vertices: 4, 4 and 5 on K4, the prism and K3,3.
"""

from itertools import combinations

import pytest

from twcert.check import validate_td
from twcert.config import Budget, BudgetExhausted, RunConfig
from twcert.detect import find_line_of_subdivided_wall, find_t_pyramid, find_t_theta
from twcert.graphs import Graph, full_subdivision, line_graph
from twcert.separators import exact_treewidth

# H -> (its vertex count, its edges)
CUBIC = {
    "K4": (4, list(combinations(range(4), 2))),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K3,3": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "cube": (8, [(i, j) for i, j in combinations(range(8), 2) if (i ^ j).bit_count() == 1]),
    "Wagner": (8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
    "Petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
}

# H -> (vertices of L(S(H)), wall-line k = 3, treewidth or None where unpinned)
TABLE = {
    "K4": (12, "A", 4),
    "prism": (18, "A", 4),
    "K3,3": (18, "A", 5),
    "cube": (24, "B", None),
    "Wagner": (24, "B", None),
    "Petersen": (30, "B", None),
}


def host(name: str) -> Graph:
    n, edges = CUBIC[name]
    return line_graph(full_subdivision(Graph(n, edges)))


@pytest.mark.parametrize("name", list(TABLE))
def test_theta_and_pyramid_are_absent_at_no_cost(name):
    g = host(name)
    assert (g.n, g.max_degree()) == (TABLE[name][0], 3)
    for search in (find_t_theta, find_t_pyramid):
        budget = Budget(RunConfig.search_budget)
        assert search(g, 2, budget) is None
        assert budget.used == 0


@pytest.mark.parametrize("name", list(TABLE))
def test_wall_line_k3_at_the_default_budget(name):
    try:
        match = find_line_of_subdivided_wall(host(name), 3, Budget(RunConfig.search_budget))
    except BudgetExhausted:
        assert TABLE[name][1] == "B"
        return
    assert ("A" if match is None else "F") == TABLE[name][1]


@pytest.mark.parametrize("name", [name for name, row in TABLE.items() if row[2] is not None])
def test_treewidth(name):
    g = host(name)
    tw, td = exact_treewidth(g, cap=18)
    assert tw == TABLE[name][2]
    assert validate_td(g, td).ok and td.width == tw
