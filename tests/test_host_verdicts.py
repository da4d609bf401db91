"""Theorem 1's verdict table: theta, pyramid and wall-line detection at the
default budget on the paper's host families, pinned row by row.  The hosts
are the k x k walls, their full subdivisions S and the line graphs L of
those.

Each row pins found (F), absent (A) or `budget` (B).  The table measures
progress, not success, so `budget` rows are expected, and a row may move
only from B to F or A.  A found theta or pyramid image rechecks under the
`pattern-found` validator, and a found wall-line k = 2 image is a hole,
checked with networkx.  Images and ticks are not pinned.

Line graphs have no induced claw, and every theta and pyramid has one, so
theta and pyramid are absent on L at once, with no tick charged."""

from functools import cache
from math import inf

import networkx as nx
import pytest

from twcert.check import PYRAMID_SHAPE, THETA_SHAPE, recheck
from twcert.config import Budget, BudgetExhausted
from twcert.detect import find_line_of_subdivided_wall, find_t_pyramid, find_t_theta
from twcert.generators import wall
from twcert.graphs import full_subdivision, line_graph
from twcert.io import graph_to_json

SEARCHES = {
    "theta-t2": lambda g, b: find_t_theta(g, 2, b),
    "theta-t3": lambda g, b: find_t_theta(g, 3, b),
    "pyramid-t1": lambda g, b: find_t_pyramid(g, 1, b),
    "pyramid-t2": lambda g, b: find_t_pyramid(g, 2, b),
    "wall-line-k2": lambda g, b: find_line_of_subdivided_wall(g, 2, b),
    "wall-line-k3": lambda g, b: find_line_of_subdivided_wall(g, 3, b),
}

HOSTS = {
    "wall": lambda k: wall(k, k),
    "S": lambda k: full_subdivision(wall(k, k)),
    "L": lambda k: line_graph(full_subdivision(wall(k, k))),
}

# host family -> (its searches, {k: one verdict per search})
TABLE = {
    "wall": (
        ("theta-t2", "theta-t3", "pyramid-t1"),
        {4: "FFA", 5: "FFA", 6: "FFA", 7: "FFA", 8: "FBA", 9: "BBB", 10: "BBB"},
    ),
    "S": (
        ("theta-t2", "theta-t3", "pyramid-t1"),
        {3: "FFA", 4: "FFA", 5: "FFA", 6: "FFA", 7: "FBA", 8: "BBA"},
    ),
    "L": (
        ("theta-t2", "pyramid-t2", "wall-line-k2", "wall-line-k3"),
        {3: "AAFB", 4: "AAFB", 5: "AAFB", 6: "AAFB", 7: "AABB", 8: "AABB"},
    ),
}

ROWS = {
    f"{family}{k}-{search}": (family, k, search, verdict)
    for family, (searches, rows) in TABLE.items()
    for k, verdicts in rows.items()
    for search, verdict in zip(searches, verdicts)
}


@cache
def host(family: str, k: int):
    return HOSTS[family](k)


# the shape a found image rechecks as, for each theta and pyramid search
SHAPES = {
    "theta-t2": THETA_SHAPE,
    "theta-t3": THETA_SHAPE,
    "pyramid-t1": PYRAMID_SHAPE,
    "pyramid-t2": PYRAMID_SHAPE,
}


def rechecks(g, image, shape) -> bool:
    """Whether `recheck` passes a `pattern-found` record of the image."""
    witness = {
        "kind": "pattern-found",
        "graph": graph_to_json(g),
        "image": list(image),
        "shape": [[u, v, lo, None if hi == inf else hi] for u, v, lo, hi in shape],
    }
    record = {"check": "row", "status": "pass", "witness": witness}
    return recheck({"assertions": [record]}) == (1, 1, [])


def is_hole(g, image) -> bool:
    """Whether the image induces a cycle of length at least 4."""
    h = nx.Graph(g.edges).subgraph(image)
    return len(h) >= 4 and all(d == 2 for _, d in h.degree) and nx.is_connected(h)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_verdict_at_the_default_budget(row):
    family, k, search, verdict = ROWS[row]
    g = host(family, k)
    try:
        match = SEARCHES[search](g, Budget())
    except BudgetExhausted:
        assert verdict == "B"
        return
    assert ("A" if match is None else "F") == verdict
    if match is None:
        return
    if search == "wall-line-k2":
        assert is_hole(g, match.image)
    else:
        assert rechecks(g, match.image, SHAPES[search])


@pytest.mark.parametrize("k", range(3, 11))
@pytest.mark.parametrize("search", sorted(SHAPES))
def test_theta_and_pyramid_are_absent_on_line_hosts_at_no_cost(search, k):
    budget = Budget()
    assert SEARCHES[search](host("L", k), budget) is None
    assert budget.used == 0
