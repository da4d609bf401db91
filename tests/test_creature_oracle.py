"""The body-first creature oracle against the version it replaced.

`creature_exists_bruteforce` now builds each path's masks once instead of
once per candidate body.  `ref_creature_exists_bruteforce` is the earlier
version, verbatim; on random graphs with up to eight vertices the two must
agree for k = 1..3 and t = 0..2.  About half the graphs are random trees
with at most two extra edges, which carry the creatures with long legs that
dense random graphs rarely have.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert.config import Budget
from twcert.detect import iter_induced_maps
from twcert.generators import path_graph, subdivided_claw
from twcert.graphs import Graph, mask_of
from twcert.suites import creature_exists_bruteforce


def ref_creature_exists_bruteforce(g: Graph, k: int, t: int) -> bool:
    """Body-first enumeration: fix a connected candidate body, then pack k
    admissible joint-oriented paths around it."""
    paths = list(iter_induced_maps(g, path_graph(t + 1), Budget(), 1))
    full = g.full_mask()
    for body_mask in range(1, full + 1):
        if g.reach_mask(body_mask & -body_mask, body_mask) != body_mask:
            continue
        ok_paths = []
        for p in paths:
            pm = mask_of(p)
            if pm & body_mask:
                continue
            if not g.neighbor_mask(p[0]) & body_mask:
                continue
            if any(g.neighbor_mask(v) & body_mask for v in p[1:]):
                continue
            ok_paths.append((p, pm))

        def pack(start: int, used: int, left: int) -> bool:
            if left == 0:
                return True
            for idx in range(start, len(ok_paths)):
                p, pm = ok_paths[idx]
                if pm & used:
                    continue
                if any(g.neighbor_mask(v) & used for v in p):
                    continue
                if pack(idx + 1, used | pm, left - 1):
                    return True
            return False

        if pack(0, 0, k):
            return True
    return False


@st.composite
def sparse_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pool = list(combinations(range(n), 2))
    if pool:
        edges |= set(draw(st.lists(st.sampled_from(pool), max_size=2)))
    return Graph(n, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(min_n=1, max_n=8), sparse_graphs()))
def test_creature_oracle_matches_reference(g):
    for k in (1, 2, 3):
        for t in (0, 1, 2):
            got = creature_exists_bruteforce(g, k, t)
            assert got == ref_creature_exists_bruteforce(g, k, t), (k, t)


def test_oracles_find_long_legs():
    """A subdivided claw is a one-vertex body with three legs, a path a body
    with two; neither has a leg more."""
    claw111, claw222, claw221 = (
        subdivided_claw(*legs).graph for legs in ((1, 1, 1), (2, 2, 2), (2, 2, 1))
    )
    for oracle in (creature_exists_bruteforce, ref_creature_exists_bruteforce):
        assert oracle(claw111, 3, 0)
        assert oracle(claw222, 3, 1)
        assert not oracle(claw222, 4, 1)
        assert not oracle(claw221, 3, 1)
        assert oracle(path_graph(7), 2, 2)
        assert not oracle(path_graph(7), 3, 1)
