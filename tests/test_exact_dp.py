"""The refutation-pass treewidth solver against the subset DPs it replaced.

`reference_treewidth` is the subset DP without the min-fill ceiling: every
candidate of every state is evaluated.  `pruned_treewidth` is the bottom-up
DP pruned against the min-fill ceiling.  Both stay as width references:
`exact_treewidth` must give their width and a valid witness of that width.
The witness is min-fill's decomposition when min-fill is optimal, and
otherwise the order `reference_traceback` reads back from the reference
table.  The pinned counts of `Graph.component_boundaries` calls show pruning
that is lost, which the outputs alone cannot.  `_refutation_floor`, the
bottom-up pass that decides the width, is checked state by state against
the reference table, and against `bfs_per_candidate_floor`, the pass that
ran one breadth-first search per candidate before it came to read each
prefix's components once."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, random_graph
from twcert import separators
from twcert.check import validate_td
from twcert.generators import complete_graph, wall
from twcert.graphs import CapExceeded, Graph, TreeDecomposition, bits
from twcert.separators import (
    _min_fill,
    _refutation_floor,
    along,
    contraction_degeneracy,
    eliminate,
    exact_treewidth,
)


def _reach_q(g: Graph, v: int, s_mask: int) -> int:
    """Vertices outside s and v seen from v through s (elimination degree)."""
    comp = g.reach_mask(g.neighbor_mask(v) & s_mask, s_mask)
    out = g.neighbor_mask(v)
    for u in bits(comp):
        out |= g.neighbor_mask(u)
    return out & ~s_mask & ~(1 << v)


def reference_treewidth(g: Graph):
    """(tw, td, table): table[s] is TW(s), the width of the best
    elimination of the prefix s."""
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
    return tw[full], td, tw


def pruned_treewidth(g: Graph, cap: int = 14):
    """The bottom-up subset DP pruned against the min-fill ceiling, as
    `exact_treewidth` computed it before the memoised search."""
    if g.n > cap:
        raise CapExceeded(f"exact treewidth capped at n={cap}, got {g.n}")
    n = g.n
    full = (1 << n) - 1
    size = full + 1
    tw = [0] * size
    choice = [0] * size
    tw[0] = -1
    # Each state stores min(its value, ceiling).  A skipped candidate has
    # val >= best, so the strict `<` below could never have picked it.  A
    # state worth more than the min-fill width ub keeps `ceiling` and
    # choice -1; every state on the traceback from `full` is worth at most
    # tw(G) <= ub < ceiling, so it keeps its exact value and its lowest-id
    # choice, and the order and the decomposition are those of the full DP.
    # ub <= n - 1, so the ceiling never exceeds the unpruned start n.
    ceiling = eliminate(g, _min_fill())[0].width + 1
    # every proper subset of s_mask is a smaller number, so is already done
    for s_mask in range(1, size):
        best = ceiling
        best_v = -1
        rest = s_mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            prev = s_mask ^ low
            # N(v) minus prev lies inside Q(prev, v)
            if tw[prev] >= best or (g.neighbor_mask(v) & ~prev).bit_count() >= best:
                continue
            q = _reach_q(g, v, prev).bit_count()
            val = tw[prev] if tw[prev] > q else q
            if val < best:
                best = val
                best_v = v
        tw[s_mask] = best
        choice[s_mask] = best_v
    order_rev: list[int] = []
    s_mask = full
    while s_mask:
        v = choice[s_mask]
        order_rev.append(v)
        s_mask ^= 1 << v
    td, _ = eliminate(g, along(reversed(order_rev)))
    assert td.width == tw[full]
    return tw[full], td


def reference_traceback(g: Graph, tw: int, table) -> list[int]:
    """The witness order read back from the reference table: from the full
    set, the lowest-id v with TW(s - v) <= tw and |Q(s - v, v)| <= tw is
    eliminated last."""
    order_rev = []
    s_mask = (1 << g.n) - 1
    while s_mask:
        v = next(
            v for v in bits(s_mask)
            if table[s_mask ^ 1 << v] <= tw
            and _reach_q(g, v, s_mask ^ 1 << v).bit_count() <= tw
        )
        order_rev.append(v)
        s_mask ^= 1 << v
    return order_rev[::-1]


def assert_valid_witness(g: Graph, ref_tw: int) -> TreeDecomposition:
    """The solver's width is the reference width and its witness is a valid
    decomposition of that width; returns the witness."""
    tw, td = exact_treewidth(g, cap=g.n)
    assert tw == ref_tw
    rep = validate_td(g, td)
    assert rep.ok, rep.violations
    assert rep.width == tw
    return td


def assert_same(g: Graph) -> None:
    """Width and witness: min-fill's decomposition when min-fill is optimal,
    else the reference traceback's."""
    ref_tw, _, table = reference_treewidth(g)
    td = assert_valid_witness(g, ref_tw)
    min_fill_td, _ = eliminate(g, _min_fill())
    if min_fill_td.width == ref_tw:
        expected = min_fill_td
    else:
        expected, _ = eliminate(g, along(reference_traceback(g, ref_tw, table)))
    assert td == expected


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


# on the last, min-fill (6) overshoots tw (5), so the full set is below ub
@pytest.mark.parametrize(
    "n,p,seed", [(13, 0.25, 1), (13, 0.4, 2), (14, 0.2, 3), (14, 0.35, 4), (13, 0.4, 6)]
)
def test_matches_unpruned_dp_on_seeded_graphs(n, p, seed):
    assert_same(random_graph(n, p, seed))


# min-fill overshoots tw by one on each: the pass at the min-fill width
# reaches the full vertex set, so the table is seeded again one lower and
# the witness is read back from it
@pytest.mark.parametrize(
    "n,p,seed",
    [(9, 0.5, 25), (10, 0.4, 70), (10, 0.8, 131), (11, 0.4, 90), (12, 0.3, 46),
     (12, 0.5, 12), (12, 0.6, 28)],
)
def test_matches_unpruned_dp_where_min_fill_overshoots(n, p, seed):
    g = random_graph(n, p, seed)
    ref_tw, _, table = reference_treewidth(g)
    assert eliminate(g, _min_fill())[0].width == ref_tw + 1
    td = assert_valid_witness(g, ref_tw)
    assert td == eliminate(g, along(reference_traceback(g, ref_tw, table)))[0]


def relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


@pytest.mark.parametrize(
    "g",
    [relabel(wall(3, 4), 1), relabel(wall(2, 6), 2), relabel(wall(4, 2), 3)]
    + [random_graph(n, p, 10 * n + k) for n in (15, 16) for k, p in enumerate((0.1, 0.2, 0.35, 0.6))]
    + [
        Graph(16, []),
        Graph(16, [(2 * i, 2 * i + 1) for i in range(8)]),
        Graph(16, [(0, i) for i in range(1, 16)]),
        Graph(16, [(i, (i + 1) % 16) for i in range(16)]),
    ]
    # min-fill overshoots tw on the first two (7 vs 6, 8 vs 7)
    + [random_graph(14, 0.35, 7), random_graph(14, 0.5, 6), complete_graph(16)]
    + [random_graph(16, 0.7, 164)],
    ids=["wall34", "wall26", "wall42"]
    + [f"rand-n{n}-p{p}" for n in (15, 16) for p in (0.1, 0.2, 0.35, 0.6)]
    + ["edgeless16", "matching16", "star16", "cycle16"]
    + ["rand-n14-p0.35-seed7", "rand-n14-p0.5-seed6", "k16", "rand-n16-p0.7"],
)
def test_matches_pruned_dp(g):
    assert_valid_witness(g, pruned_treewidth(g, cap=g.n)[0])


@pytest.mark.parametrize(
    "g,reaches",
    [
        # contraction degeneracy 3 meets the min-fill width 3: no pass runs
        (wall(3, 4), 0),
        # lb 4 < ub 5 = tw: the one pass, at 5, does not reach the full set
        (random_graph(14, 0.3, 7), 56),
        (complete_graph(16), 0),
        # 7 edges, a 7-vertex component holding a triangle, 9 isolated
        # vertices; lb 2 = ub 2, so no pass runs
        (random_graph(16, 0.1, 105), 0),
        # min-fill overshoots tw by one and lb = tw: the pass at ub reaches
        # the full set, the pass at tw is skipped, and the witness is read
        # back from the table at tw + 1
        (random_graph(12, 0.6, 28), 827),
        (random_graph(13, 0.4, 6), 406),
        # lb 5 < tw 6 < ub 7: the passes at 7 and at 6 both run
        (random_graph(14, 0.35, 7), 1883),
    ],
    ids=["wall34", "rand-n14-seed7", "k16", "disconnected-n16-seed105",
         "overshoot-n12-seed28", "overshoot-n13-seed6", "overshoot-n14-seed7"],
)
def test_states_expanded_pinned(monkeypatch, g, reaches):
    """The passes read each popped prefix's components with one
    `component_boundaries` call, and the traceback one per state on its way
    down; `reach_mask` and `component_masks` are not called."""
    counts = {"component_boundaries": 0, "component_masks": 0, "reach_mask": 0}

    def counting(name):
        method = getattr(Graph, name)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(Graph, name, counting(name))
    exact_treewidth(g, cap=g.n)
    assert counts == {"component_boundaries": reaches, "component_masks": 0, "reach_mask": 0}


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=11))
def test_contraction_degeneracy_is_a_lower_bound(g):
    """`exact_treewidth` runs no pass at or below it, so it must never
    exceed the treewidth.  The empty graph is left out: its treewidth is -1
    by convention and its lower bound 0, so no pass runs there either."""
    assert contraction_degeneracy(g) <= reference_treewidth(g)[0]


def reference_contraction_degeneracy(g: Graph) -> int:
    """The set-based contraction loop the bitmask one replaced."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    best = 0
    while len(adj) > 1:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        deg = len(adj[v])
        best = max(best, deg)
        if deg == 0:
            del adj[v]
            continue
        u = min(adj[v], key=lambda x: (len(adj[x]), x))
        merged = (adj[v] | adj[u]) - {u, v}
        for x in adj[v]:
            adj[x].discard(v)
        for x in adj[u]:
            adj[x].discard(u)
        del adj[v]
        adj[u] = merged
        for x in merged:
            adj[x].add(u)
    return best


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=0, max_n=14))
def test_contraction_degeneracy_matches_reference(g):
    assert contraction_degeneracy(g) == reference_contraction_degeneracy(g)


@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.5])
def test_contraction_degeneracy_matches_reference_at_scale(n, p):
    for seed in range(5):
        g = random_graph(n, p, 1000 * n + seed)
        assert contraction_degeneracy(g) == reference_contraction_degeneracy(g)


def _pass_bounds(monkeypatch, g: Graph) -> list[int]:
    """The bounds of the `_refutation_floor` passes `exact_treewidth` runs
    on g, in order."""
    bounds = []

    def counted(g, bound):
        bounds.append(bound)
        return _refutation_floor(g, bound)

    monkeypatch.setattr(separators, "_refutation_floor", counted)
    exact_treewidth(g, cap=g.n)
    return bounds


@pytest.mark.parametrize(
    "g", [wall(3, 4), complete_graph(16), Graph(16, [])], ids=["wall34", "k16", "edgeless16"]
)
def test_no_pass_where_the_lower_bound_meets_min_fill(monkeypatch, g):
    assert _pass_bounds(monkeypatch, g) == []


def test_no_pass_at_tw_where_the_lower_bound_is_tw(monkeypatch):
    """lb 7 = tw < ub 8: only the pass at 8 runs, and it reaches the full set."""
    assert _pass_bounds(monkeypatch, random_graph(12, 0.6, 28)) == [8]


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=0, max_n=10))
def test_refutation_floor_matches_reference_table(g):
    """For every bound b the bottom-up pass leaves b on the prefixes s with
    TW(s) >= b and 0 on the rest, so for b >= 1 its zeros, the states it
    reached, are exactly {s : TW(s) < b}."""
    _, _, table = reference_treewidth(g)
    for b in range(g.n + 1):
        assert list(_refutation_floor(g, b)) == [b if t >= b else 0 for t in table]


def bfs_per_candidate_floor(g: Graph, bound: int) -> bytearray:
    """`_refutation_floor` as it was: each candidate v past the degree
    filter walks its own component in G[s | v]."""
    full = g.full_mask()
    floor = bytearray([bound]) * (full + 1)
    floor[0] = 0
    stack = [0]
    while stack:
        s = stack.pop()
        for v in bits(full & ~s):
            t = s | 1 << v
            if not floor[t] or (g.neighbor_mask(v) & ~t).bit_count() >= bound:
                continue
            seen = 0
            for u in bits(g.reach_mask(1 << v, t)):
                seen |= g.neighbor_mask(u)
            if (seen & ~t).bit_count() < bound:
                floor[t] = 0
                stack.append(t)
    return floor


@settings(max_examples=100, deadline=None)
@given(
    st.integers(11, 14), st.sampled_from((0.15, 0.25, 0.35, 0.5)), st.integers(0, 2**32)
)
def test_refutation_floor_matches_bfs_per_candidate(n, p, seed):
    """Every table from lb to ub, the bounds `exact_treewidth` can pass at,
    equals the table of the pass that walked one component per candidate."""
    g = random_graph(n, p, seed)
    bounds = separators.treewidth_bounds(g)
    for b in range(bounds.lower, bounds.upper + 1):
        assert _refutation_floor(g, b) == bfs_per_candidate_floor(g, b)
