"""The refutation-pass treewidth solver against the subset DPs it replaced.

`reference_treewidth` is the subset DP without the min-fill ceiling: every
candidate of every state is evaluated.  `pruned_treewidth` is the bottom-up
DP pruned against the min-fill ceiling.  Both stay as width references:
`exact_treewidth` must give their width and a valid witness of that width.
The witness is min-fill's decomposition when min-fill is optimal, and
otherwise the order `reference_traceback` reads back from the reference
table.  The pinned counts of `Graph.reach_mask` calls show pruning that is
lost, which the outputs alone cannot.  `_refutation_floor`, the bottom-up
pass that decides the width, is checked state by state against the
reference table."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs
from twcert.check import validate_td
from twcert.generators import complete_graph, wall
from twcert.graphs import CapExceeded, Graph, TreeDecomposition, bits
from twcert.separators import _min_fill, _refutation_floor, along, eliminate, exact_treewidth


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
    ceiling = eliminate(g, _min_fill)[0].width + 1
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


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


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
    min_fill_td, _ = eliminate(g, _min_fill)
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
    assert eliminate(g, _min_fill)[0].width == ref_tw + 1
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
        (wall(3, 4), 287),  # 46590 _reach_q calls in the bottom-up DP
        (random_graph(14, 0.3, 7), 257),  # 3501 _reach_q calls
        (complete_graph(16), 0),
        # 7 edges, a 7-vertex component holding a triangle, 9 isolated vertices
        (random_graph(16, 0.1, 105), 5119),
        # min-fill overshoots tw by one, so the witness is read back from
        # the table of the pass at tw + 1
        (random_graph(12, 0.6, 28), 1779),
        (random_graph(13, 0.4, 6), 1450),
    ],
    ids=["wall34", "rand-n14-seed7", "k16", "disconnected-n16-seed105",
         "overshoot-n12-seed28", "overshoot-n13-seed6"],
)
def test_states_expanded_pinned(monkeypatch, g, reaches):
    """The passes and the traceback test each candidate with one
    `reach_mask` call; `component_masks` is not called."""
    counts = {"component_masks": 0, "reach_mask": 0}

    def counting(name):
        method = getattr(Graph, name)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(Graph, name, counting(name))
    exact_treewidth(g, cap=g.n)
    assert counts == {"component_masks": 0, "reach_mask": reaches}


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=0, max_n=10))
def test_refutation_floor_matches_reference_table(g):
    """For every bound b the bottom-up pass leaves b on the prefixes s with
    TW(s) >= b and 0 on the rest, so for b >= 1 its zeros, the states it
    reached, are exactly {s : TW(s) < b}."""
    _, _, table = reference_treewidth(g)
    for b in range(g.n + 1):
        assert list(_refutation_floor(g, b)) == [b if t >= b else 0 for t in table]


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=0, max_n=10))
def test_chained_refutation_floor_keeps_larger_bounds(g):
    """A pass at b given the table of the pass at b + 1 leaves b + 1 where
    TW(s) >= b + 1, b where TW(s) = b and 0 where TW(s) < b."""
    _, _, table = reference_treewidth(g)
    for b in range(g.n):
        chained = _refutation_floor(g, b, _refutation_floor(g, b + 1))
        assert list(chained) == [
            b + 1 if t > b else b if t == b else 0 for t in table
        ]
