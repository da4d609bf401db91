"""Exact weighted balanced separators, separation number, elimination
orderings and treewidth.

Every balanced-separator question (a weighted minimum separator, the
separation number) is one increasing-size subset search, `_first_subset`.

The treewidth solver is the repo-wide oracle: a memoised top-down search
over elimination prefixes, bounded by the minimum-fill width and seeded by
bottom-up passes over the prefixes worth less than that width, lowered
until it is the treewidth, returning a witness decomposition.  Its memo
takes one byte per vertex subset plus the states solved exactly; the extra
passes make it slowest where minimum fill overshoots the treewidth (see
`exact_treewidth`).
For instances above the cap a certified lower/upper bound pair is produced
instead (contraction degeneracy vs. minimum-fill elimination).  Every
decomposition here, and the clique trees of `decompose`, comes from
`eliminate` run on some elimination order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .graphs import CapExceeded, Graph, TreeDecomposition, bits, mask_of
from .weights import WeightFunction, check_balance_parameter


def _require_normal(g: Graph, w: WeightFunction) -> None:
    if len(w.numerators) != g.n:
        raise ValueError(f"{len(w.numerators)} weights for {g.n} vertices")
    if not w.is_normal():
        raise ValueError(f"weight function must be normal, total is {w.total}")


def component_weights(
    g: Graph, w: WeightFunction, x_mask: int
) -> list[tuple[int, Fraction]]:
    allowed = g.full_mask() & ~x_mask
    return [(comp, w.of_mask(comp)) for comp in g.component_masks(allowed)]


def is_balanced_separator(
    g: Graph, w: WeightFunction, c: Fraction, x: Iterable[int]
) -> bool:
    """Exact check: every component of g minus x weighs at most c."""
    _require_normal(g, w)
    check_balance_parameter(c)
    x_mask = mask_of(g._check_vertices(x))
    return all(wt <= c for _, wt in component_weights(g, w, x_mask))


def _first_subset(
    n: int, lo: int, hi: int, test: Callable[[int], bool]
) -> Optional[tuple[int, ...]]:
    """The lexicographically first of the smallest X, lo <= |X| <= hi, that
    passes test(mask of X); None if none does."""
    for k in range(lo, hi + 1):
        for xs in combinations(range(n), k):
            if test(mask_of(xs)):
                return xs
    return None


def min_balanced_separator(
    g: Graph,
    w: WeightFunction,
    c: Fraction,
    max_size: int,
) -> Optional[tuple[int, ...]]:
    """Minimum-cardinality balanced separator of at most max_size vertices by
    increasing-size subset search, as a sorted vertex tuple; ties resolve to
    the lexicographically first subset.  Returns None when no separator that
    small exists.  Each subset tested costs one `component_weights` call.
    The search has no size cap of its own: its callers bound the input."""
    _require_normal(g, w)
    check_balance_parameter(c)

    def balanced(x_mask: int) -> bool:
        return all(wt <= c for _, wt in component_weights(g, w, x_mask))

    return _first_subset(g.n, 0, min(max_size, g.n), balanced)


def separation_number(g: Graph, c: Fraction, cap: int) -> int:
    """Smallest k such that every vertex subset S admits an X, |X| <= k,
    leaving every component with at most c|S| vertices of S.

    Full enumeration over all S; complementary subsets are not interchangeable
    (S = V and S = empty already need different k), so nothing is skipped.
    The components of G - X do not depend on S, so those of each candidate
    X are built once and kept: at most 2^cap lists.
    """
    check_balance_parameter(c)
    if g.n > cap:
        raise CapExceeded(f"separation number capped at n={cap}, got {g.n}")
    best = 0
    full = g.full_mask()
    num, den = c.numerator, c.denominator
    comps_of: dict[int, list[int]] = {}
    for s_mask in range(full + 1):
        # |comp & S| <= c|S|, in integers
        limit = num * s_mask.bit_count()

        def balances(x_mask: int) -> bool:
            comps = comps_of.get(x_mask)
            if comps is None:
                comps = comps_of[x_mask] = g.component_masks(full & ~x_mask)
            return all((comp & s_mask).bit_count() * den <= limit for comp in comps)

        # X = V always balances, so a smallest X of size >= best exists
        hit = _first_subset(g.n, best, g.n, balances)
        assert hit is not None
        best = len(hit)
    return best


# -- elimination orderings -------------------------------------------------------


# picks the next vertex to eliminate from the fill masks and the alive mask
Pick = Callable[[Sequence[int], int], int]


def eliminate(g: Graph, pick: Pick) -> tuple[TreeDecomposition, bool]:
    """Eliminate every vertex of g in its fill-in graph, in the order `pick`
    chooses; the decomposition every elimination order witnesses.

    `pick` sees each vertex's fill-graph neighbours among the alive vertices
    (entries of eliminated vertices are stale) and the alive mask.  Node i's
    bag is the i-th eliminated vertex plus its neighbours at that moment;
    node i joins the node of its earliest-eliminated later neighbour, or node
    i+1 when it has none.  The flag says whether any fill edge was added, so
    it is False exactly for a perfect elimination ordering.  The empty graph
    gives the single empty bag.
    """
    masks = list(g._masks)
    alive = g.full_mask()
    pos: dict[int, int] = {}
    bags: list[tuple[int, ...]] = []
    later: list[int] = []
    filled = False
    for i in g.vertices:
        v = pick(masks, alive)
        nb = masks[v]
        alive ^= 1 << v
        for a in bits(nb):
            grown = masks[a] | nb & ~(1 << a)
            filled |= grown != masks[a]
            masks[a] = grown & ~(1 << v)
        pos[v] = i
        bags.append(tuple(bits(nb | 1 << v)))
        later.append(nb)
    edges: list[tuple[int, int]] = []
    for i, nb in enumerate(later):
        if nb:
            edges.append((i, min(pos[w] for w in bits(nb))))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    td = TreeDecomposition(bags=tuple(bags) or ((),), tree_edges=tuple(sorted(edges)))
    return td, filled


def along(order: Iterable[int]) -> Pick:
    """The pick that eliminates in a fixed order."""
    it = iter(order)
    return lambda masks, alive: next(it)


# -- exact treewidth -------------------------------------------------------------


def _refutation_floor(
    g: Graph, bound: int, above: Optional[bytearray] = None
) -> bytearray:
    """One byte per vertex subset s: 0 when TW(s) < bound, else bound.

    TW(s) < bound exactly when s can be built from the empty set one vertex
    at a time, each added vertex v seeing fewer than `bound` vertices
    outside: |N(C) - s| < bound for C the component of v in G[s].  One
    depth-first pass from the empty set zeroes those states.  When `bound`
    is the min-fill width and min-fill is optimal they are typically few,
    and the full vertex set is not among them.

    `above`, the table of a pass at a larger bound, keeps its refutations:
    a state it refuted keeps that larger bound instead of `bound`.
    """
    full = g.full_mask()
    if above is None:
        # the empty graph's min-fill width is -1; its one state is zeroed anyway
        floor = bytearray([max(bound, 0)]) * (full + 1)
    else:
        # the states `above` left at 0 start at `bound`; the pass never
        # reaches a state refuted at the larger bound
        floor = above.translate(bytes([bound]) + bytes(range(1, 256)))
    floor[0] = 0
    masks = g._masks
    reach_mask = g.reach_mask
    adjacent = g._adjacent
    stack = [0]
    while stack:
        s = stack.pop()
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            t = s | low
            # N(v) - t lies inside the boundary of v's component
            if not floor[t] or (masks[low.bit_length() - 1] & ~t).bit_count() >= bound:
                continue
            if (adjacent(reach_mask(low, t)) & ~t).bit_count() < bound:
                floor[t] = 0
                stack.append(t)
    return floor


def exact_treewidth(g: Graph, cap: int) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition.

    Memoised top-down search over elimination prefixes (Bodlaender, Fomin,
    Koster, Kratsch & Thilikos 2012).  A prefix s is worth
    TW(s) = min over v in s of max(TW(s - v), |Q(s - v, v)|), where Q, the
    vertices v sees when it is eliminated after s - v, is the boundary of
    v's component in G[s].  Each state is searched under the best width
    still worth beating and given up as soon as it cannot beat it, so only
    the prefixes the answer depends on are expanded.  Before the search,
    `_refutation_floor` enumerates bottom-up the prefixes worth less than
    the min-fill width ub and marks every other prefix refuted at ub, so
    once a width of ub is in hand the search skips those in O(1).  When
    min-fill overshoots tw the pass reaches the full vertex set, so it is
    run again at ub - 1, ub - 2, ... until it does not, which leaves ub = tw;
    each prefix keeps the largest bound it was refuted at.
    The memo is a dict of the states solved exactly plus one byte per
    vertex subset, so memory still doubles with each vertex.  On a 2-vCPU
    Xeon the median 16-vertex random graph takes 2-29 ms at every edge
    density from 0.1 to 0.9 (42-900 ms without the bottom-up pass) and K16
    takes 1.2 ms.  An overshoot costs the wasted pass at the min-fill width,
    thousands of prefixes: the slowest overshooting graph of the README's
    16-vertex sweep takes 154 ms (535 ms with the table seeded at the
    min-fill width alone).
    Instances larger than `cap` raise CapExceeded; use treewidth_bounds for
    those.
    """
    if g.n > cap:
        raise CapExceeded(f"exact treewidth capped at n={cap}, got {g.n}")
    full = g.full_mask()
    exact = {0: (-1, -1)}  # state -> (TW, lowest-id minimising choice)
    ub = eliminate(g, _min_fill)[0].width
    floor = _refutation_floor(g, ub)  # the largest bound each state was refuted at
    # a pass that reaches `full` shows tw < ub: seed again one lower, keeping
    # the refutations at the larger bounds, until ub = tw (a bound of 0
    # refutes nothing, so the loop stops there)
    while ub > 0 and not floor[full]:
        ub -= 1
        floor = _refutation_floor(g, ub, floor)
    component_masks = g.component_masks
    adjacent = g._adjacent

    def value(s: int, bound: int) -> int:
        """TW(s) when it is below `bound`, else some value >= bound; s is
        in neither memo (callers look there first)."""
        comps = component_masks(s)
        sizes = [(adjacent(c) & ~s).bit_count() for c in comps]
        # the last vertex of a component to be eliminated sees its whole
        # boundary, so TW(s) >= lb and no candidate can beat lb
        lb = max(sizes)
        best = bound
        if lb < bound:
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                for comp, q in zip(comps, sizes):  # q = |Q(s - v, v)|
                    if comp & low:
                        break
                if q >= best:
                    continue
                prev = s ^ low
                hit = exact.get(prev)
                if hit is not None:
                    t = hit[0]
                elif floor[prev] >= best:
                    continue
                else:
                    t = value(prev, best)
                if t >= best:
                    continue
                best = t if t > q else q
                choice = low.bit_length() - 1
                if best == lb:
                    break
        if best < bound:
            exact[s] = (best, choice)
        else:
            floor[s] = bound
        return best

    # A candidate is skipped only when it cannot be strictly better than the
    # best so far, and the scan runs in ascending id, so a state solved
    # exactly gets the lowest-id minimiser, whatever bound it was solved
    # under.  The ceiling is ub + 1, and every state on the traceback from
    # `full` is worth at most tw(G) = ub, so each was solved exactly: the
    # order and the decomposition are those of the unpruned DP.  A floor of
    # ub is a true refutation, so the same holds with it seeded.
    width = value(full, ub + 1) if full else -1
    order_rev: list[int] = []
    s_mask = full
    while s_mask:
        v = exact[s_mask][1]
        order_rev.append(v)
        s_mask ^= 1 << v
    td, _ = eliminate(g, along(reversed(order_rev)))
    assert td.width == width
    return width, td


def contraction_degeneracy(g: Graph) -> int:
    """Repeatedly contract a minimum-degree vertex into its least neighbor,
    tracking the largest minimum degree; a treewidth lower bound."""
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in g.vertices}
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


def _min_fill(masks: Sequence[int], alive: int) -> int:
    """Minimum-fill pick: fewest missing edges among the alive neighbours,
    then alive degree, then id."""

    def key(v: int) -> tuple[int, int, int]:
        nb = masks[v]
        # each missing edge is counted from both ends; a is never in masks[a]
        missing = sum((nb & ~masks[a]).bit_count() - 1 for a in bits(nb))
        return missing, nb.bit_count(), v

    return min(bits(alive), key=key)


@dataclass(frozen=True)
class TreewidthBounds:
    lower: int
    upper: int
    td: TreeDecomposition

    @property
    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None


def treewidth_bounds(g: Graph) -> TreewidthBounds:
    """Certified sandwich: contraction-degeneracy lower bound and a witnessed
    minimum-fill elimination upper bound."""
    if g.n == 0:
        return TreewidthBounds(-1, -1, TreeDecomposition(bags=((),), tree_edges=()))
    td, _ = eliminate(g, _min_fill)
    return TreewidthBounds(contraction_degeneracy(g), td.width, td)


def treewidth_or_bounds(g: Graph, cap: int) -> TreewidthBounds:
    if g.n <= cap:
        width, td = exact_treewidth(g, cap=cap)
        return TreewidthBounds(width, width, td)
    return treewidth_bounds(g)


# -- separation-number / treewidth bridge ------------------------------------------


@dataclass(frozen=True)
class HarveyWoodReport:
    upper_bound_holds: bool  # tw + 1 <= sep / (1 - c)
    uniform_bound_holds: bool  # tw <= sep / (1 - c), the uniform-weight route
    small_separator_found_for_all: bool  # every sampled w admits size <= tw+1


def balanced_separator_from_td(
    g: Graph, w: WeightFunction, c: Fraction, td: TreeDecomposition
) -> Optional[tuple[int, ...]]:
    """Some bag of a decomposition is always a balanced separator; scan for it."""
    for bag in td.bags:
        if is_balanced_separator(g, w, c, bag):
            return bag
    return None


def harvey_wood_check(
    g: Graph,
    c: Fraction,
    seed: int,
) -> HarveyWoodReport:
    """Cross-check the separation-number and balanced-separator bridges.

    Computes tw and the separation number exactly, checks
    tw + 1 <= sep/(1-c) and the uniform-weight route tw <= sep/(1-c), and
    verifies that 20 seeded normal weight functions all admit a balanced
    separator of size at most tw + 1 (one of the witness bags always works,
    so a weight that no bag balances is recorded as a failure).

    The uniform-weight route needs no search of its own: under the uniform
    weight on a non-empty Y a component weighs |comp & Y| / |Y|, so it is
    at most c exactly when |comp & Y| <= c|Y|, separation_number's test for
    S = Y.  The worst minimum uniform-weight separator over all Y is
    therefore the separation number (S = empty needs X = empty).
    Every search here is exhaustive with no size cap: callers keep g small.
    """
    check_balance_parameter(c)
    tw, td = exact_treewidth(g, cap=g.n)
    sep = separation_number(g, c, cap=g.n)
    upper = Fraction(tw + 1) <= Fraction(sep) / (1 - c)
    uniform_ok = Fraction(tw) <= Fraction(sep) / (1 - c)

    rng = random.Random(seed)
    all_small = True
    for _ in range(20):
        raw = [rng.randint(0, 8) for _ in g.vertices]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        w = WeightFunction.from_values([Fraction(x, total) for x in raw])
        found = balanced_separator_from_td(g, w, c, td)
        if found is None or len(found) > tw + 1:
            all_small = False
    return HarveyWoodReport(
        upper_bound_holds=upper,
        uniform_bound_holds=uniform_ok,
        small_separator_found_for_all=all_small,
    )
