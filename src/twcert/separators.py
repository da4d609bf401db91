"""Exact weighted balanced separators, separation number, elimination
orderings and treewidth.

Every balanced-separator question (a weighted minimum separator, the
separation number) is one increasing-size subset search, `_first_subset`.

The treewidth solver is the repo-wide oracle: bottom-up refutation passes
over elimination prefixes, from the minimum-fill width down to the
treewidth, which also give back a witness decomposition; no pass runs once
the width meets the contraction-degeneracy lower bound (see
`exact_treewidth`).
For instances above the cap a certified lower/upper bound pair is produced
instead (contraction degeneracy vs. minimum-fill elimination).  The
minimum-fill pick re-keys only the vertices whose key can change.  Every
decomposition here, and the clique trees of `decompose`, comes from
`eliminate` run on some elimination order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .config import Budget
from .graphs import CapExceeded, Graph, TreeDecomposition, bits, mask_of
from .weights import WeightFunction, check_balance_parameter


def _require_normal(g: Graph, w: WeightFunction) -> None:
    if len(w.numerators) != g.n:
        raise ValueError(f"{len(w.numerators)} weights for {g.n} vertices")
    if not w.is_normal():
        raise ValueError(f"weight function must be normal, total is {w.total}")


def component_weights(
    g: Graph, w: WeightFunction, x_mask: int
) -> list[tuple[int, int]]:
    """Each component of g minus the vertices of x_mask, as a mask, with its
    weight times `w.denominator`: an integer numerator over that shared
    denominator."""
    allowed = g.full_mask() & ~x_mask
    return [(comp, w.numerator_of_mask(comp)) for comp in g.component_masks(allowed)]


def _balance_test(g: Graph, w: WeightFunction, c: Fraction) -> Callable[[int], bool]:
    """Validate w and c once; the test then asks whether every component of
    g minus a mask weighs at most c = p/q, as q * numerator <= p * denominator."""
    _require_normal(g, w)
    check_balance_parameter(c)
    den, limit = c.denominator, c.numerator * w.denominator

    def balanced(x_mask: int) -> bool:
        return all(den * num <= limit for _, num in component_weights(g, w, x_mask))

    return balanced


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
    The search has no size cap or budget of its own: its callers keep g
    within the n = 12 cap of `centralbag.no_small_separator`."""
    return _first_subset(g.n, 0, min(max_size, g.n), _balance_test(g, w, c))


def separation_number(g: Graph, c: Fraction, budget: Budget) -> int:
    """Smallest k such that every vertex subset S admits an X, |X| <= k,
    leaving every component with at most c|S| vertices of S.

    Full enumeration over all S; complementary subsets are not interchangeable
    (S = V and S = empty already need different k), so nothing is skipped.
    The components of G - X do not depend on S, so those of each candidate
    X are built once and kept until the answer so far exceeds |X|: every
    later search starts at that size.  Each X tested costs one tick of
    `budget`, so the budget also bounds how many lists are kept.
    """
    check_balance_parameter(c)
    best = 0
    full = g.full_mask()
    num, den = c.numerator, c.denominator
    comps_of: dict[int, list[int]] = {}
    for s_mask in range(full + 1):
        # |comp & S| <= c|S|, in integers
        limit = num * s_mask.bit_count()

        def balances(x_mask: int) -> bool:
            budget.tick()
            comps = comps_of.get(x_mask)
            if comps is None:
                comps = comps_of[x_mask] = g.component_masks(full & ~x_mask)
            return all((comp & s_mask).bit_count() * den <= limit for comp in comps)

        # X = V always balances, so a smallest X of size >= best exists
        hit = _first_subset(g.n, best, g.n, balances)
        assert hit is not None
        if len(hit) > best:
            best = len(hit)
            comps_of = {x: cs for x, cs in comps_of.items() if x.bit_count() >= best}
    return best


# -- elimination orderings -------------------------------------------------------


# picks the next vertex to eliminate from the fill masks and the alive mask
Pick = Callable[[Sequence[int], int], int]


def eliminate(g: Graph, pick: Pick) -> tuple[TreeDecomposition, bool]:
    """Eliminate every vertex of g in its fill-in graph, in the order `pick`
    chooses; the decomposition every elimination order witnesses.

    `pick` sees each vertex's fill-graph neighbours among the alive vertices
    and the alive mask; an eliminated vertex's entry keeps its neighbours at
    its elimination and is never written again.  Node i's bag is the i-th
    eliminated vertex plus its neighbours at that moment; node i joins the
    node of its earliest-eliminated later neighbour, or node i+1 when it has
    none.  The flag says whether any fill edge was added, so it is False
    exactly for a perfect elimination ordering.  The empty graph gives the
    single empty bag.
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
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            grown = masks[a] | nb ^ low
            filled |= grown != masks[a]
            masks[a] = grown & alive
            rest ^= low
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


def _refutation_floor(g: Graph, bound: int) -> bytearray:
    """One byte per vertex subset s: 0 when TW(s) < bound, else bound.

    TW(s) < bound exactly when s can be built from the empty set one vertex
    at a time, each added vertex v seeing fewer than `bound` vertices
    outside: |N(C) - s| < bound for C the component of v in G[s].  One
    depth-first pass from the empty set zeroes those states.  When `bound`
    is the min-fill width and min-fill is optimal they are typically few,
    and the full vertex set is not among them.

    The components of G[s] are read once per popped prefix s, at its first
    candidate past the degree filter.  v's component in G[s | v] is v plus
    the components of G[s] that meet N(v), so its boundary is N(v) and their
    boundaries, minus v.
    """
    full = g.full_mask()
    floor = bytearray([bound]) * (full + 1)
    floor[0] = 0
    masks = g._masks
    stack = [0]
    while stack:
        s = stack.pop()
        comps = None
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            t = s | low
            nb = masks[low.bit_length() - 1]
            # N(v) - t lies inside the boundary of v's component
            if not floor[t] or (nb & ~t).bit_count() >= bound:
                continue
            if comps is None:
                comps = g.component_boundaries(s)
            seen = nb
            for comp, out in comps:
                if comp & nb:
                    seen |= out
            if (seen & ~t).bit_count() < bound:
                floor[t] = 0
                stack.append(t)
    return floor


def exact_treewidth(g: Graph, cap: int) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition.

    A prefix s is worth TW(s) = min over v in s of max(TW(s - v), |Q|),
    where Q, the vertices v sees when it is eliminated after s - v, is the
    boundary of v's component in G[s] (Bodlaender, Fomin, Koster, Kratsch &
    Thilikos 2012).  A `_refutation_floor` pass at bound b reaches exactly
    the prefixes worth less than b.  Passes run only while the min-fill
    width ub exceeds lb, the contraction degeneracy, a lower bound (tw is at
    least the minimum degree of any minor; Bodlaender & Koster 2011), both
    from `treewidth_bounds`.  When lb = ub, or the pass at ub does not reach
    the full vertex set, min-fill is optimal and its decomposition is the
    witness.  Otherwise the pass runs again at ub - 1, ub - 2, ... until it
    does not, which leaves ub = tw, or until ub = lb, which is then tw
    without a pass at it.  The order is read back from the table of the last
    pass that reached the full set, at bound tw + 1: from s = full, the
    lowest-id v in s with TW(s - v) <= tw and |Q| <= tw is eliminated last,
    every Q of a state read from one `component_boundaries(s)`.
    At most two tables of one byte per vertex subset are alive, so memory
    doubles with each vertex (the README times 16-vertex graphs).  Above
    `cap` vertices it raises CapExceeded; use treewidth_bounds there.
    """
    if g.n > cap:
        raise CapExceeded(f"exact treewidth capped at n={cap}, got {g.n}")
    full = g.full_mask()
    bounds = treewidth_bounds(g)
    lb, ub = bounds.lower, bounds.upper
    # a pass that reaches `full` shows tw < ub: run again one lower, until
    # a pass does not (ub = tw) or ub meets the lower bound
    reached = None  # the table of the last pass that reached `full`
    while ub > lb:
        floor = _refutation_floor(g, ub)
        if floor[full]:
            break
        reached = floor
        ub -= 1
    if reached is None:
        return ub, bounds.td
    # each state on the way down from `full` is worth at most ub = tw
    order_rev: list[int] = []
    s = full
    while s:
        v = min(
            v
            for comp, out in g.component_boundaries(s)
            if out.bit_count() <= ub
            for v in bits(comp)
            if not reached[s ^ 1 << v]
        )
        order_rev.append(v)
        s ^= 1 << v
    td, _ = eliminate(g, along(reversed(order_rev)))
    assert td.width == ub
    return ub, td


def contraction_degeneracy(g: Graph) -> int:
    """Repeatedly contract a minimum-degree vertex into its least neighbor,
    tracking the largest minimum degree; a treewidth lower bound.

    The minimum comes off a heap of (degree, id) keys, so ties go to the
    lowest id.  Contracting v into u changes only the degrees of u and of
    their common neighbours, so only those are pushed again; a popped key
    that no longer matches is skipped."""
    masks = list(g._masks)  # entries of contracted vertices are stale
    deg = [m.bit_count() for m in masks]  # -1 once contracted
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    best = 0
    for _ in range(g.n - 1):
        d, v = heappop(heap)
        while deg[v] != d:
            d, v = heappop(heap)
        deg[v] = -1
        best = max(best, d)
        nb = masks[v]
        if not nb:
            continue
        u = min(bits(nb), key=deg.__getitem__)
        mu = masks[u]
        for x in bits(nb & mu):
            masks[x] ^= 1 << v
            deg[x] -= 1
            heappush(heap, (deg[x], x))
        for x in bits(nb & ~mu & ~(1 << u)):  # sees u in place of v
            masks[x] ^= 1 << v | 1 << u
        masks[u] = merged = (nb | mu) & ~(1 << u | 1 << v)
        if merged.bit_count() != deg[u]:
            deg[u] = merged.bit_count()
            heappush(heap, (deg[u], u))
    return best


def _min_fill() -> Pick:
    """A fresh minimum-fill pick: fewest missing edges among the alive
    neighbours, then alive degree, then id.

    It keeps every alive vertex's key in a heap.  Eliminating x changes the
    neighbourhood of each vertex of its bag B = masks[x] and adds edges only
    inside B.  A vertex outside B keeps its neighbourhood, and a pair of its
    neighbours gains an edge only if both lie in B, so its key can change
    only if it has two neighbours in B.  The next pick re-keys B and those
    vertices, reading B from masks[x], which `eliminate` never writes again;
    one pass over B's masks finds the vertices seen twice."""
    keys: dict[int, tuple[int, int, int]] = {}  # of the alive vertices
    heap: list[tuple[int, int, int]] = []  # holds stale keys too
    last = -1

    def pick(masks: Sequence[int], alive: int) -> int:
        nonlocal last
        if last < 0:
            touched = alive
        else:
            bag = rest = masks[last]
            once = twice = 0
            while rest:
                low = rest & -rest
                m = masks[low.bit_length() - 1]
                twice |= once & m
                once |= m
                rest ^= low
            touched = bag | twice
        while touched:
            low = touched & -touched
            v = low.bit_length() - 1
            touched ^= low
            nb = rest = masks[v]
            degree = nb.bit_count()
            # each missing edge is counted from both ends; a is never in
            # masks[a], so each neighbour's term counts itself once
            missing = -degree
            while rest:
                a = rest & -rest
                missing += (nb & ~masks[a.bit_length() - 1]).bit_count()
                rest ^= a
            key = missing, degree, v
            if keys.get(v) != key:
                keys[v] = key
                heappush(heap, key)
        while keys.get(heap[0][2]) != heap[0]:
            heappop(heap)
        last = heappop(heap)[2]
        del keys[last]
        return last

    return pick


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
    td, _ = eliminate(g, _min_fill())
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
    balanced = _balance_test(g, w, c)
    return next((bag for bag in td.bags if balanced(mask_of(bag))), None)


def harvey_wood_check(
    g: Graph, c: Fraction, seed: int, budget: Budget
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
    Every search here is exhaustive; the separation number charges
    `budget`, and callers keep g small enough for exact treewidth.
    """
    check_balance_parameter(c)
    tw, td = exact_treewidth(g, cap=g.n)
    sep = separation_number(g, c, budget)
    upper = Fraction(tw + 1) <= Fraction(sep) / (1 - c)
    uniform_ok = Fraction(tw) <= Fraction(sep) / (1 - c)

    rng = random.Random(seed)
    all_small = True
    for _ in range(20):
        raw = [rng.randint(0, 8) for _ in g.vertices]
        if sum(raw) == 0:
            raw[0] = 1
        w = WeightFunction.from_numerators(raw, sum(raw))
        found = balanced_separator_from_td(g, w, c, td)
        if found is None or len(found) > tw + 1:
            all_small = False
    return HarveyWoodReport(
        upper_bound_holds=upper,
        uniform_bound_holds=uniform_ok,
        small_separator_found_for_all=all_small,
    )
