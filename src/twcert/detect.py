"""Exact induced-subgraph detection and the break/forcer predicates.

Everything here uses induced semantics: a copy of a pattern must preserve
non-adjacency as well as adjacency.  Exhaustive searches respect a
deterministic node budget and report exhaustion distinctly from absence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence, Union

from .config import Budget
from .generators import (
    _PYRAMID_BASE,
    _THETA_BASE,
    Instance,
    Roles,
    _numbered,
    path_graph,
    pyramid,
    subdivided_claw,
    theta,
    wall,
)
from .graphs import Graph, bits, disjoint_union, line_edges, mask_of, subdivision


@dataclass(frozen=True)
class PatternMatch:
    image: tuple[int, ...]
    roles: Roles


# -- generic engine ---------------------------------------------------------

Masks = list[int]


class _Far(dict):
    """Host vertex x -> the host vertices within distance r of x and not
    adjacent to x, read on the first read of x from x's balls, the masks of
    the vertices within distance 0, 1, ..., e of x (e the largest distance
    from x to a vertex it reaches), which ``balls`` keeps for every radius."""

    __slots__ = ("r", "nbr", "non", "balls")

    def __init__(self, r: int, nbr: Masks, non: Masks, balls: dict[int, Masks]) -> None:
        super().__init__()
        self.r, self.nbr, self.non, self.balls = r, nbr, non, balls

    def __missing__(self, x: int) -> int:
        balls = self.balls.get(x)
        if balls is None:  # one breadth-first search from x
            ring = 1 << x
            balls = self.balls[x] = [ring]
            while ring:
                grown = 0
                for y in bits(ring):
                    grown |= self.nbr[y]
                ring = grown & ~balls[-1]
                if ring:
                    balls.append(balls[-1] | ring)
        self[x] = far = balls[min(self.r, len(balls) - 1)] & self.non[x]
        return far


Host = tuple[Masks, Masks, Masks, Masks, dict[int, _Far], dict[int, Masks]]
Table = Union[Masks, _Far]
Filter = tuple[list[int], list[tuple[tuple[Table, int], ...]]]
# A pattern vertex's signature entry: its degree, the mask of its earlier
# neighbours, the mask of the earlier vertices whose images its image must
# lie above (0 for none) and, on a theta or pyramid path vertex but the last,
# a fourth field, its reach (v, r): the earlier vertex v whose image its
# image lies within host distance r of (see `_signature`).
Entry = tuple[Union[int, tuple[int, int]], ...]


def _host_masks(g: Graph) -> Host:
    """The host's neighbour masks, their complements, up[x] = -(2 << x),
    the host vertices above x, at_least[d], the host vertices of degree
    >= d for d up to the maximum degree, the tables far[r] (`_Far`) by
    radius r and the balls they read, each made, and filled, only as a
    search reads it."""
    nbr = [g.neighbor_mask(v) for v in g.vertices]
    at_least = [0] * (g.max_degree() + 1)
    for v in g.vertices:
        at_least[g.degree(v)] |= 1 << v
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    return nbr, [~m for m in nbr], [-(2 << v) for v in g.vertices], at_least, {}, {}


def _filter(entries: Sequence[Entry], host: Host) -> Filter:
    """The engine's candidate filter on the host `host` (see `_host_masks`)
    for a pattern whose vertex i has the signature entry ``entries[i]``:
    its degree, earlier neighbours (a mask of 0..i-1), the earlier vertices
    whose images its image lies above (a mask of 0..i-1) and maybe its
    reach (v, r).

    The candidates for pattern vertex i are ``base[i]`` (the host vertices
    of large enough degree, none when its degree exceeds the host's
    maximum), minus the vertices the images of 0..i-1 take, AND
    ``table[assigned[j]]`` for each ``(table, j)`` in ``checks[i]``: ``nbr``
    for each earlier neighbour j, ``non`` for each earlier non-neighbour
    but the v of its reach, ``far[r]`` for that v, and ``up`` for each j
    its image lies above.  So one loop applies them all, and a reach costs
    no mask AND of its own.
    """
    nbr, non, up, at_least, far, balls = host
    top = len(at_least)
    tables = (non, nbr)
    base = [at_least[e[0]] if e[0] < top else 0 for e in entries]
    checks = []
    for i, e in enumerate(entries):
        row = [(tables[e[1] >> j & 1], j) for j in range(i)]
        if len(e) > 3:  # a reach (v, r)
            v, r = e[3]
            if r not in far:
                far[r] = _Far(r, nbr, non, balls)
            row[v] = (far[r], v)
        if e[2]:
            row += [(up, j) for j in bits(e[2])]
        checks.append(tuple(row))
    return base, checks


def iter_induced_maps(
    g: Graph,
    pattern: Graph,
    budget: Budget,
    step: Optional[int] = None,
    above: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """All injective maps pattern -> g preserving adjacency and non-adjacency,
    in lexicographic order of the mapping tuple: the family search's loop
    (`_grow`) run from an empty trie, so charged `step` steps per
    search-tree node it expands, n (the host size) unless given.
    ``above[v]``, when given, masks the earlier pattern vertices whose
    images pattern vertex v's image must lie above (see `_filter`).  A
    pattern larger than g has no copy and costs nothing."""
    k = pattern.n
    if k > g.n:
        return iter(())
    entries = [
        (pattern.degree(i), pattern.neighbor_mask(i) & ((1 << i) - 1), over)
        for i, over in enumerate(above or [0] * k)
    ]
    return _grow(
        _Level(None, array("i", [-1]), array("i", [-1])),
        entries,
        _host_masks(g),
        budget,
        g.n if step is None else step,
    )


# One member of a witness family: its vertex count, its signature (one entry
# per vertex, in vertex order, see `Entry`), and a call that builds its
# instance (a copy maps the instance's roles into the host).
Member = tuple[int, Iterable[Entry], Callable[[], Instance]]


def _edge_member(k: int, edges: Sequence[tuple[int, int]]) -> Member:
    """A member given by its edge list, each edge low end first, which its
    signature is read from.  Its one role, `mapping`, is its whole vertex
    order."""
    degree = [0] * k
    earlier = [0] * k
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        earlier[v] |= 1 << u
    roles = (("mapping", tuple(range(k))),)
    return k, zip(degree, earlier, [0] * k), lambda: Instance(Graph(k, edges), roles)


class _Level:
    """A trie node of `_first_copy`: the search-tree nodes at one pattern
    level, in lexicographic order, as parallel columns (the index of each
    node's parent one level up, its host vertex).  The root stands for
    level -1 and holds one node, the empty assignment.  ``next`` holds the
    trie nodes of the next level by signature entry."""

    __slots__ = ("up", "depth", "parent", "vertex", "next")

    def __init__(self, up: Optional[_Level], parent: array, vertex: array) -> None:
        self.up = up
        self.depth = up.depth + 1 if up else 0
        self.parent = parent
        self.vertex = vertex
        self.next: dict[tuple[int, ...], _Level] = {}


def _grow(
    trie: _Level,
    entries: Sequence[Entry],
    host: Host,
    budget: Budget,
    step: int,
    grown: Optional[list[tuple[array, array]]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every mapping of the member with the signature `entries` below the trie
    node `trie` at depth p (levels 0..p-1 enumerated), in lexicographic
    order.  Pattern vertices p..k-1 are placed in id order by one loop over
    an explicit stack, each from the candidates of `_filter` in ascending
    id order, below each node of level p-1 in turn.

    Each node whose candidates it computes costs `step` steps of `budget`.
    The loop charges them in batches: before every yield, at
    its end, and as soon as they would exceed what is left of the limit, so
    ``Budget.used`` is that of charging each node alone at every yield, at
    the end and at ``BudgetExhausted``.  What is left is read again after
    every yield, so a caller may tick the same budget between mappings.

    When `grown` is given, one (parent, vertex) column pair per level
    p..k-1, the loop appends each node it expands there (the index of its
    parent one level up, its host vertex), for `_first_copy` to link into
    the trie."""
    p, k = trie.depth, len(entries)
    base, checks = _filter(entries, host)
    step = step or 1  # only an empty host charges 0, and it expands no node
    room = (budget.limit - budget.used) // step  # the nodes it may expand
    expanded = 0
    path = [trie]  # path[L]: the trie node of level L-1
    while path[-1].up:
        path.append(path[-1].up)
    path.reverse()
    assigned = [0] * k
    used = [0] * (k + 1)  # used[i]: the host vertices the images of 0..i-1 take
    cands = [0] * k
    at = [-1] * (k + 1)  # at[i]: the index of the node of level i-1 being extended
    last = k - 1
    tops = len(trie.vertex)
    top = -1
    i = p - 1
    while True:
        if i < p:
            # the next node of level p-1: assign levels 0..p-1 from it,
            # walking its parents only while they change
            top += 1
            if top == tops:
                budget.tick(step * expanded)
                return
            level, node = p, top
            while level and at[level] != node:
                at[level] = node
                assigned[level - 1] = path[level].vertex[node]
                node = path[level].parent[node]
                level -= 1
            for j in range(level, p):
                used[j + 1] = used[j] | 1 << assigned[j]
            taken = used[p]
        else:
            cand = cands[i]
            if not cand:
                i -= 1
                continue
            low = cand & -cand
            cands[i] = cand ^ low
            c = low.bit_length() - 1
            assigned[i] = c
            if i < last:
                used[i + 1] = taken = used[i] | low
                if grown is not None:
                    parents, vertices = grown[i - p]
                    at[i + 1] = len(vertices)
                    parents.append(at[i])
                    vertices.append(c)
        if i == last:
            budget.tick(step * expanded)
            expanded = 0
            yield tuple(assigned)
            room = (budget.limit - budget.used) // step
            continue
        expanded += 1
        if expanded > room:
            budget.tick(step * expanded)  # raises BudgetExhausted
        i += 1
        cand = base[i] & ~taken
        for table, j in checks[i]:
            cand &= table[assigned[j]]
        cands[i] = cand


def _first_copy(
    g: Graph, family: Generator[Member, Optional[int], None], budget: Budget
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of the first family member that
    embeds in g, as its image and its instance's roles mapped into g.
    Members are tried in order under one budget: each costs n steps (n the
    host size) when it is offered, one scan of the host, and n more per
    search-tree node it expands.

    The search tree down to pattern vertex i depends only on g and,
    for each of the vertices 0..i, its degree, its earlier neighbours and
    the earlier vertices its image must lie above (a condition that breaks
    a symmetry of the member, as a theta's end lies above its hub): the
    member's signature.  So the members share one trie keyed by signature
    entries, whose node at depth L+1 holds the tree nodes at level L (see
    `_Level`), and no tree node is expanded, or charged, twice.  A member
    walks the trie along its signature as far as it goes, to depth p, and
    grows levels p..k-1 below it up to its first mapping (`_grow`).  A
    member with no copy links its new levels into the trie, down to the
    first empty one.  A walk that reaches an empty level stops there,
    without reading the rest of the signature: an earlier member's search
    died at that level, so this one's dies too.  Only the member that
    embeds has its instance built, for its roles.  The trie pays only
    across members: a one-pattern search grows from an empty trie and keeps
    no node (`iter_induced_maps`).

    The family is sent, for each member with no copy, the depth d of the
    empty level its search ended on: its first d vertices have no
    placement in g, so a later member whose first d entries are the same
    has no copy either (see `_members`).  It is sent None for a member
    larger than g.
    """
    n = g.n
    host = _host_masks(g)
    root = _Level(None, array("i", [-1]), array("i", [-1]))
    died = None  # the depth the last member's search died at
    while True:
        try:
            k, signature, build = family.send(died)
        except StopIteration:
            return None
        budget.tick(n)
        died = None
        if k > n:
            continue  # no copy
        signature = iter(signature)  # read once, by the walk and then by _grow
        walked = []  # the signature entries read so far
        trie = root
        for entry in signature:
            walked.append(entry)
            below = trie.next.get(entry)
            if below is None:
                break
            trie = below
            if not trie.vertex:
                break
        if not trie.vertex:
            died = trie.depth  # an earlier member's search died here
            continue
        walked.extend(signature)
        grown = [(array("i"), array("i")) for _ in range(trie.depth, k)]
        search = _grow(trie, walked, host, budget, n, grown)
        mapping = next(search, None)
        if mapping is not None:
            return _mapped(mapping, build().roles)
        # link the new levels down to the first empty one
        for level, (parents, vertices) in enumerate(grown, trie.depth):
            trie.next[walked[level]] = trie = _Level(trie, parents, vertices)
            if not vertices:
                break
        died = trie.depth


def _mapped(mapping: tuple[int, ...], roles: Roles) -> PatternMatch:
    """The match of a mapping: its image, and the roles mapped into g."""
    return PatternMatch(
        image=tuple(sorted(mapping)),
        roles=tuple((key, tuple(mapping[v] for v in seq)) for key, seq in roles),
    )


def _engine_match(
    g: Graph, instance: Instance, budget: Budget
) -> Optional[PatternMatch]:
    """The engine's first mapping of the instance's graph into g, as its
    image and the instance's roles mapped into g, or None when the pattern
    has no copy."""
    for mapping in iter_induced_maps(g, instance.graph, budget):
        return _mapped(mapping, instance.roles)
    return None


def find_induced(
    g: Graph,
    pattern: Graph,
    budget: Optional[Budget] = None,
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of an explicit pattern graph:
    the engine's first mapping, searched once under the budget, whatever
    the pattern's size.  A pattern larger than g has no copy, and the
    engine returns at once without charging the budget."""
    whole = Instance(pattern, (("mapping", tuple(pattern.vertices)),))
    return _engine_match(g, whole, budget or Budget())


def induced_copies(
    g: Graph, pattern: Graph, budget: Optional[Budget] = None
) -> list[tuple[int, ...]]:
    """All distinct vertex sets carrying an induced copy, in lexicographic order."""
    seen: set[tuple[int, ...]] = set()
    for mapping in iter_induced_maps(g, pattern, budget or Budget()):
        seen.add(tuple(sorted(mapping)))
    return sorted(seen)


# -- the family layer ------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A witness family: the subdivisions of one base graph on 0..n-1, or
    their line graphs when ``build`` is None.  Each base edge is written lower
    end first, and a pair may repeat.  The last ``len(floors)`` edges are
    free: the i-th has length at least ``floors[i]`` and, when ``rising``,
    at least the free length before it.  The other edges keep length 1.

    A member is numbered as `subdivision` numbers it.  ``build`` is the
    generator that makes a member's `Instance`, numbered the same way, from
    its free lengths; a line family has none, since a line member's instance
    is read from its edge list (`_edge_member`).  ``above[v]`` masks the
    base vertices whose images base vertex v's image must lie above, a
    condition that breaks a symmetry of every member and keeps its first
    copy (see `_first_copy`); a line family has none.  ``contains`` holds a
    host test per small graph that every member has as an induced subgraph."""

    n: int
    edges: tuple[tuple[int, int], ...]
    floors: tuple[int, ...]
    rising: bool
    build: Optional[Callable[..., Instance]]
    above: tuple[int, ...]
    contains: tuple[Callable[[Graph], bool], ...]


def _lengths(
    total: Union[int, range], floors: Sequence[int], rising: bool
) -> Iterator[tuple[int, ...]]:
    """Every vector of ``len(floors) >= 1`` lengths that sums to `total`,
    or to any total in it when it is a range, by sum and then in
    lexicographic order, its i-th entry at least ``floors[i]`` and, when
    `rising`, at least the entry before it.

    One flat odometer for every sum: raise the rightmost slot that leaves
    room and give each later slot its least value; the slot before the
    last then runs through its range, and the last takes the rest.  When
    no slot leaves room, the next sum starts."""
    *x, end = floors
    totals = total if isinstance(total, range) else (total,)
    if not x:  # one slot, which takes the whole sum
        yield from ((s,) for s in totals if s >= end)
        return
    p = len(x) - 1  # the slot before the last
    head = [0] * (p + 1)  # head[j]: the sum of the slots before j
    for total in totals:
        i = -1  # the slot just raised
        while True:
            for j in range(i + 1, p + 1):
                x[j] = max(floors[j], x[j - 1]) if rising and j else floors[j]
                if j < p:
                    head[j + 1] = head[j] + x[j]
            rest = total - head[p]
            top = min(rest - end, rest // 2) if rising else rest - end
            if x[p] <= top:
                prefix = tuple(x[:p])
                for a in range(x[p], top + 1):
                    yield (*prefix, a, rest - a)
                i = p
            i -= 1
            if i < 0:
                break
            x[i] += 1
            head[i + 1] += 1


def _members(family: Family, n: int) -> Generator[Member, Optional[int], None]:
    """The members of `family` with at most n vertices, by vertex count,
    then by free lengths in lexicographic order.  A member's signature is
    read from its lengths one entry at a time (`_signature`, or
    `_line_signature`), and its instance is built only when it embeds
    (``family.build``, or `_line_instance`).

    A subdivision member's base levels, its first ``family.n`` signature
    entries, depend only on u, how many of its free edges have length 1
    (the first u, as the lengths rise).  Once a member's search dies on a
    base level (the depth `_first_copy` sends back), no member with its u
    has a copy, so none is offered, and the family ends once every u the
    floors allow is dead.  A line member's base entries vary with every
    edge length, and all of them are offered."""
    ones = (1,) * (len(family.edges) - len(family.floors))
    # a member whose free lengths sum to s has s + offset vertices
    offset = len(ones) if family.build is None else family.n - len(family.floors)
    least = sum(accumulate(family.floors, max) if family.rising else family.floors)
    ends = [v for edge in family.edges for v in edge]
    degree = [ends.count(v) for v in range(family.n)]
    # the fixed edges' earlier neighbours, for a subdivision member's signature
    fixed = [0] * family.n
    for u, v in family.edges[: len(ones)]:
        fixed[v] |= 1 << u
    # the base edges at each base vertex, for a line member's signature
    at = [] if family.build else [
        [(j, x == v, v) for j, (u, v) in enumerate(family.edges) if x in (u, v)]
        for x in range(family.n)
    ]
    units = [*accumulate(family.floors, max)].count(1)  # the most u can be
    dead: set[int] = set()  # the u whose base levels are empty
    for free in _lengths(range(least, n - offset + 1), family.floors, family.rising):
        k = sum(free) + offset
        if family.build is None:
            lengths = ones + free
            signature = _line_signature(family, degree, at, lengths)
            yield k, signature, partial(_line_instance, family, lengths)
            continue
        u = free.count(1)
        if u in dead:
            continue
        signature = _signature(family, degree, fixed, free)
        died = yield k, signature, partial(family.build, *free)
        if died is not None and died <= family.n:
            dead.add(u)
            if len(dead) > units:
                return


def _signature(
    family: Family, degree: Sequence[int], fixed: Sequence[int], free: Sequence[int]
) -> Iterator[Entry]:
    """The signature of the member of `family` whose free edges have the
    lengths `free`, read from them, the base vertices' degrees and
    ``fixed[v]``, the mask of v's earlier neighbours by the fixed edges:
    the base vertices, with their conditions, then each free edge's new
    vertices in path order.  It yields one entry at a time, so a reader
    that stops early pays only for the entries it read.

    The q-th new vertex of an edge (u, v) of length l, but the last, has
    the reach (v, l - q): the rest of its path is a path of l - q edges to
    v, so its image lies within host distance l - q of v's."""
    edges = family.edges[len(family.edges) - len(free) :]
    earlier = list(fixed)
    for (u, v), ell in zip(edges, free):
        if ell == 1:
            earlier[v] |= 1 << u
    yield from zip(degree, earlier, family.above)
    nxt = family.n
    for (u, v), ell in zip(edges, free):
        # new vertices nxt..nxt+ell-2, each r edges from v along the path;
        # the last also follows base vertex v
        prev = u
        for r in range(ell - 1, 1, -1):
            yield 2, 1 << prev, 0, (v, r)
            prev = nxt + ell - 1 - r
        if ell > 1:
            yield 2, 1 << prev | 1 << v, 0
        nxt += ell - 1


def _line_signature(
    family: Family,
    degree: Sequence[int],
    at: Sequence[Sequence[tuple[int, bool, int]]],
    lengths: Sequence[int],
) -> Iterator[Entry]:
    """The signature of the line member of `family` whose edges have the
    given lengths, read from the lengths, the base vertices' degrees and
    ``at[x]``, the base edges (u, v) at base vertex x, each as (its index,
    whether x is v, v), one entry at a time.

    Line vertex i is the i-th edge of the subdivision in `line_edges`'
    order: by low end, then by high end, with the vertices numbered as
    `subdivision` numbers them.  So the edges at base vertices come first,
    by base vertex x: its unsubdivided edges to base vertices above it and
    one edge to a new vertex per subdivided edge at x.  The edges between
    new vertices follow, along each path.  Two line vertices are adjacent
    when their edges share an end."""
    # passed[j] - j: the first new vertex of edge j, each of degree 2
    passed = [*accumulate(lengths, initial=family.n)]
    seen = [0] * (passed[-1] - len(lengths))  # seen[x]: the line vertices so far at x
    bit = 1  # 1 << the next line vertex
    for x, edges in enumerate(at):
        # its unsubdivided edges up, then its edges to new vertices
        for unit in (True, False):
            for j, high, v in edges:
                if unit != (lengths[j] == 1) or unit and high:
                    continue  # not of this kind, or an unsubdivided edge down
                b = v if unit else passed[j + high] - j - 2 * high
                yield degree[x] + (degree[b] if unit else 2) - 2, seen[x] | seen[b], 0
                seen[x] |= bit
                seen[b] |= bit
                bit <<= 1
    for j, ell in enumerate(lengths):
        for w in range(passed[j] - j, passed[j + 1] - j - 2):
            yield 2, seen[w] | seen[w + 1], 0
            seen[w] |= bit
            seen[w + 1] |= bit
            bit <<= 1


def _line_instance(family: Family, lengths: Sequence[int]) -> Instance:
    """The instance of the line member of `family` whose edges have the
    given lengths: the line graph of the subdivision, its one role its
    whole vertex order (`_edge_member`)."""
    count, edges, _ = subdivision(family.n, family.edges, lengths)
    return _edge_member(len(edges), line_edges(count, edges))[2]()


def _has_claw(g: Graph) -> bool:
    """Whether g has an induced claw: a vertex with three pairwise
    non-adjacent neighbours.  Every theta has one at its hub, and every
    pyramid at its apex, since at most one of its paths is a single edge."""
    nbr = [g.neighbor_mask(v) for v in g.vertices]
    for around in nbr:
        for a in bits(around):
            apart = around & ~nbr[a] & -(2 << a)  # those above a, not adjacent to a
            for b in bits(apart):
                if apart & ~nbr[b] & -(2 << b):
                    return True
    return False


def _has_triangle(g: Graph) -> bool:
    """Whether g has a triangle."""
    return any(g.neighbor_mask(u) & g.neighbor_mask(v) for u, v in g.edges)


def _find(g: Graph, family: Family, budget: Optional[Budget]) -> Optional[PatternMatch]:
    """The first copy of the first member of `family` in g (`_first_copy`),
    or None at once, with no tick charged, when g lacks a graph that every
    member contains (``family.contains``)."""
    if not all(has(g) for has in family.contains):
        return None
    return _first_copy(g, _members(family, g.n), budget or Budget())


# -- specialised detectors ----------------------------------------------------


def find_t_theta(
    g: Graph, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Two non-adjacent vertices joined by three internally disjoint induced
    paths of length >= t with no other edges between the paths: three
    parallel edges between hub 0 and end 1, each subdivided to length >= t.

    Swapping the hub and the end and reversing each path maps a theta onto
    itself, so composing a copy with that mirror gives a copy whose hub is
    the first's end: the lexicographically first copy has its end above its
    hub.  Each member is searched under that condition, which gives the same
    first copy in at most the steps of the search without it."""
    if t < 2:
        raise ValueError("thetas need t >= 2")
    family = Family(
        2, _THETA_BASE, (t,) * 3, rising=True, build=theta, above=(0, 1),
        contains=(_has_claw,),
    )
    return _find(g, family, budget)


def find_t_pyramid(
    g: Graph, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Apex joined to a triangle by three near-disjoint induced paths of
    length >= t, at most one of them a single edge: K4 with the triangle
    1-2-3 kept and the edges from apex 0 subdivided.  As the lengths rise,
    a floor of 2 on the last two leaves at most the first a single edge."""
    if t < 1:
        raise ValueError("pyramids need t >= 1")
    floors = (t, max(t, 2), max(t, 2))
    family = Family(
        4, _PYRAMID_BASE, floors, rising=True, build=pyramid, above=(0,) * 4,
        contains=(_has_claw,),
    )
    return _find(g, family, budget)


def find_subdivided_claw(
    g: Graph, t1: int, t2: int, t3: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of the three-legged spider with
    the given leg lengths: the engine's first mapping, searched once, with
    the root matched first."""
    return _engine_match(g, subdivided_claw(t1, t2, t3), budget or Budget())


# -- creatures -----------------------------------------------------------------


def find_creature(
    g: Graph, k: int, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """A connected body plus k pairwise anticomplete induced length-t paths,
    each touching the body only through its joint end.  The match's roles
    are the body, then path1..pathk, each joint first.

    The k paths are an induced copy of k disjoint paths on t+1 vertices,
    each joint first, so they are the engine's maps of that pattern, with
    each joint above the one before it so that each set of paths comes
    once, and charged one step per search-tree node it expands.  The maps
    come in lexicographic order of their path tuples; for each, a valid
    body exists iff some component of the admissible region neighbours
    every joint, and the first map with a body is the match.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    size = t + 1
    paths = disjoint_union(*[path_graph(size)] * k)
    above = [0] * paths.n
    for joint in range(size, paths.n, size):
        above[joint] = 1 << (joint - size)
    full = g.full_mask()
    for mapping in iter_induced_maps(g, paths, budget or Budget(), 1, above):
        chosen = [mapping[i : i + size] for i in range(0, paths.n, size)]
        taken = blocked = mask_of(mapping)
        for p in chosen:
            for v in p[1:]:
                blocked |= g.neighbor_mask(v)
        for body in g.component_masks(full & ~blocked):
            if all(g.neighbor_mask(p[0]) & body for p in chosen):
                return PatternMatch(
                    image=tuple(bits(body | taken)),
                    roles=(("body", tuple(bits(body))), *_numbered("path", chosen)),
                )
    return None


# -- line graphs of subdivided walls ---------------------------------------------


def find_line_of_subdivided_wall(
    g: Graph, k: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Induced copy of the line graph of some subdivision of the k x k wall.

    Only subdivisions with at most |V(g)| edges can embed, so enumerating
    them by edge count is exhaustive; absence means no member of the family
    embeds.  Each member offered costs n steps (n = |V(g)|), besides its
    search (see `_first_copy`).

    The 2x2 wall is the 4-cycle, so at k = 2 every subdivision with j edges
    is the cycle C_j, and so is its line graph: the family declares only the
    last edge free, one member per length, which gives the same first match.

    Any k >= 2 runs.  The k x k wall has 2k(k-1) vertices and at least as
    many edges, so a smaller host is absent before the wall is built; so is
    a triangle-free host at k >= 3, since the edges at each degree-3 wall
    vertex make a triangle in every member.  Otherwise the search runs until
    it ends or the budget runs out.
    """
    if k < 2:
        raise ValueError("walls need k >= 2")
    if 2 * k * (k - 1) > g.n:
        return None  # every member has more vertices than g
    base = wall(k, k)
    free = base.m if k > 2 else 1
    lines = Family(
        base.n, base.edges, (1,) * free, rising=False, build=None, above=(),
        contains=(_has_triangle,) if k > 2 else (),
    )
    return _find(g, lines, budget)


# -- breaks and forcers -------------------------------------------------------------


def breaks(g: Graph, x: Iterable[int], y: Iterable[int]) -> bool:
    """True when no component of g minus N[x] holds all of y in its closed
    neighborhood."""
    xs = tuple(sorted(set(x)))
    ys = tuple(sorted(set(y)))
    if set(xs) & set(ys):
        raise ValueError("the two sets must be disjoint")
    closed = mask_of(g.neighborhood(xs))
    y_mask = mask_of(ys)
    for comp in g.component_masks(g.full_mask() & ~closed):
        if y_mask & (comp | g._adjacent(comp)) == y_mask:
            return False
    return True


@dataclass(frozen=True)
class ForcerReport:
    holds: bool
    copies_checked: int
    counterexample: Optional[tuple[int, ...]] = None


def verify_forcer(g: Graph, forcer_pattern: Graph, x_pattern: Graph) -> ForcerReport:
    """Check that every induced copy Y of the forcer contains an induced copy
    X' of the inner pattern with X' breaking Y minus X'.  The first violating
    copy is returned as a counterexample.  The search runs under the default
    budget (see `Budget`)."""
    bud = Budget()
    count = 0
    for y in induced_copies(g, forcer_pattern, bud):
        count += 1
        y_set = set(y)
        sub, sub_vs = g.induced_subgraph(y)
        found = False
        for inner in induced_copies(sub, x_pattern, bud):
            x_prime = tuple(sorted(sub_vs[i] for i in inner))
            rest = tuple(sorted(y_set - set(x_prime)))
            if not rest:
                continue  # X' must be a proper subset
            if breaks(g, x_prime, rest):
                found = True
                break
        if not found:
            return ForcerReport(holds=False, copies_checked=count, counterexample=y)
    return ForcerReport(holds=True, copies_checked=count)
