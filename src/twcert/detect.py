"""Exact induced-subgraph detection and the break/forcer predicates.

Everything here uses induced semantics: a copy of a pattern must preserve
non-adjacency as well as adjacency.  Exhaustive searches respect a
deterministic node budget and report exhaustion distinctly from absence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import Budget, RunConfig
from .generators import (
    _pyramid_shape,
    _pyramid_signature,
    _theta_shape,
    _theta_signature,
    subdivided_claw,
    wall,
)
from .graphs import CapExceeded, Graph, bits, line_edges, mask_of, subdivided_edges


@dataclass(frozen=True)
class PatternMatch:
    image: tuple[int, ...]
    roles: tuple[tuple[str, tuple[int, ...]], ...]


def _default_budget(budget: Optional[Budget]) -> Budget:
    return budget if budget is not None else Budget(RunConfig.search_budget)


# -- generic engine ---------------------------------------------------------

Filter = tuple[
    list[int], list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, ...]]
]


def _host_masks(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """The host's neighbour masks, their complements, and at_least[d], the
    host vertices of degree >= d for d up to the maximum degree."""
    nbr = [g.neighbor_mask(v) for v in g.vertices]
    at_least = [0] * (g.max_degree() + 1)
    for v in g.vertices:
        at_least[g.degree(v)] |= 1 << v
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    return nbr, [~m for m in nbr], at_least


def _filter(
    degree: Sequence[int],
    earlier: Sequence[int],
    above: Sequence[int],
    at_least: list[int],
) -> Filter:
    """The engine's candidate filter for a pattern whose vertex i has degree
    ``degree[i]``, earlier neighbours ``earlier[i]`` (a mask of 0..i-1) and
    an image above those of the vertices in ``above[i]`` (a mask of 0..i-1),
    on a host whose vertices of degree >= d are ``at_least[d]`` (none when d
    is past the end).

    The candidates for pattern vertex i are ``base[i]`` (the host vertices
    of large enough degree), minus the vertices the images of 0..i-1 take,
    AND the host neighbour mask of the image of each j in ``adj[i]`` (i's
    earlier neighbours), AND the complement of that of each j in ``non[i]``
    (its earlier non-neighbours), AND the host vertices above the image of
    each j in ``over[i]``.
    """
    top = len(at_least)
    base = [at_least[d] if d < top else 0 for d in degree]
    adj = [tuple(bits(mask)) for mask in earlier]
    non = [tuple(bits((1 << i) - 1 & ~mask)) for i, mask in enumerate(earlier)]
    over = [tuple(bits(mask)) if mask else () for mask in above]
    return base, adj, non, over


def iter_induced_maps(
    g: Graph, pattern: Graph, budget: Budget, above: Sequence[int] = ()
) -> Iterator[tuple[int, ...]]:
    """All injective maps pattern -> g preserving adjacency and non-adjacency,
    in lexicographic order of the mapping tuple.  Given ``above``, only the
    maps that send each pattern vertex i above the images of the earlier
    vertices in the mask ``above[i]``, in the same order (a family search
    passes the condition that breaks a member's symmetry).

    Pattern vertices are placed in id order by one loop over an explicit
    stack.  The candidates for pattern vertex i form one host bitmask (see
    ``_filter``): the vertices of large enough degree, not yet used,
    adjacent to the images of i's earlier pattern neighbours, non-adjacent
    to the images of its earlier non-neighbours and above the images the
    condition names.  They are tried in ascending id order.

    One budget step is one host vertex considered for one pattern vertex,
    whether the filter keeps it or not: placing vertex i costs n steps (n the
    host size), the ones up to each candidate counted before descending into
    it and the rest at the end.  The engine keeps a running count of its
    steps and charges it in batches: with one ``Budget.tick`` before every
    yield and at the end, and at once when the count passes what is left of
    the limit.  So ``Budget.used`` at every yield, at the end and at
    ``BudgetExhausted``, and the prefix of mappings before it, are those of
    charging one step at a time.  What is left is read again after every
    yield, so a caller may tick the same budget between mappings.
    """
    n, k = g.n, pattern.n
    if k > n:
        return
    if k == 0:
        yield ()
        return
    nbr, non, at_least = _host_masks(g)
    base, earlier_adj, earlier_non, earlier_over = _filter(
        [pattern.degree(i) for i in range(k)],
        [pattern.neighbor_mask(i) & ((1 << i) - 1) for i in range(k)],
        above or [0] * k,
        at_least,
    )
    # per pattern vertex i: its current image (-1 until some branch places
    # it), its candidates not yet tried, the host vertices considered for it
    # so far, and the host vertices the images of 0..i-1 take
    assigned = [-1] * k
    cands = [0] * k
    ticked = [0] * k
    used = [0] * k
    last = k - 1
    owed = 0  # steps taken and not yet charged
    room = budget.limit - budget.used
    cands[0] = base[0]
    i = 0
    while True:
        cand = cands[i]
        if cand:
            low = cand & -cand
            cands[i] = cand ^ low
            c = low.bit_length() - 1
            owed += c + 1 - ticked[i]
            if owed > room:
                budget.tick(owed)  # raises BudgetExhausted
            ticked[i] = c + 1
            assigned[i] = c
            if i == last:
                budget.tick(owed)
                owed = 0
                yield tuple(assigned)
                room = budget.limit - budget.used
                continue
            taken = used[i] | low
            i += 1
            cand = base[i] & ~taken
            for j in earlier_adj[i]:
                cand &= nbr[assigned[j]]
            for j in earlier_non[i]:
                cand &= non[assigned[j]]
            for j in earlier_over[i]:
                cand &= -(2 << assigned[j])
            cands[i] = cand
            ticked[i] = 0
            used[i] = taken
        else:
            owed += n - ticked[i]
            if owed > room:
                budget.tick(owed)  # raises BudgetExhausted
            if i == 0:
                break
            i -= 1
    if owed:
        budget.tick(owed)


Roles = tuple[tuple[str, Sequence[int]], ...]
Paths = Sequence[Sequence[int]]
Edges = Sequence[tuple[int, int]]
# One member of a witness family: its vertex count, its signature (one entry
# per vertex, in vertex order: its degree and its earlier-neighbour mask,
# and for a vertex whose image must lie above those of some earlier vertices,
# the mask of those as a third field), and a call that builds its edge list
# and the vertex sequences its roles are read from (a copy maps them into
# the host).
Member = tuple[int, Iterator[tuple[int, ...]], Callable[[], tuple[Edges, Paths]]]


def _edge_member(k: int, edges: Edges, paths: Paths) -> Member:
    """A member given by its edge list, which its signature is read from."""
    degree = [0] * k
    earlier = [0] * k
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        if u < v:
            earlier[v] |= 1 << u
        else:
            earlier[u] |= 1 << v
    return k, zip(degree, earlier), lambda: (edges, paths)


class _Level:
    """A trie node of `_first_copy`: the search-tree nodes at one pattern
    level, in lexicographic order, as parallel columns (the index of each
    node's parent one level up, its host vertex).  The root stands for
    level -1 and holds one node, the empty assignment.  ``total`` counts the
    tree nodes from the root down to this level, and ``next`` holds the trie
    nodes of the next level by signature entry."""

    __slots__ = ("up", "depth", "total", "parent", "vertex", "next")

    def __init__(self, up: Optional[_Level], parent: array, vertex: array) -> None:
        self.up = up
        self.depth = up.depth + 1 if up else 0
        self.total = (up.total if up else 0) + len(vertex)
        self.parent = parent
        self.vertex = vertex
        self.next: dict[tuple[int, ...], _Level] = {}


def _grow(
    trie: _Level,
    degree: Sequence[int],
    earlier: Sequence[int],
    above: Sequence[int],
    host: tuple[list[int], list[int], list[int]],
    cap: int,
) -> Optional[list[tuple[array, array]]]:
    """The search-tree levels p..k-1 of the member with the given signature
    below the trie node `trie` at depth p (levels 0..p-1), as (parent,
    vertex) columns, or None when the member embeds (some node reaches level
    k-1) or the tree would hold more than `cap` nodes below `trie`.  The
    loop is the engine's, with the nodes of level p-1 in place of the
    candidates of level p-1."""
    p, k = trie.depth, len(degree)
    if cap < 0:
        return None
    if p == k:
        return None
    nbr, non, at_least = host
    base, earlier_adj, earlier_non, earlier_over = _filter(
        degree, earlier, above, at_least
    )
    path = [trie]  # path[L]: the trie node of level L-1
    while path[-1].up:
        path.append(path[-1].up)
    path.reverse()
    grown = [(array("i"), array("i")) for _ in range(p, k)]
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
                return grown
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
            if i == last:
                return None
            cap -= 1
            if cap < 0:
                return None
            low = cand & -cand
            cands[i] = cand ^ low
            c = low.bit_length() - 1
            parents, vertices = grown[i - p]
            at[i + 1] = len(vertices)
            parents.append(at[i])
            vertices.append(c)
            assigned[i] = c
            used[i + 1] = taken = used[i] | low
        i += 1
        cand = base[i] & ~taken
        for j in earlier_adj[i]:
            cand &= nbr[assigned[j]]
        for j in earlier_non[i]:
            cand &= non[assigned[j]]
        for j in earlier_over[i]:
            cand &= -(2 << assigned[j])
        cands[i] = cand


def _first_copy(
    g: Graph,
    family: Iterable[Member],
    roles: Callable[[Paths], Roles],
    budget: Optional[Budget],
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of the first family member that
    embeds in g, as its image and its roles (``roles`` of its paths) mapped
    into g.  Members are tried in order and share one budget.

    The engine's search tree down to pattern vertex i depends only on g and,
    for each of the vertices 0..i, its degree, its earlier neighbours and
    the earlier vertices its image must lie above: the member's signature.
    (The last is a condition that breaks a symmetry of the member, as a
    theta's end lies above its hub; it keeps the member's first copy and
    shrinks its tree, and the engine applies it as part of its candidate
    filter.)  So the members share one trie keyed by signature entries,
    whose node at depth L+1 holds the tree nodes at level L (see `_Level`).
    A member walks the trie along its signature as far as it goes, to depth
    p, and grows levels p..k-1 below it with the engine's candidate filter.
    When no node reaches level k-1 the member has no copy: it is charged in
    one tick what the engine would charge, n steps for placing vertex 0 and
    n more below each of its nodes, and its new levels are linked into the
    trie, down to the first empty one.  So at most one tree node is stored
    per n steps charged.  A walk that reaches an empty level stops there: an
    earlier member's search died at that level, so this one's dies too, and
    it is charged without reading the rest of its signature.

    A member runs through `iter_induced_maps`, with its condition, instead
    when it embeds, or when its charge would exceed what is left of the
    budget, so the match, ``Budget.used`` and ``BudgetExhausted`` are those
    of running every member in turn under its condition.  A member's edge
    list is built only when it runs through the engine, and its roles only
    when it matches.  The trie pays only across members: a one-pattern
    search takes the engine's first mapping directly (`_engine_match`).
    """
    bud = _default_budget(budget)
    n = g.n
    host = _host_masks(g)
    root = _Level(None, array("i", [-1]), array("i", [-1]))
    for k, signature, build in family:
        if k > n:
            continue  # no copy, and the engine charges nothing
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
        if not trie.vertex and n * trie.total <= bud.limit - bud.used:
            bud.tick(n * trie.total)  # an earlier member's search died here
            continue
        walked.extend(signature)
        degree = [entry[0] for entry in walked]
        earlier = [entry[1] for entry in walked]
        above = [entry[2] if len(entry) > 2 else 0 for entry in walked]
        cap = (bud.limit - bud.used) // max(n, 1) - trie.total
        grown = _grow(trie, degree, earlier, above, host, cap)
        if grown is not None:
            # link the new levels down to the first empty one: the levels
            # below it are empty too, so trie.total counts every tree node
            for level, (parents, vertices) in enumerate(grown, trie.depth):
                trie.next[walked[level]] = trie = _Level(trie, parents, vertices)
                if not vertices:
                    break
            bud.tick(n * trie.total)
            continue
        edges, paths = build()
        match = _engine_match(g, Graph(k, edges), paths, roles, bud, above)
        if match is not None:
            return match
    return None


def _engine_match(
    g: Graph,
    pattern: Graph,
    paths: Paths,
    roles: Callable[[Paths], Roles],
    budget: Budget,
    above: Sequence[int] = (),
) -> Optional[PatternMatch]:
    """The engine's first mapping of the pattern into g (under the
    condition ``above``), as its image and its roles (``roles`` of
    ``paths``) mapped into g, or None when the pattern has no copy."""
    for mapping in iter_induced_maps(g, pattern, budget, above):
        return PatternMatch(
            image=tuple(sorted(mapping)),
            roles=tuple(
                (key, tuple(mapping[v] for v in seq)) for key, seq in roles(paths)
            ),
        )
    return None


def _numbered(prefix: str, seqs: Paths) -> Roles:
    return tuple((f"{prefix}{i+1}", seq) for i, seq in enumerate(seqs))


def _whole(paths: Paths) -> Roles:
    """The roles of a member whose one path is its whole vertex order."""
    return (("mapping", paths[0]),)


def find_induced(
    g: Graph,
    pattern: Graph,
    budget: Optional[Budget] = None,
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of an explicit pattern graph:
    the engine's first mapping, searched once under the budget, whatever
    the pattern's size.  A pattern larger than g has no copy."""
    if pattern.n > g.n:
        return None  # no copy, and the engine charges nothing
    bud = _default_budget(budget)
    return _engine_match(g, pattern, (range(pattern.n),), _whole, bud)


def induced_copies(
    g: Graph, pattern: Graph, budget: Optional[Budget] = None
) -> list[tuple[int, ...]]:
    """All distinct vertex sets carrying an induced copy, in lexicographic order."""
    seen: set[tuple[int, ...]] = set()
    for mapping in iter_induced_maps(g, pattern, _default_budget(budget)):
        seen.add(tuple(sorted(mapping)))
    return sorted(seen)


# -- specialised detectors ----------------------------------------------------


def _length_triples(
    t: int, max_sum: int, floor2: bool
) -> Iterator[tuple[int, int, int]]:
    """Non-decreasing length triples, each at least t (and at least 2 when
    floor2, else 1), by increasing sum up to max_sum."""
    lo = max(t, 2) if floor2 else max(t, 1)
    for total in range(3 * lo, max_sum + 1):
        for l1 in range(lo, total // 3 + 1):
            for l2 in range(l1, (total - l1) // 2 + 1):
                yield l1, l2, total - l1 - l2


def find_t_theta(
    g: Graph, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Two non-adjacent vertices joined by three internally disjoint induced
    paths of length >= t with no other edges between the paths.  Each member
    is searched with its second end above its first (a theta's mirror is the
    same copy, see `_theta_signature`): the same first copy, in at most the
    steps of the search without that condition."""
    if t < 2:
        raise ValueError("thetas need t >= 2")

    def roles(paths: Paths) -> Roles:
        # each path runs from one end to the other
        return (("ends", (paths[0][0], paths[0][-1])), *_numbered("path", paths))

    # a theta has l1 + l2 + l3 - 1 vertices
    family = (
        (sum(ls) - 1, _theta_signature(*ls), partial(_theta_shape, *ls))
        for ls in _length_triples(t, g.n + 1, floor2=True)
    )
    return _first_copy(g, family, roles, budget)


def find_t_pyramid(
    g: Graph, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Apex joined to a triangle by three near-disjoint induced paths of
    length >= t, at most one of them a single edge."""
    if t < 1:
        raise ValueError("pyramids need t >= 1")

    def roles(paths: Paths) -> Roles:
        # each path runs from the apex to a corner of the triangle
        return (
            ("apex", (paths[0][0],)),
            ("triangle", tuple(p[-1] for p in paths)),
            *_numbered("path", paths),
        )

    # a pyramid has l1 + l2 + l3 + 1 vertices; l1 = l2 = 1 would give two
    # single-edge paths
    family = (
        (sum(ls) + 1, _pyramid_signature(*ls), partial(_pyramid_shape, *ls))
        for ls in _length_triples(t, g.n - 1, floor2=False)
        if ls[1] >= 2
    )
    return _first_copy(g, family, roles, budget)


def find_subdivided_claw(
    g: Graph, t1: int, t2: int, t3: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Lexicographically first induced copy of the three-legged spider with
    the given leg lengths: the engine's first mapping, searched once, with
    the root matched first."""
    wit = subdivided_claw(t1, t2, t3)

    def roles(legs: Paths) -> Roles:
        return (("root", (wit.root,)), *_numbered("leg", legs))

    return _engine_match(g, wit.graph, wit.legs, roles, _default_budget(budget))


# -- creatures -----------------------------------------------------------------


def _directed_induced_paths(
    g: Graph, t: int, budget: Optional[Budget] = None
) -> list[tuple[int, ...]]:
    """All induced paths on t+1 vertices as tuples (joint end first).

    Depth first over path prefixes on an explicit stack of neighbour
    iterators, so t costs no recursion depth.  Each prefix extended by one
    vertex is one step of `budget`, when one is given.
    """
    if t == 0:
        return [(v,) for v in g.vertices]
    tick = budget.tick if budget is not None else lambda: None
    out: list[tuple[int, ...]] = []
    # near[w]: the path vertices adjacent to w, plus 2 when w is on the path,
    # so a neighbour w of the tail extends the path exactly when near[w] == 1
    near = [0] * g.n
    nbrs = [g.neighbors(v) for v in g.vertices]
    for v in g.vertices:
        path = [v]
        near[v] += 2
        for x in nbrs[v]:
            near[x] += 1
        stack = [iter(nbrs[v])]
        while stack:
            for w in stack[-1]:
                if near[w] != 1:
                    continue
                tick()
                if len(path) == t:
                    out.append((*path, w))
                    continue
                path.append(w)
                near[w] += 2
                for x in nbrs[w]:
                    near[x] += 1
                stack.append(iter(nbrs[w]))
                break
            else:
                stack.pop()
                w = path.pop()
                near[w] -= 2
                for x in nbrs[w]:
                    near[x] -= 1
    return sorted(out)


def find_creature(
    g: Graph, k: int, t: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """A connected body plus k pairwise anticomplete induced length-t paths,
    each touching the body only through its joint end.  The match's roles
    are the body, then path1..pathk, each joint first.

    Exhaustive over joint-oriented path tuples in lexicographic order; for a
    fixed choice of paths, a valid body exists iff some component of the
    admissible region neighbors every joint.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    bud = _default_budget(budget)
    paths = _directed_induced_paths(g, t, bud)
    full = g.full_mask()

    def body_for(chosen: list[tuple[int, ...]]) -> Optional[int]:
        blocked = 0
        joints = []
        for p in chosen:
            blocked |= mask_of(p)
            joints.append(p[0])
            for v in p[1:]:
                blocked |= g.neighbor_mask(v)
        for comp in g.component_masks(full & ~blocked):
            if all(g.neighbor_mask(j) & comp for j in joints):
                return comp
        return None

    # Depth first over tuples of paths in increasing index order, on an
    # explicit stack of index iterators, so k costs no recursion depth.
    # One tick per search node: the empty tuple and each tuple extended.
    bud.tick()
    chosen: list[tuple[int, ...]] = []
    used = 0  # vertices of the chosen paths
    stack = [iter(range(len(paths)))]
    while stack:
        for idx in stack[-1]:
            p = paths[idx]
            pm = mask_of(p)
            if pm & used:
                continue
            # pairwise anticomplete to the already chosen paths
            if any(g.neighbor_mask(v) & used for v in p):
                continue
            bud.tick()
            if len(chosen) + 1 == k:
                body = body_for([*chosen, p])
                if body is not None:
                    return PatternMatch(
                        image=tuple(bits(body | used | pm)),
                        roles=(
                            ("body", tuple(bits(body))),
                            *_numbered("path", (*chosen, p)),
                        ),
                    )
                continue
            chosen.append(p)
            used |= pm
            stack.append(iter(range(idx + 1, len(paths))))
            break
        else:
            stack.pop()
            if chosen:
                used ^= mask_of(chosen.pop())
    return None


# -- line graphs of subdivided walls ---------------------------------------------


def find_line_of_subdivided_wall(
    g: Graph, k: int, budget: Optional[Budget] = None
) -> Optional[PatternMatch]:
    """Induced copy of the line graph of some subdivision of the k x k wall.

    Only subdivisions with at most |V(g)| edges can embed, so enumerating
    edge-length vectors in graded lexicographic order up to that budget is
    exhaustive; absence means no member of the family embeds.  Each member
    tried costs one step, besides its search.

    The 2x2 wall is the 4-cycle, so at k = 2 every subdivision with j edges
    is the cycle C_j, and so is its line graph: the vectors of one length
    are one member under different labels, and either all embed or none
    does.  Only the first vector of each length (all extra vertices on the
    last edge) is tried, which gives the same first match.
    """
    if k < 2:
        raise ValueError("walls need k >= 2")
    if k > 3:
        raise CapExceeded("wall-line detection supports k in {2, 3}")
    bud = _default_budget(budget)
    base = wall(k, k)
    base_edges = base.edges
    m = len(base_edges)

    def family() -> Iterator[Member]:
        # the subdivision with `total` edges has a line graph on `total` vertices
        for total in range(m, g.n + 1):
            spreads = _compositions(total - m, m)
            for extra in islice(spreads, 1) if k == 2 else spreads:
                bud.tick()
                sub = subdivided_edges(base.n, base_edges, extra)
                yield _edge_member(total, line_edges(*sub), (range(total),))

    return _first_copy(g, family(), _whole, bud)


def _compositions(extra: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to spread `extra` across `parts >= 1` slots, graded
    lexicographic: the gaps between parts - 1 bars placed among
    extra + parts - 1 positions, bar positions in lexicographic order."""
    end = extra + parts - 1
    for bars in combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


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
    budget of `RunConfig.search_budget` ticks."""
    bud = Budget(RunConfig.search_budget)
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
