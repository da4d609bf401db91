"""Deterministic constructors for the graph families used across the toolkit.

Every generator returns reproducible vertex ids (root/apex first, then legs
or paths in argument order) so that tests can pin exact images.  A pattern
generator returns an `Instance`: its graph and its parts by role name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, line_graph, subdivision


# -- plain named families ---------------------------------------------------


def path_graph(k: int) -> Graph:
    """Path on k vertices."""
    if k < 1:
        raise ValueError("need at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, list(combinations(range(k), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(legs: int) -> Graph:
    return Graph(legs + 1, [(0, i + 1) for i in range(legs)])


# -- walls -------------------------------------------------------------------


def wall_coordinates(n: int, m: int) -> list[tuple[int, int]]:
    """The (row, column) grid coordinates of the n x m wall, row-major."""
    if n < 2 or m < 2:
        raise ValueError("walls need at least 2 rows and 2 columns")
    coords: list[tuple[int, int]] = []
    coords += [(1, 2 * j - 1) for j in range(1, m + 1)]
    for i in range(2, n):
        coords += [(i, j) for j in range(1, 2 * m + 1)]
    if n % 2 == 0:
        coords += [(n, 2 * j - 1) for j in range(1, m + 1)]
    else:
        coords += [(n, 2 * j) for j in range(1, m + 1)]
    return coords


def wall(n: int, m: int) -> Graph:
    """The n x m wall: planar, max degree three, treewidth n for square walls.

    Consecutive vertices of a row are adjacent, and a rung joins (i, j) to
    (i + 1, j) when i - j is even and both vertices exist."""
    coords = wall_coordinates(n, m)
    index = {c: v for v, c in enumerate(coords)}
    pairs = enumerate(zip(coords, coords[1:]))
    edges = [(v, v + 1) for v, (a, b) in pairs if a[0] == b[0]]
    edges += [
        (v, index[i + 1, j])
        for v, (i, j) in enumerate(coords)
        if (i - j) % 2 == 0 and (i + 1, j) in index
    ]
    return Graph(len(coords), edges)


# -- pattern instances: claws, thetas, pyramids, caterpillars, creatures -------

Roles = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Instance:
    """A pattern instance: its graph and its parts, each a role name with a
    vertex sequence.  `detect` maps these roles into the host when it finds
    a copy, and `gen --witness` writes them."""

    graph: Graph
    roles: Roles


def _numbered(prefix: str, seqs: Iterable[tuple[int, ...]]) -> Roles:
    return tuple((f"{prefix}{i}", seq) for i, seq in enumerate(seqs, 1))


def subdivided_claw(t1: int, t2: int, t3: int) -> Instance:
    """Three paths of lengths t1, t2, t3 glued at a root (vertex 0): roles
    `root`, then `leg1`..`leg3`, each leg without the root.

    A zero-length first leg degenerates to a path; the two remaining legs
    must be non-trivial.
    """
    if t1 < 0 or t2 < 1 or t3 < 1:
        raise ValueError("leg lengths need t1 >= 0 and t2, t3 >= 1")
    edges: list[tuple[int, int]] = []
    legs: list[tuple[int, ...]] = []
    nxt = 1
    for t in (t1, t2, t3):
        leg = tuple(range(nxt, nxt + t))
        nxt += t
        chain = (0, *leg)
        edges.extend(zip(chain, chain[1:]))
        legs.append(leg)
    return Instance(Graph(nxt, edges), (("root", (0,)), *_numbered("leg", legs)))


# base edge lists: hub 0 to end 1 thrice; K4, its triangle first, apex edges last
_THETA_BASE = ((0, 1),) * 3
_PYRAMID_BASE = ((1, 2), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3))


def theta(l1: int, l2: int, l3: int) -> Instance:
    """Two vertices joined by three internally disjoint paths, lengths >= 2:
    three parallel edges 0-1, subdivided.  Roles `ends`, then
    `path1`..`path3`, each from end 0 to end 1."""
    if min(l1, l2, l3) < 2:
        raise ValueError("theta paths must have length at least 2")
    n, edges, paths = subdivision(2, _THETA_BASE, (l1, l2, l3))
    return Instance(Graph(n, edges), (("ends", (0, 1)), *_numbered("path", paths)))


def pyramid(l1: int, l2: int, l3: int) -> Instance:
    """Apex joined to a triangle by three paths, at most one of length one:
    K4 with the triangle 1-2-3 kept and the edges from apex 0 subdivided.
    Roles `apex`, `triangle`, then `path1`..`path3`, each from the apex to
    a triangle corner."""
    if min(l1, l2, l3) < 1:
        raise ValueError("pyramid paths must have length at least 1")
    if sorted((l1, l2, l3))[1] < 2:
        raise ValueError("at least two pyramid paths must have length >= 2")
    n, edges, chains = subdivision(4, _PYRAMID_BASE, (1, 1, 1, l1, l2, l3))
    roles = (("apex", (0,)), ("triangle", (1, 2, 3)), *_numbered("path", chains[3:]))
    return Instance(Graph(n, edges), roles)


@dataclass(frozen=True)
class CaterpillarSpec:
    """A subcubic tree whose degree-3 vertices all lie on one spine path.

    spine_edges is the spine length; legs[i] lists the leg lengths hanging
    off spine vertex i.  Interior spine vertices may carry one leg, the two
    spine ends two, and a single-vertex spine up to three.
    """

    spine_edges: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.spine_edges < 0:
            raise ValueError("spine length must be non-negative")
        n_spine = self.spine_edges + 1
        if len(self.legs) > n_spine:
            raise ValueError("more leg slots than spine vertices")
        for i, lens in enumerate(self.legs):
            if any(l < 1 for l in lens):
                raise ValueError("leg lengths must be positive")
            spine_deg = (0 if n_spine == 1 else (1 if i in (0, n_spine - 1) else 2))
            if spine_deg + len(lens) > 3:
                raise ValueError(
                    f"spine vertex {i} would get degree {spine_deg + len(lens)} > 3"
                )


def caterpillar(spec: CaterpillarSpec) -> Instance:
    """Roles `spine`, then `leg1`.. in spec order, each from its spine
    vertex outward."""
    n_spine = spec.spine_edges + 1
    edges = [(i, i + 1) for i in range(spec.spine_edges)]
    nxt = n_spine
    legs: list[tuple[int, ...]] = []
    for i, lens in enumerate(spec.legs):
        for ell in lens:
            chain = (i, *range(nxt, nxt + ell))
            nxt += ell
            edges.extend(zip(chain, chain[1:]))
            legs.append(chain)
    g = Graph(nxt, edges)
    assert g.max_degree() <= 3
    return Instance(g, (("spine", tuple(range(n_spine))), *_numbered("leg", legs)))


def creature(k: int, t: int, joint_spacing: int) -> Instance:
    """A canonical creature: connected body plus k anticomplete length-t paths.

    Each path touches the body only through its joint end.  The body is a
    path with attachment points joint_spacing apart.  Roles `body`, then
    `path1`..`pathk`, each joint first.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    if joint_spacing < 1:
        raise ValueError("joint spacing must be positive")
    body_n = (k - 1) * joint_spacing + 1
    edges = [(i, i + 1) for i in range(body_n - 1)]
    nxt = body_n
    paths: list[tuple[int, ...]] = []
    for i in range(k):
        pv = tuple(range(nxt, nxt + t + 1))
        nxt += t + 1
        edges.append((i * joint_spacing, pv[0]))
        edges.extend(zip(pv, pv[1:]))
        paths.append(pv)
    roles = (("body", tuple(range(body_n))), *_numbered("path", paths))
    return Instance(Graph(nxt, edges), roles)


# -- circular interval models and thickenings ---------------------------------


@dataclass(frozen=True)
class CircularIntervalModel:
    """Points on the unit circle plus closed arcs; two points are adjacent
    exactly when some arc contains both.

    Arcs are stored as (start, end) with positions in [0, 1); an arc with
    start > end wraps through 0.  No two arcs may share an endpoint and no
    three arcs may cover the whole circle.
    """

    points: tuple[Fraction, ...]
    arcs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        for p in self.points:
            if not 0 <= p < 1:
                raise ValueError("points must lie in [0,1)")
        if len(set(self.points)) != len(self.points):
            raise ValueError("circle positions must be distinct")
        endpoints: list[Fraction] = []
        for s, e in self.arcs:
            if s == e:
                raise ValueError("degenerate arc (equal endpoints)")
            if not (0 <= s < 1 and 0 <= e < 1):
                raise ValueError("arc endpoints must lie in [0,1)")
            endpoints += [s, e]
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("no two arcs may share an endpoint")
        for trio in combinations(range(len(self.arcs)), 3):
            if self._covers_circle([self.arcs[i] for i in trio]):
                raise ValueError(f"arcs {trio} cover the whole circle")

    @staticmethod
    def _unwrap(arc: tuple[Fraction, Fraction]) -> list[tuple[Fraction, Fraction]]:
        s, e = arc
        if s <= e:
            return [(s, e)]
        return [(s, Fraction(1)), (Fraction(0), e)]

    @classmethod
    def _covers_circle(cls, arcs: Sequence[tuple[Fraction, Fraction]]) -> bool:
        segs = sorted(seg for a in arcs for seg in cls._unwrap(a))
        reach = Fraction(0)
        for s, e in segs:
            if s > reach:
                return False
            reach = max(reach, e)
        return reach >= 1

    def contains(self, arc_index: int, p: Fraction) -> bool:
        s, e = self.arcs[arc_index]
        if s <= e:
            return s <= p <= e
        return p >= s or p <= e

    def endpoint_pairs(self) -> tuple[tuple[int, int], ...]:
        """Vertex pairs sitting at the two endpoints of exactly the arcs that
        justify them: both points are endpoints of some arc and no other arc
        contains both.  These are the pairs eligible for fuzzing."""
        pos = {p: i for i, p in enumerate(self.points)}
        out = set()
        for i, (s, e) in enumerate(self.arcs):
            if s in pos and e in pos:
                u, v = pos[s], pos[e]
                if any(
                    j != i
                    and self.contains(j, self.points[u])
                    and self.contains(j, self.points[v])
                    for j in range(len(self.arcs))
                ):
                    continue
                out.add((u, v) if u < v else (v, u))
        return tuple(sorted(out))


def circular_interval_graph(model: CircularIntervalModel) -> Graph:
    pts = model.points
    edges = [
        (u, v)
        for u, v in combinations(range(len(pts)), 2)
        if any(
            model.contains(i, pts[u]) and model.contains(i, pts[v])
            for i in range(len(model.arcs))
        )
    ]
    return Graph(len(pts), edges)


def cycle_interval_model(k: int) -> CircularIntervalModel:
    """A k-cycle as a circular interval model with one fuzz-eligible pair.

    Points sit at i/k; arc j covers exactly the points j and j+1.  Arc 0 is
    [0, 1/k] with both endpoints on points, so the pair (0, 1) is eligible
    for fuzzing; the remaining arcs are padded by distinct offsets to keep
    all endpoints distinct.
    """
    if k < 4:
        raise ValueError("cycle models need k >= 4")
    points = tuple(Fraction(i, k) for i in range(k))
    arcs: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1, k))]
    for j in range(1, k):
        pad = Fraction(j, 8 * k * k)
        start = (Fraction(j, k) - pad) % 1
        end = (Fraction(j + 1, k) + pad) % 1
        arcs.append((start, end))
    return CircularIntervalModel(points, tuple(arcs))


def single_interval_model() -> CircularIntervalModel:
    """Five points inside one shared arc: the model graph is K5."""
    points = tuple(Fraction(i + 1, 12) for i in range(5))
    return CircularIntervalModel(points, ((Fraction(1, 24), Fraction(1, 2)),))


@dataclass(frozen=True)
class ThickeningSpec:
    """Blow each base vertex up into a clique block.

    Blocks of adjacent base vertices are complete to each other and blocks
    of non-adjacent ones anticomplete, except across the fuzz pairs, where
    an explicit bipartite pattern (neither complete nor anticomplete) is
    used.  Every base vertex sits in at most one fuzz pair.
    """

    base: Graph
    sizes: tuple[int, ...]
    fuzz: tuple[tuple[int, int], ...] = ()
    patterns: tuple[tuple[tuple[int, int], ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.sizes) != self.base.n:
            raise ValueError("one block size per base vertex")
        if any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be at least 1")
        used: set[int] = set()
        for u, v in self.fuzz:
            if u == v:
                raise ValueError("fuzz pair must join two distinct vertices")
            if u in used or v in used:
                raise ValueError("a vertex may belong to at most one fuzz pair")
            used.update((u, v))
        if len(self.patterns) != len(self.fuzz):
            raise ValueError("one bipartite pattern per fuzz pair")
        for (u, v), pat in zip(self.fuzz, self.patterns):
            nu, nv = self.sizes[u], self.sizes[v]
            cells = set(pat)
            if len(cells) != len(pat):
                raise ValueError("duplicate cell in fuzzy pattern")
            for i, j in cells:
                if not (0 <= i < nu and 0 <= j < nv):
                    raise ValueError("fuzzy pattern cell out of range")
            if not cells:
                raise ValueError(f"fuzzy block {u},{v} would be anticomplete")
            if len(cells) == nu * nv:
                raise ValueError(f"fuzzy block {u},{v} would be complete")

    def block(self, v: int) -> tuple[int, ...]:
        start = sum(self.sizes[:v])
        return tuple(range(start, start + self.sizes[v]))


def thickening(spec: ThickeningSpec) -> Graph:
    blocks = [spec.block(v) for v in range(spec.base.n)]
    n = sum(spec.sizes)
    edges: list[tuple[int, int]] = []
    for blk in blocks:
        edges.extend(combinations(blk, 2))
    fuzz_index = {tuple(sorted(p)): i for i, p in enumerate(spec.fuzz)}
    for u, v in combinations(range(spec.base.n), 2):
        key = (u, v)
        if key in fuzz_index:
            pat = spec.patterns[fuzz_index[key]]
            for i, j in pat:
                edges.append((blocks[u][i], blocks[v][j]))
        elif spec.base.has_edge(u, v):
            edges.extend((a, b) for a in blocks[u] for b in blocks[v])
    return Graph(n, edges)


@dataclass(frozen=True)
class LciThickening:
    """A thickening whose base is a circular interval graph and whose fuzz
    pairs are endpoint pairs of the model."""

    model: CircularIntervalModel
    spec: ThickeningSpec

    def __post_init__(self) -> None:
        if self.spec.base != circular_interval_graph(self.model):
            raise ValueError("thickening base must be the model's graph")
        allowed = set(self.model.endpoint_pairs())
        for pair in self.spec.fuzz:
            if tuple(sorted(pair)) not in allowed:
                raise ValueError(f"fuzz pair {pair} is not an eligible endpoint pair")

    @cached_property
    def graph(self) -> Graph:
        return thickening(self.spec)


# -- strip structures ----------------------------------------------------------


@dataclass(frozen=True)
class StripStructure:
    """A partition of the host's vertices into strips indexed by the edges of
    a pattern multigraph, glued along clique end-sets.

    pattern_edges may repeat endpoint pairs (parallel edges) and a loop is
    written as (u, u); the validator treats a loop as a single incident pair.
    """

    host: Graph
    pattern_n: int
    pattern_edges: tuple[tuple[int, int], ...]
    eta: tuple[tuple[int, ...], ...]  # per pattern edge
    eta_end: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # per edge, per end

    def incident(self, v: int) -> list[tuple[int, int]]:
        """(edge index, endpoint slot) pairs at pattern vertex v; loops once."""
        out = []
        for i, (a, b) in enumerate(self.pattern_edges):
            if a == v:
                out.append((i, 0))
            elif b == v:
                out.append((i, 1))
        return out

    def validate(self) -> None:
        if self.pattern_n < 1:
            raise ValueError("pattern needs at least one vertex")
        degrees = [0] * self.pattern_n
        for a, b in self.pattern_edges:
            if not (0 <= a < self.pattern_n and 0 <= b < self.pattern_n):
                raise ValueError("pattern edge endpoint out of range")
            degrees[a] += 1
            degrees[b] += 1
        if any(d == 0 for d in degrees):
            raise ValueError("pattern has an isolated vertex")
        if len(self.eta) != len(self.pattern_edges) or len(self.eta_end) != len(
            self.pattern_edges
        ):
            raise ValueError("need one strip and one end-set pair per pattern edge")
        # (S1) strips are non-empty and partition the host vertices
        seen: set[int] = set()
        for i, strip in enumerate(self.eta):
            if not strip:
                raise ValueError(f"strip {i} is empty")
            if set(strip) & seen:
                raise ValueError(f"strip {i} overlaps another strip")
            seen.update(strip)
        if seen != set(range(self.host.n)):
            raise ValueError("strips do not partition the host vertex set")
        for i, (left, right) in enumerate(self.eta_end):
            strip = set(self.eta[i])
            for side in (left, right):
                if not set(side) <= strip:
                    raise ValueError(f"end-set of strip {i} leaves the strip")
        # (S2) at each pattern vertex the union of end-sets is a host clique;
        # at[x] collects the pattern vertices where an end-set holds x
        at: list[set[int]] = [set() for _ in range(self.host.n)]
        for v in range(self.pattern_n):
            union: list[int] = []
            for i, slot in self.incident(v):
                union.extend(self.eta_end[i][slot])
            if len(set(union)) != len(union):
                raise ValueError(f"end-sets at pattern vertex {v} overlap")
            if not self.host.is_clique(union):
                raise ValueError(f"end-set union at pattern vertex {v} is not a clique")
            for x in union:
                at[x].add(v)
        # (S3) a cross-strip edge joins end-sets at a shared pattern vertex
        strip_of = {x: i for i, strip in enumerate(self.eta) for x in strip}
        for x, y in self.host.edges:
            i, j = strip_of[x], strip_of[y]
            if i != j and not at[x] & at[y]:
                raise ValueError(
                    f"host edge ({x},{y}) crosses strips {i},{j} outside end-sets"
                )
        # (S2) bounds every end-set in a union by Delta+1, the size of the
        # largest host clique; a loop's second end-set lies in no union,
        # because `incident` lists a loop once, so the bound is checked here
        delta = self.host.max_degree()
        for i, (left, right) in enumerate(self.eta_end):
            for side in (left, right):
                if len(side) > delta + 1:
                    raise ValueError(f"end-set of strip {i} exceeds Delta+1")

    def strip_graph(self, i: int) -> tuple[Graph, tuple[int, ...]]:
        return self.host.induced_subgraph(self.eta[i])


def trivial_strip_structure(host: Graph) -> StripStructure:
    """|E(pattern)| = 1 with the whole host as the single strip."""
    if not host.is_connected():
        raise ValueError("host must be connected")
    return StripStructure(
        host=host,
        pattern_n=2,
        pattern_edges=((0, 1),),
        eta=(tuple(range(host.n)),),
        eta_end=(((), ()),),
    )


def line_graph_strip_structure(pattern: Graph) -> StripStructure:
    """Host = line graph of the pattern; each strip is a single edge-vertex."""
    host = line_graph(pattern)
    edges = pattern.edges
    return StripStructure(
        host=host,
        pattern_n=pattern.n,
        pattern_edges=edges,
        eta=tuple((i,) for i in range(len(edges))),
        eta_end=tuple(((i,), (i,)) for i in range(len(edges))),
    )


def lci_strip_structure() -> StripStructure:
    """A two-strip structure whose strips are thickened interval graphs,
    glued along a clique at the shared pattern vertex."""
    base = path_graph(3)
    spec = ThickeningSpec(base=base, sizes=(1, 2, 1))
    strip = thickening(spec)  # 4 vertices: 0 | 1,2 | 3
    k = strip.n
    # host: two copies, joined completely between end blocks {3} and {0'}
    edges = list(strip.edges)
    edges += [(u + k, v + k) for u, v in strip.edges]
    left_end = (3,)
    right_start = (k,)
    edges += [(a, b) for a in left_end for b in right_start]
    host = Graph(2 * k, edges)
    return StripStructure(
        host=host,
        pattern_n=3,
        pattern_edges=((0, 1), (1, 2)),
        eta=(tuple(range(k)), tuple(range(k, 2 * k))),
        eta_end=((((0,), left_end)), ((right_start, (2 * k - 1,)))),
    )


def parallel_edge_strip_structure() -> StripStructure:
    """Two parallel pattern edges between the same pair of vertices."""
    strip = path_graph(3)
    k = strip.n
    edges = list(strip.edges)
    edges += [(u + k, v + k) for u, v in strip.edges]
    edges += [(0, k), (k - 1, 2 * k - 1)]
    host = Graph(2 * k, edges)
    return StripStructure(
        host=host,
        pattern_n=2,
        pattern_edges=((0, 1), (0, 1)),
        eta=(tuple(range(k)), tuple(range(k, 2 * k))),
        eta_end=((((0,), (k - 1,))), (((k,), (2 * k - 1,)))),
    )


def strip_structure_instance(kind: str) -> StripStructure:
    """Named structures used by the assembly tests; all pass the validator."""
    if kind == "trivial_single_edge":
        ss = trivial_strip_structure(path_graph(4))
    elif kind.startswith("line_graph_of:"):
        name = kind.split(":", 1)[1]
        patterns = {
            "triangle": cycle_graph(3),
            "k13": star_graph(3),
            "c5": cycle_graph(5),
            "p4": path_graph(4),
        }
        if name not in patterns:
            raise ValueError(f"unknown line-graph pattern {name!r}")
        ss = line_graph_strip_structure(patterns[name])
    elif kind == "lci_strips":
        ss = lci_strip_structure()
    elif kind == "parallel_edges":
        ss = parallel_edge_strip_structure()
    else:
        raise ValueError(f"unknown strip structure kind {kind!r}")
    ss.validate()
    return ss
