"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are 0..n-1; every set order and tie-break in the toolkit derives
from ascending id order, so "lexicographically minimum" choices are
deterministic.  A graph is its vertex count and one neighbour bitmask per
vertex; edge lists and neighbour tuples are read off the masks.  The tree
decomposition type lives here too, so the file formats and the validators
can read one without importing the code that builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional


class CapExceeded(RuntimeError):
    """An instance is larger than the configured cap for an exact search."""


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of its node budget before finishing."""


def lex_key(vs: Iterable[int]) -> tuple[int, ...]:
    """Sorted-id sequence used for all lexicographic comparisons of vertex sets."""
    return tuple(sorted(vs))


def mask_of(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Finite simple undirected graph, frozen after construction."""

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at {u} not allowed in a simple graph")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as (low, high), in ascending order."""
        return tuple(
            (u, v) for u, nbrs in enumerate(self._masks) for v in bits(nbrs >> u << u)
        )

    @property
    def m(self) -> int:
        return sum(nbrs.bit_count() for nbrs in self._masks) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._masks[v]))

    def neighbor_mask(self, v: int) -> int:
        return self._masks[v]

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def max_degree(self) -> int:
        return max((nbrs.bit_count() for nbrs in self._masks), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _check_vertices(self, vs: Iterable[int]) -> tuple[int, ...]:
        t = lex_key(vs)
        for v in t:
            if not (0 <= v < self.n):
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        if len(set(t)) != len(t):
            raise ValueError("duplicate vertices in set")
        return t

    # -- neighborhoods and connectivity ----------------------------------

    def neighborhood(self, x: Iterable[int]) -> tuple[int, ...]:
        """The closed neighbourhood N[x]: x and every vertex adjacent to it."""
        xs = mask_of(self._check_vertices(x))
        return tuple(bits(xs | self._adjacent(xs)))

    def _adjacent(self, mask: int) -> int:
        """Union of the neighbour masks of the vertices in `mask`."""
        masks = self._masks
        out = 0
        while mask:
            low = mask & -mask
            out |= masks[low.bit_length() - 1]
            mask ^= low
        return out

    def reach_mask(self, seed: int, allowed: int) -> int:
        """Vertices of `allowed` reachable from `seed & allowed` inside `allowed`.

        Breadth-first over masks: each round expands only the frontier (the
        vertices added by the previous round), so every reached vertex has its
        neighbour mask read once, O(|reach| + rounds) big-int operations.
        """
        cur = frontier = seed & allowed
        while frontier:
            frontier = self._adjacent(frontier) & allowed & ~cur
            cur |= frontier
        return cur

    def component_masks(self, allowed: int) -> list[int]:
        """Connected components of the induced subgraph on `allowed`, by min id."""
        comps = []
        rest = allowed
        while rest:
            seed = rest & -rest
            comp = self.reach_mask(seed, allowed)
            comps.append(comp)
            rest &= ~comp
        return comps

    def components(self, s: Iterable[int]) -> list[tuple[int, ...]]:
        """Partition of s into the connected components of the subgraph it
        induces.

        Components come back in lexicographic order of their sorted id
        sequences, which coincides with ascending minimum id.
        """
        allowed = mask_of(self._check_vertices(s))
        return [tuple(bits(c)) for c in self.component_masks(allowed)]

    def is_connected_mask(self, mask: int) -> bool:
        """Whether the vertices of `mask` induce a connected subgraph; the
        empty set is not connected."""
        return mask != 0 and self.reach_mask(mask & -mask, mask) == mask

    def is_connected(self) -> bool:
        return self.is_connected_mask(self.full_mask())

    def bfs_distances(self, source: int, allowed: int) -> list[int]:
        """Distances from source within `allowed` (-1 for unreachable)."""
        dist = [-1] * self.n
        if not allowed >> source & 1:
            return dist
        dist[source] = 0
        frontier = 1 << source
        seen = frontier
        d = 0
        while frontier:
            d += 1
            nxt = self._adjacent(frontier) & allowed & ~seen
            for v in bits(nxt):
                dist[v] = d
            seen |= nxt
            frontier = nxt
        return dist

    def shortest_path(self, u: int, v: int, allowed: int) -> Optional[tuple[int, ...]]:
        """Lexicographically minimal shortest u-v path within `allowed`;
        shortest paths are induced."""
        dist = self.bfs_distances(u, allowed)
        if dist[v] < 0:
            return None
        path = [v]
        cur = v
        while cur != u:
            cur = next(w for w in bits(self._masks[cur]) if dist[w] == dist[cur] - 1)
            path.append(cur)
        return tuple(reversed(path))

    def induced_subgraph(self, s: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph with dense ids plus the sorted original-id map."""
        vs = self._check_vertices(s)
        index = {v: i for i, v in enumerate(vs)}
        keep = mask_of(vs)
        sub_edges = [
            (i, index[w])
            for i, v in enumerate(vs)
            for w in bits(self._masks[v] & keep >> v << v)
        ]
        return Graph(len(vs), sub_edges), vs

    def is_clique(self, s: Iterable[int]) -> bool:
        vs = self._check_vertices(s)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree (nodes 0..k-1) with one bag of graph vertices per node."""

    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        k = len(self.bags)
        for a, b in self.tree_edges:
            if not (0 <= a < k and 0 <= b < k) or a == b:
                raise ValueError("tree edge out of range")
        if k > 0 and len(self.tree_edges) != k - 1:
            raise ValueError("a tree on k nodes has exactly k-1 edges")

    @property
    def n_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


# -- derived constructions ------------------------------------------------


def disjoint_union(*parts: Graph) -> Graph:
    """Disjoint union; vertex ids of later parts are shifted up."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in parts:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


def line_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edge list of the line graph of the simple graph on 0..n-1 with the
    given edges: line-graph vertex i is the i-th edge in sorted order, each
    written (low, high), and two are adjacent when they share an end."""
    ordered = sorted((u, v) if u < v else (v, u) for u, v in edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ordered):
        incident[u].append(i)
        incident[v].append(i)
    return [pair for ends in incident for pair in combinations(ends, 2)]


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g, ordered by the sorted edge pairs."""
    return Graph(g.m, line_edges(g.n, g.edges))


def subdivided_edges(
    n: int, edges: Iterable[tuple[int, int]], extra: Iterable[int]
) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list after putting extra[i] new vertices on
    edge i (u, v): the path u, new..., v, its new vertices numbered from n
    on, edge by edge."""
    out: list[tuple[int, int]] = []
    for (u, v), k in zip(edges, extra):
        chain = [u, *range(n, n + k), v]
        n += k
        out.extend(zip(chain, chain[1:]))
    return n, out


def subdivide(g: Graph, lengths: Mapping[tuple[int, int], int]) -> Graph:
    """Replace each edge by a path of the given length (missing edges keep 1).

    New vertices are appended after the originals, processing edges in
    sorted order; a graph with all lengths 1 is an identical copy.
    """
    present = set(g.edges)
    norm: dict[tuple[int, int], int] = {}
    for (u, v), ell in lengths.items():
        e = (u, v) if u < v else (v, u)
        if e not in present:
            raise ValueError(f"{e} is not an edge of the graph")
        if ell < 1:
            raise ValueError("subdivision length must be positive")
        norm[e] = ell
    extra = [norm.get(e, 1) - 1 for e in g.edges]
    return Graph(*subdivided_edges(g.n, g.edges, extra))


def full_subdivision(g: Graph) -> Graph:
    """Subdivide every edge to length 2."""
    return subdivide(g, {e: 2 for e in g.edges})


def clique_number(g: Graph) -> int:
    """Exact clique number by branch and bound with a greedy colouring bound."""
    best = 0

    def greedy_order(cand: int) -> list[tuple[int, int]]:
        # colour classes give an upper bound on the clique inside cand
        order: list[tuple[int, int]] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, colour))
                avail &= ~g.neighbor_mask(v) & ~(1 << v)
                rest &= ~(1 << v)
        return order

    def expand(cand: int, size: int) -> None:
        nonlocal best
        order = greedy_order(cand)
        for v, colour in reversed(order):
            if size + colour <= best:
                return
            expand(cand & g.neighbor_mask(v), size + 1)
            if size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    expand(g.full_mask(), 0)
    return best


def geometric_ball_bound(delta: int, radius: int) -> int:
    """1 + delta + ... + delta**radius, the max ball size at a given degree."""
    return sum(delta**i for i in range(radius + 1))
