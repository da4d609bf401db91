"""Validators: the tree-decomposition check, the subdivision classifier and
certificate recheck.

A verdict is worth only as much as a checker that shares no code with the
code that produced it, so this module imports only the graph core and the
JSON reader.  `recheck` re-derives each pass/fail record whose witness names
a kind, reading every witness integer by the rule of `io.integer`; a record
with no kind is attested, not re-derived.  The subdivision classifier checks
`pattern-found` records, and `verify detectors` checks the detectors by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import inf
from typing import Any, Callable, Optional, Sequence

from .graphs import Graph, TreeDecomposition, bits, mask_of
from .io import graph_from_json, integer, integers

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
BUDGET = "budget"

STATUSES = {PASS, FAIL, HYPOTHESIS_UNMET, BUDGET}


def status_of(holds: object, hypothesis_met: bool) -> str:
    """Hypothesis-unmet, else pass exactly when the result holds (is truthy)."""
    if not hypothesis_met:
        return HYPOTHESIS_UNMET
    return PASS if holds else FAIL


@dataclass(frozen=True)
class TdReport:
    ok: bool
    width: int
    violations: tuple[str, ...]


def validate_td(g: Graph, td: TreeDecomposition) -> TdReport:
    """Check the three tree-decomposition properties exhaustively.

    The tree is a `Graph` on the nodes, and each vertex's tree nodes form one
    mask: a vertex is covered when its mask is non-empty, an edge when its
    ends' masks meet, and a subtree is connected when its mask is.  The
    violations keep one order: the tree, out-of-range bag vertices bag by
    bag, then uncovered vertices, uncovered edges and disconnected subtrees.
    """
    problems: list[str] = []
    if td.n_nodes == 0:
        return TdReport(g.n == 0, -1, ("decomposition has no nodes",) if g.n else ())
    tree = Graph(td.n_nodes, td.tree_edges)
    if not tree.is_connected():
        problems.append("decomposition tree is not connected")
    nodes_of = [0] * g.n
    for t, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                nodes_of[v] |= 1 << t
            else:
                problems.append(f"bag vertex {v} out of range")
    for v in g.vertices:
        if not nodes_of[v]:
            problems.append(f"vertex {v} in no bag")
    for u, v in g.edges:
        if not nodes_of[u] & nodes_of[v]:
            problems.append(f"edge ({u},{v}) inside no bag")
    for v in g.vertices:
        if nodes_of[v] and not tree.is_connected_mask(nodes_of[v]):
            problems.append(f"bags containing vertex {v} induce a disconnected subtree")
    return TdReport(not problems, td.width, tuple(problems))


# -- the subdivision classifier -----------------------------------------------------

# A shape is a base graph's edge list, each edge (u, v, lo, hi) with u < v: G[vs]
# matches when it subdivides the base graph, edge u-v into a path whose length lies
# in [lo, hi].  Base vertices are 0..k-1, none of degree 2, and parallel edges share
# one range.  The shapes are written out here, not taken from `detect` or
# `generators`, so that the oracle shares no declaration with the code it checks.
Shape = tuple[tuple[int, int, int, float], ...]
THETA_SHAPE: Shape = ((0, 1, 2, inf),) * 3
PYRAMID_SHAPE: Shape = (
    (1, 2, 1, 1), (1, 3, 1, 1), (2, 3, 1, 1),  # the triangle
    (0, 1, 1, inf), (0, 2, 2, inf), (0, 3, 2, inf),  # apex 0 to it; one edge may stay
)


def claw_shape(lens: tuple[int, int, int]) -> Shape:
    """K1,3 with legs of exactly these lengths; a path when the first is 0."""
    t1, t2, t3 = lens
    if t1 == 0:
        return ((0, 1, t2 + t3, t2 + t3),)
    return tuple((0, leaf, t, t) for leaf, t in enumerate(lens, 1))


def _branch_paths(
    g: Graph, vs: Sequence[int], branch: list[int]
) -> Optional[list[tuple[int, int, int]]]:
    """(end, end, length) for each path of G[vs] between its branch
    vertices; None when a vertex lies on no path.  Every vertex of vs
    outside `branch` has degree 2 in G[vs], so the components it leaves are
    the paths' interiors, or cycles that touch no branch vertex."""
    paths = [(a, b, 1) for a, b in combinations(branch, 2) if g.has_edge(a, b)]
    branch_mask = mask_of(branch)
    for inner in g.components(v for v in vs if not branch_mask >> v & 1):
        ends = [u for v in inner for u in bits(g.neighbor_mask(v) & branch_mask)]
        if not ends:
            return None
        paths.append((*ends, len(inner) + 1))
    return paths


def is_subdivision_set(g: Graph, vs: Sequence[int], shape: Shape) -> bool:
    """Does G[vs] subdivide the shape's base graph within its length ranges?

    The vertices of degree other than 2 in G[vs], its branch vertices, must
    have the base graph's degrees, so its paths are as many as the base
    edges, and the paths must cover vs.  Some bijection from base vertices
    to branch vertices must then carry the paths onto the base edges, with
    the sorted lengths between each pair inside its sorted ranges; a path
    back to its start matches no base edge.  The bijections number at most
    4! = 24 for the shapes declared here."""
    mask = mask_of(vs)
    degree = [(g.neighbor_mask(v) & mask).bit_count() for v in vs]
    branch_degrees = sorted(d for d in degree if d != 2)
    if sum(branch_degrees) != 2 * len(shape):  # most sets fail here, and cheaply
        return False
    ends = [x for u, v, _, _ in shape for x in (u, v)]
    if branch_degrees != sorted(map(ends.count, set(ends))):
        return False
    branch = [v for v, d in zip(vs, degree) if d != 2]
    paths = _branch_paths(g, vs, branch)
    if paths is None:
        return False
    want = sorted(shape)
    for image in permutations(branch):
        base = {w: i for i, w in enumerate(image)}
        got = sorted((*sorted((base[a], base[b])), n) for a, b, n in paths)
        if all(p[:2] == w[:2] and w[2] <= p[2] <= w[3] for p, w in zip(got, want)):
            return True
    return False


# -- recheck -------------------------------------------------------------------


def _recheck_td(w: dict[str, Any]) -> bool:
    g = graph_from_json(w["graph"])
    td = TreeDecomposition(
        bags=tuple(integers(b, "bag vertex") for b in w["bags"]),
        tree_edges=tuple(integers(e, "tree edge end") for e in w["tree_edges"]),
    )
    bound = integer(w["width_at_most"], "width_at_most")
    rep = validate_td(g, td)
    return rep.ok and rep.width <= bound


def _recheck_pattern_found(w: dict[str, Any]) -> bool:
    """Is G[image] a subdivision of `shape`, whose edges are written
    `[u, v, lo, hi]` with hi null when unbounded, on at most 4 base vertices?"""
    g = graph_from_json(w["graph"])
    image = integers(w["image"], "image entry")
    shape = tuple(
        (*integers((u, v, lo), "shape entry"), inf if hi is None else integer(hi, "shape entry"))
        for u, v, lo, hi in w["shape"]
    )
    ends = [x for u, v, _, _ in shape for x in (u, v)]
    if (
        set(ends) not in [set(range(k)) for k in (2, 3, 4)]
        or not all(u < v for u, v, _, _ in shape)
        or 2 in map(ends.count, set(ends))
        or len(set(shape)) != len({(u, v) for u, v, _, _ in shape})
    ):
        raise ValueError(f"malformed shape {w['shape']!r}")
    if len(set(image)) < len(image) or not all(0 <= v < g.n for v in image):
        return False
    return is_subdivision_set(g, image, shape)


# One validator per re-derivable witness kind: `td-valid` is written today and
# `pattern-found` is reserved for witnessed detections.  A record of any other
# kind is reported as a problem by `recheck`.
_RECHECKERS: dict[str, Callable[[dict[str, Any]], bool]] = {
    "td-valid": _recheck_td,
    "pattern-found": _recheck_pattern_found,
}


def _is_record(a: Any) -> bool:
    """An assertion record of the shape `Certificate.to_json` writes."""
    return (
        isinstance(a, dict)
        and isinstance(a.get("check"), str)
        and isinstance(a.get("status"), str)
        and a["status"] in STATUSES
        and isinstance(a.get("witness", {}), dict)
    )


def recheck(cert: dict[str, Any]) -> tuple[int, int, list[str]]:
    """Re-derive every pass/fail assertion whose witness names a kind.

    Returns (checked, confirmed, problems).  Assertions whose witness has a
    `kind` key are dispatched to the matching validator; attested records
    (no `kind`) are not counted, and malformed records are problems.
    """
    checked = 0
    confirmed = 0
    problems: list[str] = []
    for i, a in enumerate(cert.get("assertions", [])):
        if not _is_record(a):
            problems.append(
                f"assertion {i}: not a record with a check, a known status "
                "and a witness object"
            )
            continue
        witness = a.get("witness", {})
        kind = witness.get("kind")
        if kind is None or a["status"] not in (PASS, FAIL):
            continue
        fn = _RECHECKERS.get(kind) if isinstance(kind, str) else None
        if fn is None:
            problems.append(f"{a['check']}: no validator for witness kind {kind!r}")
            continue
        checked += 1
        try:
            outcome = fn(witness)
        except Exception as exc:  # malformed witness is a recheck failure
            problems.append(f"{a['check']}: recheck error {exc}")
            continue
        expected = a["status"] == PASS
        if outcome == expected:
            confirmed += 1
        else:
            problems.append(
                f"{a['check']}: stored status {a['status']} but witness rechecks as "
                f"{'pass' if outcome else 'fail'}"
            )
    return checked, confirmed, problems
