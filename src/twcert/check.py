"""Validators: the tree-decomposition check and certificate recheck.

A verdict is worth only as much as a checker that shares no code with the
code that produced it, so this module imports only the graph core and the
JSON reader.  `recheck` re-validates each pass/fail record of a certificate
from its stored witness, reading every witness integer by the rule of
`io.integer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .graphs import Graph, TreeDecomposition, mask_of
from .io import graph_from_json, integer, integers

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
BUDGET = "budget"

STATUSES = {PASS, FAIL, HYPOTHESIS_UNMET, BUDGET}


@dataclass(frozen=True)
class TdReport:
    ok: bool
    width: int
    violations: tuple[str, ...]


def validate_td(g: Graph, td: TreeDecomposition) -> TdReport:
    """Check the three tree-decomposition properties exhaustively."""
    problems: list[str] = []
    if td.n_nodes == 0:
        return TdReport(g.n == 0, -1, ("decomposition has no nodes",) if g.n else ())
    tadj: list[list[int]] = [[] for _ in range(td.n_nodes)]
    for a, b in td.tree_edges:
        tadj[a].append(b)
        tadj[b].append(a)

    def tree_connects(nodes: list[int]) -> bool:
        seen = {nodes[0]}
        stack = [nodes[0]]
        node_set = set(nodes)
        while stack:
            for w in tadj[stack.pop()]:
                if w in node_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(nodes)

    if not tree_connects(list(range(td.n_nodes))):
        problems.append("decomposition tree is not connected")
    covered = set()
    for bag in td.bags:
        for v in bag:
            if not 0 <= v < g.n:
                problems.append(f"bag vertex {v} out of range")
            covered.add(v)
    for v in g.vertices:
        if v not in covered:
            problems.append(f"vertex {v} in no bag")
    bag_masks = [mask_of(v for v in b if 0 <= v < g.n) for b in td.bags]
    for u, v in g.edges:
        need = 1 << u | 1 << v
        if not any(bm & need == need for bm in bag_masks):
            problems.append(f"edge ({u},{v}) inside no bag")
    for v in g.vertices:
        nodes = [t for t in range(td.n_nodes) if bag_masks[t] >> v & 1]
        if nodes and not tree_connects(nodes):
            problems.append(f"bags containing vertex {v} induce a disconnected subtree")
    return TdReport(not problems, td.width, tuple(problems))


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
    g = graph_from_json(w["graph"])
    pattern = graph_from_json(w["pattern"])
    mapping = integers(w["mapping"], "mapping entry")
    if (
        len(set(mapping)) != len(mapping)
        or len(mapping) != pattern.n
        or not all(0 <= v < g.n for v in mapping)
    ):
        return False
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if pattern.has_edge(i, j) != g.has_edge(mapping[i], mapping[j]):
                return False
    return True


def _recheck_equal(w: dict[str, Any]) -> bool:
    return w["got"] == w["expected"]


# One validator per witness kind that twcert writes; a record of any other
# kind is reported as a problem by `recheck`.
_RECHECKERS: dict[str, Callable[[dict[str, Any]], bool]] = {
    "td-valid": _recheck_td,
    "pattern-found": _recheck_pattern_found,
    "equal": _recheck_equal,
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
    """Re-validate every pass/fail assertion from its stored witness.

    Returns (checked, confirmed, problems).  Assertions whose witness has a
    `kind` key are dispatched to the matching validator; records without a
    re-checkable witness are skipped, and malformed records are problems.
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
