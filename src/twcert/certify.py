"""Machine-checkable certificates.

A certificate is a flat JSON document: a command echo, input hashes, and a
list of assertion records.  Each record carries enough witness data to be
re-validated later by `recheck` without redoing the original computation
from scratch; serialization is canonical so identical runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from .decompose import TreeDecomposition, validate_td
from .graphs import Graph
from .io import graph_from_json, graph_to_json

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
BUDGET = "budget"

_STATUSES = {PASS, FAIL, HYPOTHESIS_UNMET, BUDGET}


@dataclass(frozen=True)
class Assertion:
    check_id: str
    description: str
    status: str
    witness: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class Certificate:
    command: list[str]
    seed: int
    inputs: dict[str, str] = field(default_factory=dict)
    assertions: list[Assertion] = field(default_factory=list)

    def add(
        self,
        check_id: str,
        description: str,
        ok: Optional[bool],
        witness: Optional[dict[str, Any]] = None,
        hypothesis_met: bool = True,
    ) -> None:
        if not hypothesis_met:
            status = HYPOTHESIS_UNMET
        elif ok is None:
            status = BUDGET
        else:
            status = PASS if ok else FAIL
        self.assertions.append(
            Assertion(check_id, description, status, witness or {})
        )

    def expect(
        self,
        check_id: str,
        description: str,
        got: Any,
        expected: Any,
        hypothesis_met: bool = True,
    ) -> None:
        """Record an `equal` witness; the status is `got == expected`, the
        same comparison `recheck` makes."""
        self.add(
            check_id,
            description,
            got == expected,
            {"kind": "equal", "got": got, "expected": expected},
            hypothesis_met,
        )

    def record_input(self, name: str, payload: Any) -> None:
        self.inputs[name] = sha256_of(payload)

    @property
    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in sorted(_STATUSES)}
        for a in self.assertions:
            out[a.status] += 1
        return out

    def exit_code(self) -> int:
        c = self.counts
        if c[FAIL]:
            return 1
        if c[BUDGET] or c[HYPOTHESIS_UNMET]:
            return 2
        return 0

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "summary": self.counts,
            "assertions": [
                {
                    "check": a.check_id,
                    "description": a.description,
                    "status": a.status,
                    "witness": a.witness,
                }
                for a in self.assertions
            ],
        }

    def dumps(self) -> str:
        return canonical_json(self.to_json())


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_of(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# -- witness helpers -----------------------------------------------------------


def graph_witness(g: Graph) -> dict[str, Any]:
    return graph_to_json(g)


def weights_witness(w: dict[int, Fraction]) -> dict[str, str]:
    return {str(v): str(x) for v, x in sorted(w.items())}


# -- recheck -------------------------------------------------------------------


def td_witness(g: Graph, td: TreeDecomposition, width_at_most: int) -> dict[str, Any]:
    """The `td-valid` witness: td decomposes g with width at most the bound."""
    return {
        "kind": "td-valid",
        "graph": graph_witness(g),
        "bags": [list(b) for b in td.bags],
        "tree_edges": [list(e) for e in td.tree_edges],
        "width_at_most": width_at_most,
    }


def _recheck_td(w: dict[str, Any]) -> bool:
    g = graph_from_json(w["graph"])
    td = TreeDecomposition(
        bags=tuple(tuple(b) for b in w["bags"]),
        tree_edges=tuple(tuple(e) for e in w["tree_edges"]),
    )
    rep = validate_td(g, td)
    return rep.ok and rep.width <= w["width_at_most"]


def _recheck_pattern_found(w: dict[str, Any]) -> bool:
    g = graph_from_json(w["graph"])
    pattern = graph_from_json(w["pattern"])
    mapping = list(w["mapping"])
    if len(set(mapping)) != len(mapping) or len(mapping) != pattern.n:
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
        and a["status"] in _STATUSES
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
