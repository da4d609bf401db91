"""Machine-checkable certificates: the builders.

A certificate is a flat JSON document: a command echo, input hashes, and a
list of assertion records.  `Certificate.assertions` holds those records as
written: dicts keyed `check`, `description`, `status` and `witness`.
`check.recheck` re-derives a record whose witness names a `kind`; one that
stores only `got` and `expected` is attested.  Serialization is canonical,
so identical runs are byte-identical.  This module only writes
certificates; the validators live in `check`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

from .check import EXIT_CODE, status_of
from .graphs import Graph, TreeDecomposition
from .io import graph_to_json


def worst(codes: Iterable[int]) -> int:
    """A run's exit code from its results' codes: 1 above 2 above 0; 0 for none."""
    return max(codes, key=(0, 2, 1).index, default=0)


@dataclass
class Certificate:
    command: list[str]
    seed: int
    inputs: dict[str, str] = field(init=False, default_factory=dict)
    assertions: list[dict[str, Any]] = field(init=False, default_factory=list)

    def add(
        self,
        check_id: str,
        description: str,
        ok: bool,
        witness: dict[str, Any],
        hypothesis_met: bool = True,
    ) -> None:
        self.assertions.append({
            "check": check_id,
            "description": description,
            "status": status_of(ok, hypothesis_met),
            "witness": witness,
        })

    def expect(
        self,
        check_id: str,
        description: str,
        got: Any,
        expected: Any,
        hypothesis_met: bool = True,
    ) -> None:
        """Record an attested `got == expected`: its witness names no kind,
        so `recheck` does not re-derive it."""
        self.add(
            check_id,
            description,
            got == expected,
            {"got": got, "expected": expected},
            hypothesis_met,
        )

    def record_input(self, name: str, payload: Any) -> None:
        self.inputs[name] = sha256_of(payload)

    @property
    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in sorted(EXIT_CODE)}
        for a in self.assertions:
            out[a["status"]] += 1
        return out

    def exit_code(self) -> int:
        return worst(EXIT_CODE[a["status"]] for a in self.assertions)

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "summary": self.counts,
            "assertions": self.assertions,
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


def td_witness(g: Graph, td: TreeDecomposition, width_at_most: int) -> dict[str, Any]:
    """The `td-valid` witness: td decomposes g with width at most the bound."""
    return {
        "kind": "td-valid",
        "graph": graph_witness(g),
        "bags": [list(b) for b in td.bags],
        "tree_edges": [list(e) for e in td.tree_edges],
        "width_at_most": width_at_most,
    }
