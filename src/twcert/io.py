"""File formats: canonical JSON graphs, PACE-style .gr, and PACE 2017 .td."""

from __future__ import annotations

import json
from typing import Any, TextIO

from .graphs import Graph, TreeDecomposition


def integer(x: Any, what: str) -> int:
    """x itself when it is a JSON integer; nothing is converted.
    `type(x) is int` keeps out floats, strings and booleans (bool subclasses
    int)."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def integers(xs: Any, what: str) -> tuple[int, ...]:
    """Each entry of a JSON list by the rule of `integer`."""
    return tuple(integer(x, what) for x in xs)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(data: dict) -> Graph:
    """`n` and every edge end must be JSON integers (see `integer`), and
    every edge a list of exactly two ends."""
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must be an object {"n": int, "edges": [[u,v],...]}')
    n, edges = integer(data["n"], "n"), data["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"edges must be a list, got {edges!r}")
    for e in edges:
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise ValueError(f"edge {e!r} must be a list of two integers")
    return Graph(n, [tuple(e) for e in edges])


def write_graph_json(g: Graph, fh: TextIO) -> None:
    json.dump(graph_to_json(g), fh, separators=(",", ":"))
    fh.write("\n")


def read_graph_json(fh: TextIO) -> Graph:
    return graph_from_json(json.load(fh))


def write_gr(g: Graph, fh: TextIO) -> None:
    """PACE .gr text: "p tw n m" header and 1-based edge lines."""
    fh.write(f"p tw {g.n} {g.m}\n")
    for u, v in g.edges:
        fh.write(f"{u + 1} {v + 1}\n")


def read_gr(fh: TextIO) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "tw":
                raise ValueError(f"line {lineno}: malformed problem line")
            n = int(parts[2])
        else:
            if n is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two endpoints")
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            edges.append((u, v))
    if n is None:
        raise ValueError("missing 'p tw' problem line")
    return Graph(n, edges)


def write_td(td, n_graph: int, fh: TextIO) -> None:
    """PACE 2017 .td: "s td <bags> <maxbag> <n>", b-lines, 1-based tree edges."""
    bags = td.bags
    maxbag = max((len(b) for b in bags), default=0)
    fh.write(f"s td {len(bags)} {maxbag} {n_graph}\n")
    for i, bag in enumerate(bags, 1):
        line = " ".join(str(v + 1) for v in bag)
        fh.write(f"b {i} {line}".rstrip() + "\n")
    for a, b in td.tree_edges:
        fh.write(f"{a + 1} {b + 1}\n")


def read_td(fh: TextIO) -> TreeDecomposition:
    n_bags = None
    bags: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"line {lineno}: malformed solution line")
            n_bags = int(parts[2])
        elif parts[0] == "b":
            idx = int(parts[1]) - 1
            bags[idx] = tuple(sorted(int(v) - 1 for v in parts[2:]))
        else:
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if n_bags is None:
        raise ValueError("missing 's td' solution line")
    if sorted(bags) != list(range(n_bags)):
        raise ValueError("bag ids must be 1..<bags> exactly")
    return TreeDecomposition(
        bags=tuple(bags[i] for i in range(n_bags)), tree_edges=tuple(sorted(edges))
    )
