"""Verdicts of finished jobs and their checks against references and witnesses.

A verdict is the part of a job's result that must not change between
commits: the exit code plus, per kind,
  verify      the (check, status) pairs of the certificate,
  centralbag  the bag and the (check, status) pairs,
  detect      found/absent and the image,
  tw          the exact width or the (lower, upper) bound pair.
A job that raises has the verdict {"raises": <exception class>}.

Witnesses are validated here without twcert: detect mappings against the
host's adjacency in networkx, and .td decompositions with this module's own
cover and subtree tests.  Certificates are rechecked with `twcert recheck`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Optional

from jobs import Job


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def file_sha256(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _statuses(cert: dict) -> str:
    return digest([[a["check"], a["status"]] for a in cert.get("assertions", [])])


def certificate_of(job: Job, data: dict) -> Optional[dict]:
    if job.kind == "verify":
        return data
    if job.kind in ("centralbag", "tw"):
        return data.get("certificate")
    return None


def verdict(job: Job, rc: Optional[int], raised: Optional[str], out_path: str) -> dict:
    if raised is not None:
        return {"raises": raised}
    out: dict[str, Any] = {"rc": rc}
    if not os.path.exists(out_path):
        out["output"] = None
        return out
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    if job.kind == "verify":
        out["statuses"] = _statuses(data)
    elif job.kind == "centralbag":
        out["bag"] = data.get("bag")
        out["statuses"] = _statuses(data.get("certificate", {}))
    elif job.kind == "detect":
        out["status"] = data.get("status")
        if "image" in data:
            out["image"] = data["image"]
    elif job.kind == "tw":
        out["exact"] = data.get("exact")
        out["bounds"] = [data.get("lower"), data.get("upper")]
    return out


# -- independent witness checks --------------------------------------------------


def _nx_graph(path: str):
    import networkx as nx

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    g = nx.Graph()
    g.add_nodes_from(range(data["n"]))
    g.add_edges_from(tuple(e) for e in data["edges"])
    return g


def _path_edges(p: list[int]) -> set[frozenset]:
    return {frozenset(e) for e in zip(p, p[1:])}


def check_detect(job: Job, data: dict, host_path: str) -> list[str]:
    """A found theta/pyramid must induce exactly its roles' edges in the host;
    an absent pyramid needs a triangle-free host to be confirmed here."""
    import networkx as nx

    g = _nx_graph(host_path)
    pattern = job.argv[job.argv.index("--pattern") + 1]
    t = int(job.argv[job.argv.index("--t") + 1])
    if data.get("status") == "absent":
        if pattern == "pyramid" and sum(nx.triangles(g).values()) == 0:
            return []
        if pattern == "pyramid":
            return ["absent pyramid in a host with triangles is not confirmed"]
        return []  # an absent theta has no witness to check
    roles = data.get("roles", {})
    paths = [roles[k] for k in sorted(roles) if k.startswith("path")]
    image = set(data["image"])
    expected: set[frozenset] = set()
    for p in paths:
        expected |= _path_edges(p)
    problems = []
    if len(paths) != 3:
        problems.append("expected three paths")
    if pattern == "theta":
        a, b = roles["ends"]
        if g.has_edge(a, b):
            problems.append("theta ends are adjacent")
        for p in paths:
            if {p[0], p[-1]} != {a, b} or len(p) - 1 < t:
                problems.append(f"bad theta path {p}")
        interiors = [set(p[1:-1]) for p in paths]
    else:
        (apex,) = roles["apex"]
        tri = roles["triangle"]
        expected |= {frozenset((x, y)) for x in tri for y in tri if x != y}
        lengths = sorted(len(p) - 1 for p in paths)
        if lengths[1] < 2 or lengths[0] < t:
            problems.append(f"bad pyramid path lengths {lengths}")
        for p in paths:
            if p[0] != apex or p[-1] not in tri:
                problems.append(f"bad pyramid path {p}")
        interiors = [set(p[1:]) for p in paths]
    if sum(len(s) for s in interiors) != len(set().union(*interiors)):
        problems.append("paths share interior vertices")
    got = {frozenset(e) for e in g.subgraph(image).edges}
    if got != expected:
        problems.append("image does not induce exactly the witness edges")
    if set().union(*(set(p) for p in paths)) != image:
        problems.append("image differs from the witness vertices")
    return problems


def read_td(path: str) -> tuple[list[set[int]], list[tuple[int, int]]]:
    bags: dict[int, set[int]] = {}
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] in ("c", "s"):
                continue
            if parts[0] == "b":
                bags[int(parts[1]) - 1] = {int(x) - 1 for x in parts[2:]}
            else:
                edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    return [bags[i] for i in range(len(bags))], edges


def check_td(host_path: str, td_path: str, width: int) -> list[str]:
    """Bag cover of vertices and edges, a tree on the bags, connected
    occurrence subtrees, and the claimed width."""
    import networkx as nx

    g = _nx_graph(host_path)
    bags, tree_edges = read_td(td_path)
    problems = []
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bags)))
    tree.add_edges_from(tree_edges)
    if not bags or not nx.is_tree(tree):
        problems.append("decomposition tree is not a tree")
    covered = set().union(*bags) if bags else set()
    if covered != set(g.nodes):
        problems.append("some vertex is in no bag")
    for u, v in g.edges:
        if not any(u in b and v in b for b in bags):
            problems.append(f"edge ({u},{v}) is in no bag")
            break
    for x in g.nodes:
        holding = [i for i, b in enumerate(bags) if x in b]
        if holding and not nx.is_connected(tree.subgraph(holding)):
            problems.append(f"bags holding {x} are not a subtree")
            break
    if max((len(b) for b in bags), default=0) - 1 != width:
        problems.append("claimed width differs from the largest bag")
    return problems


def check_tw(host_path: str, td_path: str, data: dict) -> list[str]:
    from networkx.algorithms.approximation import treewidth_min_fill_in

    problems = check_td(host_path, td_path, data["upper"])
    if data["lower"] > data["upper"]:
        problems.append("lower bound above upper bound")
    heuristic, _ = treewidth_min_fill_in(_nx_graph(host_path))
    if data.get("exact") is not None and data["exact"] > heuristic:
        problems.append(f"exact width {data['exact']} above networkx bound {heuristic}")
    return problems
