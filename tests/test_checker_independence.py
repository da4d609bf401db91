"""The certificate checker stays apart from the code that produces verdicts.

A rechecker that calls a producer confirms that producer's bugs, so
`check.py`, which holds every validator, may import only the graph core and
the JSON reader; `certify.py`, which builds certificates, adds only `check`.
A witness kind with no validator of its own is a problem, never a pass.  The
package's imports form one acyclic order.  Every module but `cli` imports at
module level; `cli` imports each command's modules when the command runs, and
no module imports `cli`, so no call-time import hides a cycle.  The shape
oracle the `detectors` suite checks detectors against reads nothing of
`detect` or `generators`.
"""

from __future__ import annotations

import ast
import json
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from twcert.check import _RECHECKERS
from twcert.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "twcert"
PRODUCERS = {
    "detect", "separators", "centralbag", "suites", "generators", "decompose", "cli"
}


def _imported(nodes) -> set[str]:
    """Names of the `twcert` modules the import statements among `nodes` name."""
    dotted: list[str] = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            base = ".".join(
                p for p in ("twcert" if node.level else "", node.module or "") if p
            )
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("twcert.")}


def package_imports(source: str) -> set[str]:
    """Names of the `twcert` modules a module imports directly."""
    return _imported(ast.walk(ast.parse(source)))


def test_package_imports_reads_relative_and_absolute_forms():
    src = (
        "from .graphs import Graph\n"
        "from . import detect\n"
        "from twcert.separators import x\n"
        "from twcert import suites\n"
        "import twcert.cli\n"
        "import json\n"
    )
    assert package_imports(src) == {"graphs", "detect", "separators", "suites", "cli"}


def test_certify_imports_no_producer():
    checker = package_imports((SRC / "check.py").read_text())
    assert checker & PRODUCERS == set()
    assert checker == {"graphs", "io"}
    assert package_imports((SRC / "certify.py").read_text()) == {"check", "graphs", "io"}
    assert package_imports((SRC / "io.py").read_text()) == {"graphs"}


def test_package_imports_are_module_level_and_acyclic():
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if path.stem != "cli" and isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                assert _imported(ast.walk(fn)) == set(), f"{path.name}: {fn.name}"
        imports[path.stem] = package_imports(path.read_text())
    assert [name for name, deps in imports.items() if "cli" in deps] == []
    assert "suites" in imports["cli"]  # a call-time edge is in the order too
    try:
        list(TopologicalSorter(imports).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle {exc.args[1]}")


SHAPE_ORACLE = ("is_subdivision_set", "THETA_SHAPE", "PYRAMID_SHAPE", "claw_shape")


def oracle_reads_of_checked(source: str) -> dict[str, set[str]]:
    """For each module-level definition the shape oracle reaches from
    `SHAPE_ORACLE` through the names it reads, the names it reads that the
    module imports from `detect` or `generators`, where they are not empty."""
    tree = ast.parse(source)
    checked, defs = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if {module, alias.name} & {"detect", "generators"}:
                    checked.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    bad, seen, todo = {}, set(), list(SHAPE_ORACLE)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        read = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        if read & checked:
            bad[name] = read & checked
        todo += read & defs.keys()
    return bad


def test_shape_oracle_reads_nothing_it_checks():
    """The `detectors` suite checks the theta, pyramid and claw detectors
    against the shape oracle, so a declaration the oracle shared with them,
    such as a base edge list, would make it confirm their bugs."""
    assert oracle_reads_of_checked((SRC / "check.py").read_text()) == {}
    shared = (
        "from twcert.generators import _THETA_BASE\n"
        "from . import detect\n"
        "from .graphs import Graph\n"
        "THETA_SHAPE = tuple((u, v, 2, 9) for u, v in _THETA_BASE)\n"
        "PYRAMID_SHAPE = ()\n"
        "def _paths(g):\n    return detect.x(g)\n"
        "def is_subdivision_set(g: Graph, vs, shape):\n    return _paths(g)\n"
        "def claw_shape(lens):\n    return THETA_SHAPE\n"
    )
    assert oracle_reads_of_checked(shared) == {
        "THETA_SHAPE": {"_THETA_BASE"}, "_paths": {"detect"}
    }


def test_recheckers_cover_only_the_written_kinds():
    assert set(_RECHECKERS) == {"td-valid", "pattern-found"}


@pytest.mark.parametrize(
    "witness",
    [
        {"kind": "breaks", "graph": {"n": 2, "edges": [[0, 1]]}, "x": [0], "y": [1]},
        {"kind": "no-separator-up-to-size", "graph": {"n": 1, "edges": []},
         "weights": {"0": "1"}, "c": "1/2", "size": 0},
        # written before attested records lost their kind; now a format error
        {"kind": "equal", "got": 1, "expected": 1},
    ],
    ids=lambda w: w["kind"],
)
def test_recheck_reports_kind_without_validator(tmp_path, witness):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"assertions": [
        {"check": "x", "description": "d", "status": "pass", "witness": witness}
    ]}))
    out = tmp_path / "rc.json"
    assert main(["recheck", "-i", str(cert), "-o", str(out)]) == 1
    assert json.loads(out.read_text()) == {
        "checked": 0,
        "confirmed": 0,
        "problems": [f"x: no validator for witness kind '{witness['kind']}'"],
    }
