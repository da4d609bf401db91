"""The certificate checker stays apart from the code that produces verdicts.

A rechecker that calls a producer confirms that producer's bugs, so
`check.py`, which holds every validator, may import only the graph core and
the JSON reader; `certify.py`, which builds certificates, adds only `check`.
A witness kind with no validator of its own is a problem, never a pass.  The
package's imports form one acyclic order, all at module level, so no module
reaches another through a call-time import.
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
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert _imported(ast.walk(fn)) == set(), f"{path.name}: {fn.name}"
        imports[path.stem] = package_imports(path.read_text())
    try:
        list(TopologicalSorter(imports).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle {exc.args[1]}")


def test_recheckers_cover_only_the_written_kinds():
    assert set(_RECHECKERS) == {"td-valid", "equal", "pattern-found"}


@pytest.mark.parametrize(
    "witness",
    [
        {"kind": "breaks", "graph": {"n": 2, "edges": [[0, 1]]}, "x": [0], "y": [1]},
        {"kind": "no-separator-up-to-size", "graph": {"n": 1, "edges": []},
         "weights": {"0": "1"}, "c": "1/2", "size": 0},
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
