"""The certificate checker stays apart from the code that produces verdicts.

A rechecker that calls a producer confirms that producer's bugs, so
`certify.py` may import only the decomposition validator, the graph type and
the JSON reader, and a witness kind with no validator of its own is a
problem, never a pass.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from twcert.certify import _RECHECKERS
from twcert.cli import main

CERTIFY = Path(__file__).resolve().parent.parent / "src" / "twcert" / "certify.py"
PRODUCERS = {"detect", "separators", "centralbag", "suites", "generators", "cli"}


def package_imports(source: str) -> set[str]:
    """Names of the `twcert` modules a module imports directly."""
    dotted: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(
                p for p in ("twcert" if node.level else "", node.module or "") if p
            )
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("twcert.")}


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
    imported = package_imports(CERTIFY.read_text())
    assert imported & PRODUCERS == set()
    assert imported == {"decompose", "graphs", "io"}


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
