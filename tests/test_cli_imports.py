"""Each command loads only the modules it runs.

`twcert.cli` imports a command's modules when that command runs, so a
one-shot process pays for no module its command does not use.  Each command
below runs in a fresh interpreter, which then reports the `twcert` modules
in `sys.modules`; the set is pinned exactly.  Only `verify` loads `suites`,
and through it every module.  Because `verify --help` no longer lists the
suites, an unknown suite name must list them instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twcert.cli import USAGE_ERROR, main
from twcert.suites import SUITES

SRC = Path(__file__).resolve().parents[1] / "src"

# what `main` and its shared readers and writers need, loaded by every command
LOADED_BY_CLI = {"certify", "check", "cli", "config", "graphs", "io", "weights"}
EVERY_MODULE = {
    path.stem for path in (SRC / "twcert").glob("*.py") if path.stem != "__init__"
}

# command -> the modules a fresh process has loaded after running it
LOADS = {
    "gen wall -o out.json": LOADED_BY_CLI | {"generators"},
    "detect --pattern theta -i wall.json -o out.json":
        LOADED_BY_CLI | {"detect", "generators"},
    "tw -i wall.json -o out.json": LOADED_BY_CLI | {"separators"},
    "sep -i claw.json -o out.json": LOADED_BY_CLI | {"separators"},
    "centralbag -i wall.json --pattern p2.json -o out.json":
        LOADED_BY_CLI | {"centralbag", "detect", "generators", "separators"},
    "decompose --method chordal -i claw.json -o out.json":
        LOADED_BY_CLI | {"decompose", "generators", "separators"},
    "verify creatures -o out.json": EVERY_MODULE,
    "recheck -i tw.json -o out.json": LOADED_BY_CLI,
}

# runs `main` on argv, then prints the loaded `twcert` modules as JSON
REPORT = (
    "import json, sys\n"
    "from twcert.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m.split('.')[1] for m in sys.modules\n"
    "                  if m.startswith('twcert.'))]))\n"
)


def _fresh(argv: list[str], cwd: Path) -> tuple[int, set[str]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("inputs")
    (where / "p2.json").write_text('{"n": 2, "edges": [[0, 1]]}')
    for argv in [
        ["gen", "wall", "-o", "wall.json"],
        ["gen", "claw", "-o", "claw.json"],
        ["tw", "-i", "wall.json", "-o", "tw.json"],
    ]:
        assert main([str(where / a) if a.endswith(".json") else a for a in argv]) == 0
    return where


@pytest.mark.parametrize("command", sorted(LOADS), ids=lambda c: c.split()[0])
def test_a_command_loads_only_its_modules(inputs, command):
    code, modules = _fresh(command.split(), inputs)
    assert code in (0, 1, 2)
    assert modules == LOADS[command]


def test_unknown_suite_names_every_suite(capsys):
    assert main(["verify", "nosuch"]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "nosuch" in err
    for name in SUITES:
        assert name in err, name
