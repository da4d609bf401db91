"""`cli.main` reuses one parser, built at import, for every call.

A run of calls in one process must behave exactly like a fresh
`python -m twcert.cli` process per call: the same exit code, standard
output, standard error and output file bytes.  Each command's call in a fresh
process is also the one that imports that command's modules.  The calls are
ordered so that state a parse leaked (an appended `--forcer` list, a
`--seed`) would reach the call after it.  A second test counts `ArgumentParser` constructions
across `main` calls: there are none.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from twcert.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# (argv, the output files it writes); OUT is the output directory
CALLS = [
    (["gen", "pyramid", "-o", "OUT/pyr.json", "--witness", "OUT/pyr.wit.json"],
     ["pyr.json", "pyr.wit.json"]),
    (["detect", "--pattern", "theta", "-i", "wall.json", "-o", "OUT/det.json"],
     ["det.json"]),
    (["tw", "-i", "wall.json", "--td", "OUT/wall.td"], ["wall.td"]),
    (["sep", "-i", "claw.json", "-o", "OUT/sep.json"], ["sep.json"]),
    (["decompose", "--method", "chordal", "-i", "claw.json", "--td", "OUT/claw.td",
      "-o", "OUT/dec.json"], ["claw.td", "dec.json"]),
    (["tw", "--input"], []),
    (["--help"], []),
    (["centralbag", "-i", "wall.json", "--pattern", "p2.json",
      "--forcer", "claw.json", "--forcer", "theta.json", "-o", "OUT/cb2.json"],
     ["cb2.json"]),
    (["recheck", "-i", "OUT/cb2.json", "-o", "OUT/rc.json"], ["rc.json"]),
    (["centralbag", "-i", "wall.json", "--pattern", "p2.json", "-o", "OUT/cb0.json"],
     ["cb0.json"]),
    (["--seed", "3", "verify", "creatures", "-o", "OUT/seeded.json"], ["seeded.json"]),
    (["verify", "creatures", "-o", "OUT/default.json"], ["default.json"]),
]


def _inputs(where: Path) -> None:
    (where / "p2.json").write_text('{"n": 2, "edges": [[0, 1]]}')
    for argv in [
        ["gen", "wall", "-o", "wall.json"],
        ["gen", "claw", "-o", "claw.json"],
        ["gen", "theta", "-o", "theta.json"],
    ]:
        assert main([*argv[:-1], str(where / argv[-1])]) == 0


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _fresh_process(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twcert.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # certificates record their relative input paths
    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    for argv, written in CALLS:
        reused = _in_process([a.replace("OUT", "reused") for a in argv])
        fresh = _fresh_process([a.replace("OUT", "fresh") for a in argv], tmp_path)
        assert reused == fresh, argv
        for name in written:
            assert (tmp_path / "reused" / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes(), (argv, name)
    # the calls differ where their arguments do
    assert (tmp_path / "reused" / "cb2.json").read_bytes() != (
        tmp_path / "reused" / "cb0.json"
    ).read_bytes()
    assert (tmp_path / "reused" / "seeded.json").read_bytes() != (
        tmp_path / "reused" / "default.json"
    ).read_bytes()


def test_main_constructs_no_parser(tmp_path, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    g = str(tmp_path / "wall.json")
    for argv in [
        ["gen", "wall", "-o", g],
        ["tw", "-i", g, "-o", str(tmp_path / "tw.json")],
        ["detect", "--pattern", "theta", "-i", g, "-o", str(tmp_path / "d.json")],
        ["tw"],
        ["--help"],
    ]:
        _in_process(argv)
    assert built == []
    argparse.ArgumentParser(prog="probe")  # the count sees a construction
    assert built == ["probe"]
