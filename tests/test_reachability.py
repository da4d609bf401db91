"""Every function and method of the package runs under some command.

One in-process run of `verify all` and of each subcommand (every `gen`
family, every `detect` pattern, `tw` exact with and without a refutation
pass and by bounds, `sep`, `centralbag` with `--weights` and `--forcer`,
all three `decompose` methods, `recheck` of every output that carries a
certificate, and a `--config` file) is profiled.  Every function, method
and nested function defined in `src/twcert` must have been called, or be on
`ALLOWED` with its reason.  A helper that only tests call belongs in the
tests.
"""

from __future__ import annotations

import cProfile
import contextlib
import importlib.util
import inspect
import io
import json
import pkgutil
from pathlib import Path
from types import CodeType

import pytest

import twcert
from conftest import random_graph
from twcert.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TRACED = "wrapped by perfbench/tracing.py, which the benchmark installs"
RESERVED = "reserved for a later re-check (ROADMAP items 4 and 8)"
DUNDER = "a dunder: Python calls it, no command needs to"

# "module.qualname" -> why it may stay although no command calls it
ALLOWED = {
    "weights.WeightFunction.as_dict": TRACED,
    "weights.WeightFunction.to_json": TRACED,
    "weights.WeightFunction.total": TRACED,
    "weights.WeightFunction.w_max": TRACED,
    "weights.WeightFunction.__getitem__": TRACED,
    "io.read_graph_json": TRACED,
    "io.read_td": TRACED,
    "certify.Certificate.dumps": TRACED,
    "centralbag.CentralBagResult.recompute_bag": RESERVED,
    "check._recheck_pattern_found": RESERVED,
    "graphs.Graph.__hash__": DUNDER,
    "graphs.Graph.__repr__": DUNDER,
}


def _defined() -> dict[tuple[str, int, str], str]:
    """(file, first line, qualname) -> "module.qualname" for every named
    function in the package; class bodies, lambdas and comprehensions are
    left out."""
    out = {}
    for mod in pkgutil.iter_modules(twcert.__path__):
        path = str(Path(twcert.__path__[0]) / f"{mod.name}.py")
        todo = [compile(Path(path).read_text(), path, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (path, code.co_firstlineno, code.co_qualname)
                out[key] = f"{mod.name}.{code.co_qualname}"
    return out


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


def _commands(tmp: Path) -> None:
    """Every subcommand once, on inputs the `gen` runs write."""
    f = lambda name: str(tmp / name)  # noqa: E731
    gens = [
        ["wall", "--n", "3", "--m", "3"],
        ["claw", "--t1", "1", "--t2", "1", "--t3", "1"],
        ["theta", "--l1", "2", "--l2", "2", "--l3", "3"],
        ["pyramid", "--l1", "1", "--l2", "2", "--l3", "2"],
        ["caterpillar", "--spine", "3", "--legs", "1;2;1"],
        ["creature", "--k", "2", "--t", "1"],
        ["cycle-lci", "--k", "4", "--size", "2"],
        ["strip", "--kind", "line_graph_of:p4"],
    ]
    for argv in gens:
        name = argv[0]
        assert _run(["gen", *argv, "-o", f(f"{name}.json"),
                     "--witness", f(f"{name}.roles.json")]) == 0
    assert _run(["gen", "wall", "--n", "2", "--m", "2", "-o", f("p.gr")]) == 0
    assert _run(["gen", "wall", "--n", "5", "--m", "5", "-o", f("w55.json")]) == 0
    conf = tmp / "run.conf"
    conf.write_text("# a config file\nsearch_budget=1000000\n")
    path = tmp / "path3.json"
    path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    # contraction degeneracy 7, min-fill width 8: the only input here whose
    # exact run needs a refutation pass
    overshoot = random_graph(12, 0.6, 28)
    (tmp / "overshoot.json").write_text(json.dumps({"n": 12, "edges": overshoot.edges}))

    outputs = []

    def run(argv: list[str], out: str) -> None:
        outputs.append(f(out))
        assert _run([*argv, "-o", f(out)]) in (0, 1, 2)

    for pattern, extra in [
        ("theta", ["--t", "2"]),
        ("pyramid", ["--t", "1"]),
        ("claw", []),
        ("creature", ["--k", "2", "--t", "1"]),
        ("wall-line", ["--k", "2"]),
        ("induced", ["--pattern-file", f("p.gr")]),
    ]:
        run(["--config", str(conf), "detect", "--pattern", pattern, *extra,
             "-i", f("wall.json")], f"detect-{pattern}.json")
    run(["detect", "--pattern", "theta", "--t", "5", "-i", f("theta.json")],
        "detect-absent.json")
    run(["tw", "-i", f("wall.json"), "--td", f("wall.td")], "tw.json")
    run(["tw", "-i", f("w55.json")], "tw-bounds.json")
    run(["tw", "-i", f("overshoot.json")], "tw-overshoot.json")
    run(["sep", "-i", f("claw.json"), "--c", "1/2"], "sep.json")
    n = json.loads((tmp / "wall.json").read_text())["n"]
    weights = tmp / "weights.json"
    weights.write_text(json.dumps({str(v): f"{v + 1}/{n * (n + 1) // 2}" for v in range(n)}))
    run(["centralbag", "-i", f("wall.json"), "--pattern", str(path),
         "--forcer", f("claw.json"), "--weights", str(weights)], "centralbag.json")
    run(["decompose", "--method", "chordal", "-i", f("caterpillar.json"),
         "--td", f("chordal.td")], "chordal.json")
    run(["decompose", "--method", "chordal", "-i", f("wall.json")], "hole.json")
    lci = {  # `gen cycle-lci --k 4 --size 2` as a model file
        "points": ["0", "1/4", "1/2", "3/4"],
        "arcs": [["0", "1/4"], ["31/128", "65/128"], ["31/64", "49/64"],
                 ["93/128", "3/128"]],
        "sizes": [2, 2, 2, 2],
    }
    (tmp / "lci.json").write_text(json.dumps(lci))
    run(["decompose", "--method", "lci", "-i", f("lci.json")], "lci.json.out")
    strip = json.loads((tmp / "strip.roles.json").read_text())
    strip.pop("family")
    strip["host"] = json.loads((tmp / "strip.json").read_text())
    (tmp / "ss.json").write_text(json.dumps(strip))
    run(["decompose", "--method", "strip", "-i", f("ss.json")], "strip.out.json")
    assert _run(["--seed", "7", "verify", "all", "-o", f("all")]) == 0
    outputs += sorted(str(p) for p in tmp.glob("all.*.json"))
    for out in outputs:
        if "certificate" in json.loads(Path(out).read_text()) or "all." in out:
            assert _run(["recheck", "-i", out, "-o", f("recheck.json")]) == 0


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[tuple[str, int, str]]:
    prof = cProfile.Profile()
    prof.enable()
    try:
        _commands(tmp_path_factory.mktemp("reach"))
    finally:
        prof.disable()
    return {
        (e.code.co_filename, e.code.co_firstlineno, e.code.co_qualname)
        for e in prof.getstats()
        if isinstance(e.code, CodeType)
    }


def test_every_function_is_reached_by_a_command(reached):
    defined = _defined()
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    assert [name for name in unreached if name not in ALLOWED] == []
    # the allowlist names only functions that exist and no command reaches
    assert sorted(ALLOWED) == [name for name in unreached if name in ALLOWED]
    assert set(ALLOWED) <= set(defined.values())


def test_traced_allowances_are_traced():
    tracing = _load_tracing()
    timed = {f"{mod.removeprefix('twcert.')}.{attr}" for mod, attr, _ in tracing.TIMED}
    for name, reason in ALLOWED.items():
        assert reason != TRACED or name in timed, name
