"""Every function and every statement of the package runs under some command.

One in-process run of `verify all` and of each subcommand (every `gen`
family, every `detect` pattern, `tw` exact with and without a refutation
pass and by bounds, `sep`, `centralbag` with and without `--weights` and
with `--forcer`, all three `decompose` methods, `recheck` of every output
that carries a certificate and of a hand-written one, a `--config` file, and
runs that exhaust a budget of one node) is traced.  Every function, method
and nested function defined in `src/twcert` must have been called, or be on
`ALLOWED` with its reason.

Every statement in a function body must have run: a simple statement when
one of its lines produced a line event, a compound one (`if`, `for`,
`while`, `with`, `try`, a nested `def` or `class`) when one of its header
lines did.  These are exempt:
- docstrings, and `global` and `nonlocal` declarations, which compile to no
  instruction;
- error paths: a `raise`, every statement of a block that ends in `raise`,
  and the body of an `except` handler;
- the statements of functions on `ALLOWED`;
- the module `suites`, whose suites record failed checks that correct code
  never fails.
A statement left over must be on `UNRUN`, by its function and its text,
with its reason.  A helper or a branch that only tests run belongs in the
tests.  A stale entry on either list fails the test.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path
from types import CodeType
from typing import Iterator, NamedTuple

import pytest

import twcert
from conftest import random_graph
from twcert.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = str(Path(twcert.__path__[0]))

TRACED = "wrapped by perfbench/tracing.py, which the benchmark installs"
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
    "graphs.Graph.__hash__": DUNDER,
    "graphs.Graph.__repr__": DUNDER,
}

FAILING = "a checker's failing branch, which correct code never takes"

# ("module.qualname", the statement's first line) -> why no command runs it
UNRUN = {
    ("centralbag.audit_is_complete", "return False"): FAILING,
    ("separators.harvey_wood_check", "all_small = False"): FAILING,
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


def _unsound_certificate() -> dict:
    """A certificate that `recheck` finds problems in: a `pattern-found`
    record that holds, records whose witnesses fail each way a checker
    tells, and records it cannot read."""
    k23 = [[0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 1]]  # a theta, ends 0 and 1

    def found(n, edges, image):
        witness = {"kind": "pattern-found", "graph": {"n": n, "edges": edges},
                   "image": image, "shape": [[0, 1, 2, None]] * 3}
        return {"check": "found", "status": "pass", "witness": witness}

    def td(bags, tree_edges):
        path = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        witness = {"kind": "td-valid", "graph": path, "bags": bags,
                   "tree_edges": tree_edges, "width_at_most": 3}
        return {"check": "td", "status": "pass", "witness": witness}

    missing = td([[0, 1]], [])
    del missing["witness"]["bags"]
    return {"assertions": [
        found(5, k23, [0, 1, 2, 3, 4]),
        found(5, k23, [0, 1, 2, 3, 9]),  # an image vertex out of range
        found(8, [*k23, [5, 6], [6, 7], [5, 7]], list(range(8))),  # a loose cycle
        found(4, [[0, 1], [0, 2], [2, 1], [0, 3], [3, 1]], [0, 1, 2, 3]),  # too short
        # a repeated tree edge leaves node 2 off the tree; vertex 9 is out of
        # range, vertices 2 and 3 and their edges lie in no bag, and vertex 1
        # lies on nodes 0 and 2
        td([[0, 1, 9], [0], [1]], [[0, 1], [0, 1]]),
        td([], []),  # no bags
        missing,  # no `bags` field
        {"check": "unknown", "status": "pass", "witness": {"kind": "unknown"}},
        "not a record",
    ]}


def _commands(tmp: Path) -> None:
    """Every subcommand once, on inputs the `gen` runs write, and on
    hand-written inputs that reach the branches those do not."""
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
    # as many vertices as the 3x3 wall, and a triangle: wall-line k = 3 runs
    # its triangle test, and no member, each with 15 vertices, fits
    (tmp / "triangle12.json").write_text('{"n": 12, "edges": [[0, 1], [0, 2], [1, 2]]}')

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
    run(["detect", "--pattern", "wall-line", "--k", "3", "-i", f("triangle12.json")],
        "detect-wall-line-k3.json")
    run(["tw", "-i", f("wall.json"), "--td", f("wall.td")], "tw.json")
    run(["tw", "-i", f("w55.json")], "tw-bounds.json")
    run(["tw", "-i", f("overshoot.json")], "tw-overshoot.json")
    # no vertex; two components; a .gr comment line; contraction degeneracy
    # 4 and min-fill width 5 = tw, so the first refutation pass does not
    # reach the full set
    (tmp / "empty.json").write_text('{"n": 0, "edges": []}')
    (tmp / "two.json").write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
    (tmp / "comment.gr").write_text("c a comment line\np tw 3 2\n1 2\n2 3\n")
    tight = random_graph(8, 0.5, 39)
    (tmp / "tight.json").write_text(json.dumps({"n": 8, "edges": tight.edges}))
    for name in ["empty.json", "two.json", "comment.gr", "tight.json"]:
        run(["tw", "-i", f(name)], f"tw-{name}.out")
    run(["sep", "-i", f("claw.json"), "--c", "1/2"], "sep.json")
    n = json.loads((tmp / "wall.json").read_text())["n"]
    weights = tmp / "weights.json"
    weights.write_text(json.dumps({str(v): f"{v + 1}/{n * (n + 1) // 2}" for v in range(n)}))
    run(["centralbag", "-i", f("wall.json"), "--pattern", str(path),
         "--forcer", f("claw.json"), "--weights", str(weights)], "centralbag.json")
    # uniform weights, and a forcer copy that is its own inner copy
    run(["centralbag", "-i", f("wall.json"), "--pattern", str(path),
         "--forcer", str(path)], "centralbag-uniform.json")
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
    fuzzy = {  # a fuzz pair, and an arc whose end points arc 0 also holds
        "points": ["0", "1/4", "1/2", "3/4"],
        "arcs": [["0", "1/4"], ["15/16", "5/16"], ["1/2", "3/4"]],
        "sizes": [1, 1, 2, 2],
        "fuzz": [[2, 3]],
        "patterns": [[[0, 0]]],
    }
    (tmp / "fuzzy.json").write_text(json.dumps(fuzzy))
    run(["decompose", "--method", "lci", "-i", f("fuzzy.json")], "fuzzy.json.out")
    strip = json.loads((tmp / "strip.roles.json").read_text())
    strip.pop("family")
    strip["host"] = json.loads((tmp / "strip.json").read_text())
    (tmp / "ss.json").write_text(json.dumps(strip))
    run(["decompose", "--method", "strip", "-i", f("ss.json")], "strip.out.json")
    c4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}  # a strip, not chordal
    (tmp / "ss-c4.json").write_text(json.dumps({
        "host": c4, "pattern_n": 2, "pattern_edges": [[0, 1]],
        "eta": [[0, 1, 2, 3]], "eta_end": [[[], []]],
    }))
    run(["decompose", "--method", "strip", "-i", f("ss-c4.json")], "strip-c4.out.json")
    assert _run(["--seed", "7", "verify", "all", "-o", f("all")]) == 0
    # a budget of one node runs out inside the search loop, and in the
    # first suite that searches, and the later suites still run
    one = tmp / "one.conf"
    one.write_text("search_budget=1\n")
    assert _run(["--config", str(one), "detect", "--pattern", "claw",
                 "-i", f("wall.json"), "-o", f("claw-budget.json")]) == 2
    assert _run(["--config", str(one), "verify", "all", "-o", f("budget")]) == 2
    assert _run(["detect", "--pattern", "induced", "-i", f("wall.json")]) == 64
    assert _run(["detect", "--pattern", "claw", "-i", f("claw.json")]) == 0  # to stdout
    (tmp / "unsound.json").write_text(json.dumps(_unsound_certificate()))
    assert _run(["recheck", "-i", f("unsound.json"), "-o", f("recheck.json")]) == 1
    outputs += sorted(str(p) for p in tmp.glob("all.*.json"))
    for out in outputs:
        if "certificate" in json.loads(Path(out).read_text()) or "all." in out:
            assert _run(["recheck", "-i", out, "-o", f("recheck.json")]) == 0


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_caches() -> None:
    """Empty the cache of every function and method in the package that has
    one, so that a helper whose cache an earlier test in this process filled
    is entered again and counts as reached."""
    for mod in pkgutil.iter_modules(twcert.__path__):
        for value in vars(importlib.import_module(f"twcert.{mod.name}")).values():
            for attr in [value, *vars(value).values()] if inspect.isclass(value) else [value]:
                if callable(getattr(attr, "cache_clear", None)):
                    attr.cache_clear()


class Reached(NamedTuple):
    calls: set[tuple[str, int, str]]  # (file, first line, qualname) of a code object
    lines: dict[str, set[int]]  # file -> the lines that produced a line event


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> Reached:
    """`_commands` run once under a tracer of the package's frames."""
    calls: set[tuple[str, int, str]] = set()
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        calls.add((code.co_filename, code.co_firstlineno, code.co_qualname))
        return local

    _clear_caches()
    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        _commands(tmp_path_factory.mktemp("reach"))
    finally:
        sys.settrace(before)
    return Reached(calls, lines)


def test_every_function_is_reached_by_a_command(reached):
    defined = _defined()
    unreached = sorted(name for key, name in defined.items() if key not in reached.calls)
    assert [name for name in unreached if name not in ALLOWED] == []
    # the allowlist names only functions that exist and no command reaches
    assert sorted(ALLOWED) == [name for name in unreached if name in ALLOWED]
    assert set(ALLOWED) <= set(defined.values())


def _functions() -> Iterator[tuple[str, str, ast.FunctionDef]]:
    """(file, "module.qualname", node) of every function, method and nested
    function of the package outside `suites`."""

    def scope(node: ast.AST, qual: str) -> Iterator[tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}" if qual else child.name
                if isinstance(child, ast.ClassDef):
                    yield from scope(child, name)
                else:
                    yield name, child
                    yield from scope(child, f"{name}.<locals>")
            else:
                yield from scope(child, qual)

    for mod in pkgutil.iter_modules(twcert.__path__):
        if mod.name != "suites":
            path = str(Path(PACKAGE) / f"{mod.name}.py")
            for qual, node in scope(ast.parse(Path(path).read_text()), ""):
                yield path, f"{mod.name}.{qual}", node


def _counted(block: list[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of a block and of the blocks nested in it, down to
    nested functions and classes, less the exempt ones."""
    if block and isinstance(block[-1], ast.Raise):
        return  # an error path
    for stmt in block:
        if not isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal)):
            yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):  # not `except` bodies
                yield from _counted(getattr(stmt, field, []))


def _own_lines(stmt: ast.stmt) -> set[int]:
    """A simple statement's lines, or a compound one's header lines: its
    lines outside its nested blocks, with its decorators'."""
    own = set(range(stmt.lineno, stmt.end_lineno + 1))
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(stmt, field, []):
            own -= set(range(child.lineno, child.end_lineno + 1))
    for decorator in getattr(stmt, "decorator_list", []):
        own |= set(range(decorator.lineno, decorator.end_lineno + 1))
    return own or {stmt.lineno}


def test_every_statement_is_run_by_a_command(reached):
    unrun = []
    for path, name, node in _functions():
        if name in ALLOWED:
            continue
        body = node.body
        if ast.get_docstring(node, clean=False) is not None:
            body = body[1:]
        for stmt in _counted(body):
            if not _own_lines(stmt) & reached.lines.get(path, set()):
                unrun.append((name, ast.unparse(stmt).splitlines()[0], stmt.lineno))
    assert [u for u in unrun if u[:2] not in UNRUN] == []
    # each entry names a statement that exists and no command runs
    assert {u[:2] for u in unrun} == set(UNRUN)


def test_traced_allowances_are_traced():
    tracing = _load_tracing()
    timed = {f"{mod.removeprefix('twcert.')}.{attr}" for mod, attr, _ in tracing.TIMED}
    for name, reason in ALLOWED.items():
        assert reason != TRACED or name in timed, name
