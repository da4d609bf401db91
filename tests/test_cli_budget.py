"""Every subcommand that hits a cap or a budget exits 2 with a `budget`
status, and `detect` and `sep` search under the configured budget."""

import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from math import inf
from pathlib import Path

import pytest

from twcert.certify import Certificate, worst
from twcert.check import EXIT_CODE, THETA_SHAPE, recheck
from twcert.cli import main
import twcert
from twcert import generators, suites
from twcert.config import RunConfig
from twcert.graphs import BudgetExhausted, Graph, full_subdivision, line_graph
from twcert.io import graph_to_json
from twcert.suites import SUITES, random_tree

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(tmp_path, argv, config=None):
    out = tmp_path / "out.json"
    prefix = []
    if config is not None:
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        prefix = ["--config", str(conf)]
    code = main(prefix + argv + ["-o", str(out)])
    return code, json.loads(out.read_text())


def _wall(tmp_path, n, m):
    path = tmp_path / f"wall{n}x{m}.json"
    assert main(["gen", "wall", "--n", str(n), "--m", str(m), "-o", str(path)]) == 0
    return str(path)


def _host(tmp_path, name, g):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def test_centralbag_above_transfer_cap_reports_budget(tmp_path):
    pattern = tmp_path / "p3.json"
    pattern.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}\n')
    code, payload = _run(
        tmp_path, ["centralbag", "-i", _wall(tmp_path, 4, 4), "--pattern", str(pattern)]
    )
    assert code == 2
    assert payload == {
        "status": "budget",
        "detail": "transfer checks are exhaustive; capped at n=12",
    }


def test_detect_honours_search_budget(tmp_path):
    argv = ["detect", "--pattern", "theta", "--t", "2", "-i", _wall(tmp_path, 4, 4)]
    code, payload = _run(tmp_path, argv, config="search_budget=10\n")
    assert code == 2
    assert payload["status"] == "budget"
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"


def test_detect_induced_honours_search_budget(tmp_path):
    """A 25-vertex induced path is found in the 5x5 wall whatever its size,
    and only the budget stops the search."""
    pattern = tmp_path / "p25.json"
    pattern.write_text(json.dumps({"n": 25, "edges": [[v, v + 1] for v in range(24)]}))
    argv = ["detect", "--pattern", "induced", "--pattern-file", str(pattern),
            "-i", _wall(tmp_path, 5, 5)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    assert len(payload["image"]) == 25
    code, payload = _run(tmp_path, argv, config="search_budget=10\n")
    assert code == 2
    assert payload == {"status": "budget", "detail": "search budget of 10 nodes exhausted"}


def test_sep_honours_search_budget(tmp_path):
    """`sep` takes the 12-vertex 3x3 wall and stops only at the budget, one
    tick per subset X tested."""
    argv = ["sep", "-i", _wall(tmp_path, 3, 3)]
    assert _run(tmp_path, argv) == (0, {"c": "1/2", "separation_number": 3})
    code, payload = _run(tmp_path, argv, config="search_budget=10\n")
    assert code == 2
    assert payload == {"status": "budget", "detail": "search budget of 10 nodes exhausted"}


@pytest.mark.parametrize(
    "argv",
    [
        ["centralbag"],
        ["verify", "forcer-theta"],
        ["verify", "detectors"],
        ["verify", "harvey-wood"],
        ["verify", "pipeline"],
    ],
    ids=["centralbag", "forcer-theta", "detectors", "harvey-wood", "pipeline"],
)
def test_centralbag_and_verify_honour_search_budget(tmp_path, argv):
    """Every search of `centralbag` on the 3x3 wall and of these `verify`
    suites charges the one budget its command builds from `search_budget`."""
    if argv == ["centralbag"]:
        pattern = tmp_path / "p2.json"
        pattern.write_text('{"n": 2, "edges": [[0, 1]]}\n')
        argv = [*argv, "-i", _wall(tmp_path, 3, 3), "--pattern", str(pattern)]
    code, payload = _run(tmp_path, argv, config="search_budget=1\n")
    assert code == 2
    assert payload == {"status": "budget", "detail": "search budget of 1 nodes exhausted"}
    _, payload = _run(tmp_path, argv)
    assert payload.get("status") != "budget"


def test_verify_all_runs_every_suite_when_one_runs_out_of_budget(tmp_path):
    """A suite that runs out writes the `budget` payload where its certificate
    would go, and the suites after it still run."""
    conf = tmp_path / "run.conf"
    conf.write_text("search_budget=3000\n")
    out = tmp_path / "out"
    assert main(["--config", str(conf), "verify", "all", "-o", str(out)]) == 2
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.glob("out.*.json")) == sorted(
        f"out.{name}.json" for name in SUITES
    )
    ran_out = {"detectors", "forcer-claw", "forcer-theta", "harvey-wood"}
    corpus = ROOT / "tests" / "data" / "certificates"
    for name in SUITES:
        text = (tmp_path / f"out.{name}.json").read_text(encoding="utf-8")
        if name in ran_out:
            assert json.loads(text) == {
                "detail": "search budget of 3000 nodes exhausted", "status": "budget"
            }
        else:
            assert text == (corpus / f"all.{name}.json").read_text(encoding="utf-8")


def _fails(cfg):
    cert = Certificate(command=["verify", "planted"], seed=cfg.seed)
    cert.add("planted", "a check that fails", False, {})
    return cert


def _runs_out(cfg):
    raise BudgetExhausted("search budget of 1 nodes exhausted")


@pytest.mark.parametrize(
    "names",
    [("fails", "runs-out"), ("z-fails", "a-runs-out")],
    ids=["fail-first", "fail-last"],
)
def test_verify_all_ranks_a_fail_above_a_budget(tmp_path, monkeypatch, names):
    """A suite's fail (1) is not hidden by another suite's `budget` (2),
    whichever runs first, and both suites still write their files."""
    failing, running_out = names
    monkeypatch.setattr(suites, "SUITES", {failing: _fails, running_out: _runs_out})
    out = tmp_path / "out"
    assert main(["verify", "all", "-o", str(out)]) == 1
    assert json.loads((tmp_path / f"out.{failing}.json").read_text()) == _fails(
        RunConfig()
    ).to_json()
    assert json.loads((tmp_path / f"out.{running_out}.json").read_text()) == {
        "detail": "search budget of 1 nodes exhausted", "status": "budget"
    }
    monkeypatch.setattr(suites, "SUITES", {running_out: _runs_out})
    assert main(["verify", "all", "-o", str(out)]) == 2


def test_search_budget_is_the_only_budget_source():
    """Every `Budget(...)` in the package is built from `cfg.search_budget`,
    and no `Budget` parameter has a default, so every search charges the
    budget of the command that runs it."""
    built, defaulted = [], []
    for path in sorted(Path(twcert.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "Budget":
                built.append((path.stem, ast.unparse(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [
                    *zip(positional[len(positional) - len(args.defaults) :], args.defaults),
                    *zip(args.kwonlyargs, args.kw_defaults),
                ]
                defaulted += [
                    (path.stem, node.name, arg.arg)
                    for arg, default in pairs
                    if default is not None
                    and arg.annotation is not None
                    and ast.unparse(arg.annotation).strip("'\"")
                    in ("Budget", "Optional[Budget]", "Budget | None")
                ]
    assert built and all(call == "Budget(cfg.search_budget)" for _, call in built), built
    assert defaulted == []


def test_wall_line_k_below_two_is_a_usage_error(tmp_path):
    """k < 2 is a usage error; any larger k runs: absent at once on a host
    smaller than the 4x4 wall, found on the line graph of the 4x4 wall."""
    argv = ["detect", "--pattern", "wall-line", "-i", _wall(tmp_path, 3, 3)]
    assert main(argv + ["--k", "1"]) == 64  # no k x k wall exists for k < 2
    assert _run(tmp_path, argv + ["--k", "4"]) == (1, {"status": "absent"})
    host = tmp_path / "line44.json"
    host.write_text(json.dumps(graph_to_json(line_graph(generators.wall(4, 4)))))
    argv = ["detect", "--pattern", "wall-line", "--k", "4", "-i", str(host)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    assert payload["image"] == list(range(32))


def test_wall_line_k3_on_a_triangle_free_wall_is_absent_at_once(tmp_path):
    """Every member at k >= 3 has a triangle and the 4x4 wall has none, so
    wall-line k = 3 is absent before any member; the full search it skips
    takes 3.07e7 ticks, about 6 s, to find nothing."""
    argv = ["detect", "--pattern", "wall-line", "--k", "3", "-i", _wall(tmp_path, 4, 4)]
    start = time.perf_counter()
    assert _run(tmp_path, argv) == (1, {"status": "absent"})
    assert time.perf_counter() - start < 1


def test_pattern_larger_than_the_host_is_absent_before_the_cap(tmp_path):
    """A 25-vertex star has no copy in the 12-vertex 3x3 wall: `detect`
    reports it absent before any search, and a `centralbag` forcer check
    passes."""
    star = tmp_path / "star25.json"
    star.write_text(json.dumps({"n": 25, "edges": [[0, v] for v in range(1, 25)]}))
    pattern = tmp_path / "p3.json"
    pattern.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}\n')
    wall = _wall(tmp_path, 3, 3)
    argv = ["detect", "--pattern", "induced", "--pattern-file", str(star), "-i", wall]
    assert _run(tmp_path, argv) == (1, {"status": "absent"})
    argv = ["centralbag", "-i", wall, "--pattern", str(pattern), "--forcer", str(star)]
    code, payload = _run(tmp_path, argv)
    assert code == 2  # the transfer hypotheses are unmet on the wall
    assertions = payload["certificate"]["assertions"]
    records = [(a["check"], a["status"]) for a in assertions]
    assert ("bag.forcer.0", "pass") in records
    assert [r for r in records if r[0] == "bag.transfer"] == [
        ("bag.transfer", "hypothesis-unmet")
    ] * 4


def test_wall_line_k2_finds_a_hole_in_theorem_1s_line_graph_host(tmp_path):
    """On the line graph of the fully subdivided 3x3 wall, wall-line k = 2
    tries one cycle per length and finds its 10-cycle under the default
    budget (searching every subdivision of the 4-cycle ran out of it)."""
    host = tmp_path / "line.json"
    lw33 = line_graph(full_subdivision(generators.wall(3, 3)))
    host.write_text(json.dumps(graph_to_json(lw33)))
    argv = ["detect", "--pattern", "wall-line", "--k", "2", "-i", str(host)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    assert payload["image"] == [0, 1, 2, 4, 7, 8, 9, 10, 12, 13]


# the theta shape as a `pattern-found` witness writes it
THETA_WITNESS = [[u, v, lo, None if hi == inf else hi] for u, v, lo, hi in THETA_SHAPE]


@pytest.mark.parametrize("rows, cols, t", [(5, 5, 3), (5, 6, 3), (6, 6, 2)])
def test_theta_is_found_in_walls_under_the_default_budget(tmp_path, rows, cols, t):
    """A family search is charged for the search-tree nodes it expands, a
    node shared by several members once.  Charged for every member's whole
    engine search, these searches ran out of the default budget."""
    g = generators.wall(rows, cols)
    argv = ["detect", "--pattern", "theta", "--t", str(t), "-i", _host(tmp_path, "w", g)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    witness = {"kind": "pattern-found", "graph": graph_to_json(g),
               "image": payload["image"], "shape": THETA_WITNESS}
    record = {"check": "theta", "status": "pass", "witness": witness}
    assert recheck({"assertions": [record]}) == (1, 1, [])


LS33 = line_graph(full_subdivision(generators.wall(3, 3)))


@pytest.mark.parametrize(
    "pattern, t, g",
    [
        ("pyramid", 1, generators.wall(5, 5)),
        ("theta", 2, LS33),
        ("pyramid", 2, LS33),
    ],
    ids=["pyramid-t1-wall55", "theta-t2-ls33", "pyramid-t2-ls33"],
)
def test_absent_under_the_default_budget(tmp_path, pattern, t, g):
    """These searches used to run out of the default budget; each is absent."""
    argv = ["detect", "--pattern", pattern, "--t", str(t), "-i", _host(tmp_path, "g", g)]
    assert _run(tmp_path, argv) == (1, {"status": "absent"})


def test_theta_on_the_line_graph_of_the_subdivided_4x4_wall_is_absent_at_once(tmp_path):
    """A line graph has no induced claw and every theta has one, so theta
    is absent at once, where the search of its members runs out of the
    default budget."""
    lw44 = line_graph(full_subdivision(generators.wall(4, 4)))
    argv = ["detect", "--pattern", "theta", "--t", "2", "-i", _host(tmp_path, "lw", lw44)]
    start = time.perf_counter()
    assert _run(tmp_path, argv) == (1, {"status": "absent"})
    assert time.perf_counter() - start < 2


W55 = generators.wall(5, 5)


@pytest.mark.parametrize(
    "argv, g, outcome",
    [
        # 0-1-2 runs along the wall's first row, so the chord closes a triangle
        (["wall-line", "--k", "3"], Graph(W55.n, [*W55.edges, (0, 2)]), (2, "budget")),
        # a triangle with a path hanging off it: 100 vertices, no copy
        (["wall-line", "--k", "3"],
         Graph(100, [(0, 1), (0, 2), (1, 2), *((v, v + 1) for v in range(2, 99))]),
         (2, "budget")),
        # a cycle with a pendant vertex: its one vertex of degree 3 is a claw,
        # and the first theta member dies at its second vertex, a base level
        # every member shares, so the family is absent
        (["theta", "--t", "2"], Graph(601, [*generators.cycle_graph(600).edges, (0, 600)]),
         (1, "absent")),
        # a tree has no cycle, so no theta, but many claws
        (["theta", "--t", "2"], random_tree(random.Random(1), 2000), (2, "budget")),
        (["wall-line", "--k", "3"], LS33, (2, "budget")),
    ],
    ids=[
        "wall-line-k3-wall55-chord",
        "wall-line-k3-lollipop100",
        "theta-t2-c600",
        "theta-t2-tree2000",
        "wall-line-k3-ls33",
    ],
)
def test_members_without_a_copy_run_out_quickly(tmp_path, argv, g, outcome):
    """Each member of k vertices offered costs k ticks, besides one per
    search-tree node, so a member pays for its signature however early its
    search dies.  At one tick per member and a default budget of 5e6, the
    lollipop and the tree ran for 21 s and 6 s."""
    argv = ["detect", "--pattern", *argv, "-i", _host(tmp_path, "g", g)]
    start = time.perf_counter()
    code, payload = _run(tmp_path, argv)
    assert time.perf_counter() - start < 5
    assert (code, payload["status"]) == outcome


# runs theta t = 3 on the 5x6 wall and pyramid t = 1 on the 5x5 wall at the
# default budget, then prints each match and the ticks it used as JSON
TICKS = (
    "import json\n"
    "from twcert.config import Budget, RunConfig\n"
    "from twcert.detect import find_t_pyramid, find_t_theta\n"
    "from twcert.generators import wall\n"
    "out = []\n"
    "for search, g, t in ((find_t_theta, wall(5, 6), 3), (find_t_pyramid, wall(5, 5), 1)):\n"
    "    budget = Budget(RunConfig.search_budget)\n"
    "    match = search(g, t, budget)\n"
    "    out.append([match and [match.image, match.roles], budget.used])\n"
    "print(json.dumps(out))\n"
)


def test_family_ticks_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", TICKS],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for seed in ("0", "123")
    ]
    assert runs[0] == runs[1]
    (theta, theta_used), (pyramid, pyramid_used) = runs[0]
    assert theta is not None and pyramid is None
    assert 0 < theta_used and 0 < pyramid_used


@pytest.mark.parametrize(
    "rows, cols, t", [(6, 6, 3), (6, 6, 4), (7, 7, 3), (8, 8, 2), (8, 8, 3)]
)
def test_reach_bounds_find_theta_in_larger_walls(tmp_path, rows, cols, t):
    """A theta path vertex is placed only within its remaining path length
    of the path's end, so these searches, which ran out of the default
    budget (t = 3 on the 8x8 wall until a node cost one tick, not n), find
    a copy, and its image rechecks as a theta."""
    g = generators.wall(rows, cols)
    argv = ["detect", "--pattern", "theta", "--t", str(t), "-i", _host(tmp_path, "w", g)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    witness = {"kind": "pattern-found", "graph": graph_to_json(g),
               "image": payload["image"], "shape": THETA_WITNESS}
    record = {"check": "theta", "status": "pass", "witness": witness}
    assert recheck({"assertions": [record]}) == (1, 1, [])


@pytest.mark.parametrize("size", [5, 6])
def test_pyramid_stays_absent_on_walls(tmp_path, size):
    """Walls have no triangle, so every pyramid member dies before its
    paths, where the reach bounds sit."""
    g = generators.wall(size, size)
    argv = ["detect", "--pattern", "pyramid", "--t", "1", "-i", _host(tmp_path, "w", g)]
    assert _run(tmp_path, argv) == (1, {"status": "absent"})


# a figure as the README writes one: 1,000,000, 10⁶ or 5·10⁶
FIGURE = re.compile(r"(?:(\d+)·)?10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)|(\d[\d,]*)")
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _figure(match: re.Match) -> int:
    factor, power, plain = match.groups()
    if plain:
        return int(plain.replace(",", ""))
    return int(factor or 1) * 10 ** int(power.translate(SUPERSCRIPTS))


def test_readme_states_the_default_budget():
    """Every "default budget of <figure>" in the README's Configuration
    section is `RunConfig.search_budget`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Configuration\n")
    end = text.find("\n## ", start + 1)
    section = " ".join(text[start : end if end >= 0 else None].split())
    stated = [
        _figure(FIGURE.match(section, m.end()))
        for m in re.finditer(r"default budget of ", section)
    ]
    assert stated, "the Configuration section states the default budget"
    assert stated == [RunConfig.search_budget] * len(stated)


def test_readme_states_the_exit_codes_and_their_order():
    """The README's "Command line" paragraph gives each record status the
    exit code of `EXIT_CODE`, and ranks the codes as `worst` does."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Command line\n") + len("\n## Command line\n")
    paragraph = " ".join(text[start : text.index("\n\n", start + 1)].split())
    stated = re.search(r"Exit codes: (.*?)\. ", paragraph)
    assert stated, "the Command line paragraph states the exit codes"
    parts = re.split(r"`(\d+)` ", stated.group(1))[1:]
    meanings = {int(code): words for code, words in zip(parts[::2], parts[1::2])}
    for status, code in EXIT_CODE.items():
        naming = [c for c, words in meanings.items() if status.replace("-", " ") in words]
        assert naming == [code], status
    order = re.search(
        r"in one order for every command: " + r" above ".join([r"`(\d)` \(([^)]*)\)"] * 3),
        paragraph,
    )
    assert order, "the Command line paragraph states the order of the exit codes"
    codes = [int(c) for c in order.groups()[::2]]
    assert sorted(codes) == sorted(set(EXIT_CODE.values()))
    for code, words in zip(codes, order.groups()[1::2]):
        for status in (s for s, c in EXIT_CODE.items() if c == code):
            assert status.split("-")[0] in words, status
    for i, higher in enumerate(codes):
        for lower in codes[i + 1 :]:
            assert worst([higher, lower]) == worst([lower, higher]) == higher
