"""Every subcommand that hits a cap or a budget exits 2 with a `budget`
status, and `detect` and `sep` search under the configured budget."""

import json
import os
import subprocess
import sys
import time
from math import inf
from pathlib import Path

import pytest

from twcert.check import THETA_SHAPE, recheck
from twcert.cli import main
from twcert import generators
from twcert.graphs import Graph, full_subdivision, line_graph
from twcert.io import graph_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


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
    step per subset X tested."""
    argv = ["sep", "-i", _wall(tmp_path, 3, 3)]
    assert _run(tmp_path, argv) == (0, {"c": "1/2", "separation_number": 3})
    code, payload = _run(tmp_path, argv, config="search_budget=10\n")
    assert code == 2
    assert payload == {"status": "budget", "detail": "search budget of 10 nodes exhausted"}


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
    wall-line k = 3 is absent before any member; the search it skips takes
    about 50 s (3.2e7 steps, nearly all of them 24, the host size, per
    member offered) to find nothing."""
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
    ],
    ids=["wall-line-k3-wall55-chord", "wall-line-k3-lollipop100", "theta-t2-c600"],
)
def test_members_without_a_copy_run_out_quickly(tmp_path, argv, g, outcome):
    """Each member offered costs n steps (n the host size), so the default
    budget offers at most 5e6 / n members.  At one step per member, the
    last two ran for over a minute and 9 s."""
    argv = ["detect", "--pattern", *argv, "-i", _host(tmp_path, "g", g)]
    start = time.perf_counter()
    code, payload = _run(tmp_path, argv)
    assert time.perf_counter() - start < 5
    assert (code, payload["status"]) == outcome


# runs theta t = 3 on the 5x6 wall and pyramid t = 1 on the 5x5 wall at the
# default budget, then prints each match and the steps it used as JSON
TICKS = (
    "import json\n"
    "from twcert.config import Budget\n"
    "from twcert.detect import find_t_pyramid, find_t_theta\n"
    "from twcert.generators import wall\n"
    "out = []\n"
    "for search, g, t in ((find_t_theta, wall(5, 6), 3), (find_t_pyramid, wall(5, 5), 1)):\n"
    "    budget = Budget()\n"
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


@pytest.mark.parametrize("rows, cols, t", [(6, 6, 3), (6, 6, 4), (7, 7, 3), (8, 8, 2)])
def test_reach_bounds_find_theta_in_larger_walls(tmp_path, rows, cols, t):
    """A theta path vertex is placed only within its remaining path length
    of the path's end, so these searches, which ran out of the default
    budget, find a copy, and its image rechecks as a theta."""
    g = generators.wall(rows, cols)
    argv = ["detect", "--pattern", "theta", "--t", str(t), "-i", _host(tmp_path, "w", g)]
    code, payload = _run(tmp_path, argv)
    assert code == 0 and payload["status"] == "found"
    witness = {"kind": "pattern-found", "graph": graph_to_json(g),
               "image": payload["image"], "shape": THETA_WITNESS}
    record = {"check": "theta", "status": "pass", "witness": witness}
    assert recheck({"assertions": [record]}) == (1, 1, [])


def test_theta_t3_on_the_8x8_wall_still_runs_out_quickly(tmp_path):
    argv = ["detect", "--pattern", "theta", "--t", "3",
            "-i", _host(tmp_path, "w", generators.wall(8, 8))]
    start = time.perf_counter()
    code, payload = _run(tmp_path, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["status"] == "budget"


@pytest.mark.parametrize("size", [5, 6])
def test_pyramid_stays_absent_on_walls(tmp_path, size):
    """Walls have no triangle, so every pyramid member dies before its
    paths, where the reach bounds sit."""
    g = generators.wall(size, size)
    argv = ["detect", "--pattern", "pyramid", "--t", "1", "-i", _host(tmp_path, "w", g)]
    assert _run(tmp_path, argv) == (1, {"status": "absent"})
