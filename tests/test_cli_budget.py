"""Every subcommand that hits a cap or a budget exits 2 with a `budget`
status, and `detect` and `sep` search under the configured budget."""

import json

from twcert.cli import main
from twcert import generators
from twcert.graphs import full_subdivision, line_graph
from twcert.io import graph_to_json


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
    argv = ["detect", "--pattern", "wall-line", "-i", _wall(tmp_path, 3, 3)]
    assert main(argv + ["--k", "1"]) == 64  # no k x k wall exists for k < 2
    code, payload = _run(tmp_path, argv + ["--k", "4"])
    assert code == 2
    assert payload == {"status": "budget", "detail": "wall-line detection supports k in {2, 3}"}


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
