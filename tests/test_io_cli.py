import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from twcert import cli
from twcert.cli import main
from twcert.config import load_config
from twcert.generators import complete_bipartite, wall
from twcert.graphs import TreeDecomposition
from twcert.io import (
    read_gr,
    read_graph_json,
    read_td,
    write_gr,
    write_graph_json,
    write_td,
)
from twcert.suites import SUITES


def _roundtrip_json(g):
    buf = io.StringIO()
    write_graph_json(g, buf)
    buf.seek(0)
    return read_graph_json(buf)


def _roundtrip_gr(g):
    buf = io.StringIO()
    write_gr(g, buf)
    buf.seek(0)
    return read_gr(buf)


def test_graph_roundtrips():
    for g in [wall(3, 3), complete_bipartite(2, 3)]:
        assert _roundtrip_json(g) == g
        assert _roundtrip_gr(g) == g


def test_gr_format_header():
    buf = io.StringIO()
    write_gr(wall(2, 2), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p tw 4 4"
    assert lines[1].split() == ["1", "2"]


def test_gr_parse_errors():
    with pytest.raises(ValueError):
        read_gr(io.StringIO("1 2\n"))
    with pytest.raises(ValueError):
        read_gr(io.StringIO("p tw x\n"))


def test_td_roundtrip():
    td = TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=((0, 1),))
    buf = io.StringIO()
    write_td(td, 3, buf)
    text = buf.getvalue()
    assert text.startswith("s td 2 2 3")
    buf.seek(0)
    assert read_td(buf) == td


def test_malformed_graph_json():
    for text in [
        '{"edges": []}',
        '{"n": 2.9, "edges": []}',
        '{"n": "3", "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[0, 1.0]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0]]}',
        '{"n": 3, "edges": [{"0": 1}]}',
        '{"n": 3, "edges": {}}',
    ]:
        with pytest.raises(ValueError):
            read_graph_json(io.StringIO(text))


def test_cli_gen_detect_roundtrip(tmp_path):
    out = tmp_path / "w.json"
    assert main(["gen", "wall", "--n", "3", "--m", "3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 12
    assert (
        main(["detect", "--pattern", "claw", "--t1", "1", "--t2", "1", "--t3", "1",
              "-i", str(out)])
        == 0
    )
    assert main(["detect", "--pattern", "theta", "--t", "2", "-i", str(out)]) == 0


def test_cli_detect_exit_codes(tmp_path):
    k23 = tmp_path / "k23.json"
    assert main(["gen", "theta", "--l1", "2", "--l2", "2", "--l3", "2", "-o", str(k23)]) == 0
    assert main(["detect", "--pattern", "theta", "--t", "2", "-i", str(k23)]) == 0
    assert main(["detect", "--pattern", "theta", "--t", "3", "-i", str(k23)]) == 1


def test_cli_tw_and_td_output(tmp_path):
    g = tmp_path / "g.json"
    td = tmp_path / "g.td"
    out = tmp_path / "tw.json"
    main(["gen", "wall", "--n", "2", "--m", "3", "-o", str(g)])
    assert main(["tw", "-i", str(g), "--td", str(td), "-o", str(out)]) == 0
    assert td.read_text().startswith("s td")
    payload = json.loads(out.read_text())
    assert payload["exact"] == 2


def test_cli_sep(tmp_path, capsys):
    g = tmp_path / "p4.json"
    main(["gen", "claw", "--t1", "0", "--t2", "2", "--t3", "1", "-o", str(g)])
    assert main(["sep", "-i", str(g), "--c", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["separation_number"] == 1


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["detect", "--pattern", "induced", "-i", "missing.json"]) == 64
    assert main(["verify", "not-a-suite"]) == 64
    # a path that cannot be read or written is a usage error that names it
    g = tmp_path / "g.json"
    assert main(["gen", "wall", "--n", "4", "--m", "4", "-o", str(g)]) == 0
    conf = tmp_path / "tiny.conf"
    conf.write_text("search_budget=10\n")
    folder = str(tmp_path)
    missing = str(tmp_path / "absent" / "a.json")
    for argv, named in [
        (["tw", "-i", folder], folder),
        (["tw", "-i", str(g), "-o", folder], folder),
        (["gen", "wall", "-o", folder], folder),
        (["verify", "anchors", "-o", missing], missing),
        # the budget handler's own output write
        (["--config", str(conf), "detect", "--pattern", "theta", "--t", "2",
          "-i", str(g), "-o", folder], folder),
    ]:
        capsys.readouterr()
        assert main(argv) == 64, argv
        assert named in capsys.readouterr().err, argv


def test_cli_centralbag_certificate(tmp_path):
    g = tmp_path / "w.json"
    pat = tmp_path / "p1.json"
    out = tmp_path / "cb.json"
    main(["gen", "wall", "--n", "3", "--m", "3", "-o", str(g)])
    pat.write_text('{"n": 1, "edges": []}\n')
    code = main([
        "centralbag", "-i", str(g), "--pattern", str(pat), "--c", "1/2",
        "--d", "2", "-o", str(out),
    ])
    assert code in (0, 2)  # hypothesis-unmet entries give 2, never 1
    payload = json.loads(out.read_text())
    assert payload["certificate"]["summary"]["fail"] == 0
    rc_out = tmp_path / "rc.json"
    assert main(["recheck", "-i", str(out), "-o", str(rc_out)]) == 0
    rc = json.loads(rc_out.read_text())
    assert rc["problems"] == [] and rc["checked"] == rc["confirmed"]


def test_recheck_rejects_a_non_integer_witness_n(tmp_path):
    """A 3x3-wall `tw` certificate whose witness graph claims n = 12.7 does
    not recheck: the witness n must be an integer, not truncated to 12."""
    g, out = tmp_path / "w.json", tmp_path / "tw.json"
    main(["gen", "wall", "--n", "3", "--m", "3", "-o", str(g)])
    assert main(["tw", "-i", str(g), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    [assertion] = payload["certificate"]["assertions"]
    assert assertion["witness"]["graph"]["n"] == 12
    assertion["witness"]["graph"]["n"] = 12.7
    out.write_text(json.dumps(payload))
    rc_out = tmp_path / "rc.json"
    assert main(["recheck", "-i", str(out), "-o", str(rc_out)]) == 1
    rc = json.loads(rc_out.read_text())
    assert rc["checked"] == 1 and rc["confirmed"] == 0
    assert rc["problems"] == [
        "tw.witness: recheck error n must be an integer, got 12.7"
    ]


def test_cli_centralbag_rejects_negative_d(tmp_path):
    g = tmp_path / "w.json"
    pat = tmp_path / "p1.json"
    out = tmp_path / "cb.json"
    main(["gen", "wall", "--n", "3", "--m", "3", "-o", str(g)])
    pat.write_text('{"n": 1, "edges": []}\n')
    code = main([
        "centralbag", "-i", str(g), "--pattern", str(pat), "--d", "-1",
        "-o", str(out),
    ])
    assert code == 64
    assert not out.exists()


def test_cli_verify_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "anchors", "-o", str(a)]) == 0
    assert main(["verify", "anchors", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_decompose_chordal_witnesses_hole(tmp_path, capsys):
    g = tmp_path / "c4.json"
    g.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}\n')
    assert main(["decompose", "--method", "chordal", "-i", str(g)]) == 1
    assert "hole" in capsys.readouterr().out


def _lci_fail(tmp_path, capsys, model):
    """Run `decompose --method lci` on a model whose cut graph has a hole;
    return the payload after checking the exit code, stderr and `--td`."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out, td = tmp_path / "out.json", tmp_path / "out.td"
    code = main(["decompose", "--method", "lci", "-i", str(path), "-o", str(out),
                 "--td", str(td)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and err == ""
    assert not td.exists()
    return json.loads(out.read_text())


# a 4-cycle whose arc 0 holds no point; arc 1 holds points 0 and 1/4
CYCLE_ARC0_EMPTY = {
    "points": ["0", "1/4", "1/2", "3/4"],
    "arcs": [["127/2000", "1/10"], ["0", "1/4"], ["31/128", "65/128"],
             ["31/64", "49/64"], ["93/128", "3/128"]],
}


def test_cli_decompose_lci_cuts_first_arc_holding_a_point(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(CYCLE_ARC0_EMPTY))
    out, td = tmp_path / "out.json", tmp_path / "out.td"
    code = main(["decompose", "--method", "lci", "-i", str(path), "-o", str(out),
                 "--td", str(td)])
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads(out.read_text()) == {"status": "ok", "violations": [], "width": 3}
    # the cut {0, 1} joins the path 2-3 left after it in every bag
    with td.open() as fh:
        assert read_td(fh) == TreeDecomposition(((0, 1, 2, 3), (0, 1, 2)), ((0, 1),))


# one strip on one pattern edge; with integer entries it decomposes (exit 0)
ONE_STRIP = {"host": {"n": 2, "edges": [[0, 1]]}, "pattern_n": 2,
             "pattern_edges": [[0, 1]], "eta": [[0, 1]], "eta_end": [[[0], [1]]]}
# the 4-cycle model with blocks of two and one fuzzy pair; decomposes (exit 0)
FUZZY = dict(CYCLE_ARC0_EMPTY, sizes=[2, 2, 2, 2], fuzz=[[0, 1]], patterns=[[[0, 0]]])


@pytest.mark.parametrize(
    "method, data, message",
    [
        ("lci", dict(CYCLE_ARC0_EMPTY, sizes=[2.5, True, 2, 2]),
         "size must be an integer, got 2.5"),
        ("lci", dict(CYCLE_ARC0_EMPTY, sizes=[True, True, 2, 2]),
         "size must be an integer, got True"),
        ("lci", dict(FUZZY, fuzz=[[0, True]]), "fuzz vertex must be an integer, got True"),
        ("lci", dict(FUZZY, patterns=[[[0, 0.0]]]),
         "pattern cell index must be an integer, got 0.0"),
        ("strip", dict(ONE_STRIP, pattern_n=2.9), "pattern_n must be an integer, got 2.9"),
        ("strip", dict(ONE_STRIP, pattern_edges=[[0, True]]),
         "pattern edge end must be an integer, got True"),
        ("strip", dict(ONE_STRIP, eta=[[0, 1.0]]), "strip vertex must be an integer, got 1.0"),
        ("strip", dict(ONE_STRIP, eta_end=[[[0], [True]]]),
         "end-set vertex must be an integer, got True"),
    ],
    ids=["lci-float-size", "lci-bool-sizes", "lci-bool-fuzz", "lci-float-pattern-cell",
         "strip-float-pattern-n", "strip-bool-pattern-edge", "strip-float-eta",
         "strip-bool-eta-end"],
)
def test_cli_decompose_rejects_non_integer_counts(tmp_path, capsys, method, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(["decompose", "--method", method, "-i", str(path), "-o", str(out)]) == 64
    err = capsys.readouterr().err
    assert str(path) in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method, data", [("lci", FUZZY), ("strip", ONE_STRIP)],
                         ids=["lci-fuzzy", "strip-one-edge"])
def test_cli_decompose_accepts_integer_fields(tmp_path, capsys, method, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["decompose", "--method", method, "-i", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_cli_decompose_readme_strip_structure(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("- Strip structures"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    path = tmp_path / "structure.json"
    path.write_text(block[:block.index("```")])
    out = tmp_path / "out.json"
    assert main(["decompose", "--method", "strip", "-i", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {"status": "ok", "violations": [], "width": 3}


def test_cli_decompose_lci_hole_is_in_host_ids(tmp_path, capsys):
    # arc 0 holds point 0 only; the other five points form a 5-cycle
    model = {
        "points": ["0", "1/6", "1/3", "1/2", "2/3", "5/6"],
        "arcs": [["999/1000", "1/100"], ["15/100", "34/100"], ["33/100", "51/100"],
                 ["49/100", "67/100"], ["66/100", "84/100"], ["83/100", "17/100"]],
    }
    payload = _lci_fail(tmp_path, capsys, model)
    assert payload == {"status": "fail", "hole": [2, 1, 5, 4, 3]}


@pytest.mark.parametrize(
    "text",
    [
        '{"assertions": [1]}',
        '{"assertions": [{"check": "x", "witness": '
        '{"kind": "equal", "got": 1, "expected": 1}}]}',
    ],
    ids=["int-entry", "no-status"],
)
def test_cli_recheck_reports_malformed_assertion(tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    out = tmp_path / "rc.json"
    assert main(["recheck", "-i", str(path), "-o", str(out)]) == 1
    rc = json.loads(out.read_text())
    assert rc["checked"] == 0 and len(rc["problems"]) == 1
    assert rc["problems"][0].startswith("assertion 0: not a record")


@pytest.mark.parametrize(
    "argv",
    [
        ["sep", "-i", "{g}", "--c", "1/0"],
        ["verify", "harvey-wood", "--c", "1/0"],
        ["centralbag", "-i", "{g}", "--pattern", "{p}", "--c", "1/0"],
        ["--config", "{conf}", "sep", "-i", "{g}"],
        ["centralbag", "-i", "{g}", "--pattern", "{p}", "--weights", "{w}"],
        ["decompose", "--method", "lci", "-i", "{lci}"],
        ["centralbag", "-i", "{g}", "--pattern", "{p}", "--weights", "{winf}"],
    ],
    ids=[
        "sep-c", "verify-c", "centralbag-c", "config-c", "weights-file", "lci-model",
        "weights-infinity",
    ],
)
def test_cli_non_finite_fraction_is_usage_error(tmp_path, capsys, argv):
    files = {
        "g": '{"n": 2, "edges": [[0, 1]]}',
        "p": '{"n": 1, "edges": []}',
        "conf": "c=1/0\n",
        "w": '{"0": "1/0", "1": "0"}',
        "lci": '{"points": ["0", "1/0"], "arcs": [["0", "1/2"]]}',
        "winf": '{"0": Infinity, "1": 0}',
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 64
    assert "is not a finite fraction" in capsys.readouterr().err


def test_cli_seed_zero_is_a_seed(tmp_path, capsys):
    out = tmp_path / "anchors.json"
    assert main(["--seed", "0", "verify", "anchors", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 0
    assert main(["--seed", "-1", "verify", "anchors"]) == 64
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seed=0", "d=0"])
def test_config_file_takes_zero_seed_and_d(tmp_path, line):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    key = line.split("=")[0]
    assert getattr(load_config(str(conf)), key) == 0


def test_config_zero_cap_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("max_tw_n=0\n")
    assert main(["--config", str(conf), "verify", "anchors"]) == 64
    assert "max_tw_n must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,detail",
    [
        ("search_budget=abc", "search_budget: invalid literal for int()"),
        ("c=1/0", "c: '1/0' is not a finite fraction"),
        ("c=2", "c: balance parameter c must lie in [1/2, 1), got 2"),
        ("search_budget=0", "search_budget: search_budget must be positive"),
        ("seed=-1", "seed: seed must be non-negative"),
        ("max_clique_n=64", "unknown key 'max_clique_n'"),
    ],
    ids=["int", "fraction", "c-range", "budget-range", "seed-range", "removed-key"],
)
def test_config_bad_value_names_file_line_and_key(tmp_path, capsys, line, detail):
    conf = tmp_path / "run.conf"
    conf.write_text(f"# run settings\n{line}\n")
    assert main(["--config", str(conf), "verify", "anchors"]) == 64
    assert capsys.readouterr().err.startswith(f"config error: {conf}:2: {detail}")


def test_sep_and_centralbag_read_c_and_d_from_config(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("c=2/3\nd=0\n")
    g = tmp_path / "w.json"
    pat = tmp_path / "p1.json"
    main(["gen", "wall", "--n", "2", "--m", "2", "-o", str(g)])
    pat.write_text('{"n": 1, "edges": []}\n')
    capsys.readouterr()
    assert main(["--config", str(conf), "sep", "-i", str(g)]) == 0
    assert '"c":"2/3"' in capsys.readouterr().out

    seen = []
    real = cli.run_master_pipeline

    def record(*args, **kwargs):
        seen.append((kwargs["c"], kwargs["d"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_master_pipeline", record)
    argv = ["--config", str(conf), "centralbag", "-i", str(g), "--pattern", str(pat),
            "-o", str(tmp_path / "cb.json")]
    assert main(argv) in (0, 2)
    assert seen == [(Fraction(2, 3), 0)]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "wall", "--n", "3", "--m", "3", "-o", "{out}"],
        ["tw", "-i", "claw.json", "--td", "{out}", "-o", "tw.json"],
        ["decompose", "--method", "chordal", "-i", "claw.json", "--td", "{out}",
         "-o", "d.json"],
        ["verify", "anchors", "-o", "{out}"],
    ],
    ids=["gen", "tw-td", "decompose-td", "verify"],
)
def test_dash_output_is_stdout(tmp_path, monkeypatch, capsys, argv):
    """`-` as an output path writes to standard output the bytes that a file
    path receives, and creates no file named `-`."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "claw", "-o", "claw.json"]) == 0
    code = main([a.replace("{out}", "file.out") for a in argv])
    capsys.readouterr()
    assert main([a.replace("{out}", "-") for a in argv]) == code
    assert capsys.readouterr().out == (tmp_path / "file.out").read_text()
    assert not list(tmp_path.glob("-*"))


def test_verify_all_dash_output_is_stdout(tmp_path, monkeypatch, capsys):
    """`verify all -o -` prints every suite's certificate, in suite order,
    as `verify all` with no -o does, and writes no `-.<suite>.json` file."""
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "all", "-o", "run"])
    capsys.readouterr()
    assert main(["verify", "all", "-o", "-"]) == code
    files = [(tmp_path / f"run.{name}.json").read_text() for name in sorted(SUITES)]
    assert capsys.readouterr().out == "".join(files)
    assert not list(tmp_path.glob("-*"))


def test_gen_k_defaults_per_family(tmp_path):
    """Without `--k`, `gen cycle-lci` builds the 4-point model and `gen
    creature` the 3-path creature it always built."""
    def gen(*argv):
        out, wit = tmp_path / "g.json", tmp_path / "w.json"
        assert main(["gen", *argv, "-o", str(out), "--witness", str(wit)]) == 0
        return out.read_bytes(), wit.read_bytes()

    assert gen("cycle-lci") == gen("cycle-lci", "--k", "4")
    assert gen("cycle-lci", "--size", "2") == gen("cycle-lci", "--k", "4", "--size", "2")
    assert gen("creature") == gen("creature", "--k", "3")
    graph, _ = gen("creature")
    assert hashlib.sha256(graph).hexdigest() == (
        "dc09d6227f1764c9f9c52df308fd3a6b0a0512eea3991000608e40575adc09ab"
    )
