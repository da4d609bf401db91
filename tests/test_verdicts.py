"""Each verdict is stated once: a record's status is what its stored witness
rechecks as, conditional checks take their status from hypothesis and
conclusion, and the CLI rejects inputs it cannot honour with exit 64."""

import dataclasses
import json

import pytest

from twcert import suites
from twcert.centralbag import ConditionalCheck
from twcert.certify import Certificate
from twcert.check import recheck
from twcert.cli import USAGE_ERROR, main
from twcert.config import RunConfig


def _wall(tmp_path, n, m):
    path = tmp_path / f"wall{n}x{m}.json"
    assert main(["gen", "wall", "--n", str(n), "--m", str(m), "-o", str(path)]) == 0
    return str(path)


def _p2(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}\n')
    return str(path)


def _recheck_file(tmp_path, path):
    out = tmp_path / "recheck.json"
    code = main(["recheck", "-i", str(path), "-o", str(out)])
    return code, json.loads(out.read_text())


def test_expect_status_is_the_witness_comparison():
    cert = Certificate(command=["x"], seed=0)
    cert.expect("same", "equal values", [1, []], [1, []])
    cert.expect("differ", "unequal values", 0, 1)
    cert.expect("gated", "unmet hypothesis", 0, 1, hypothesis_met=False)
    assert [a.status for a in cert.assertions] == ["pass", "fail", "hypothesis-unmet"]
    assert cert.assertions[1].witness == {"got": 0, "expected": 1}
    assert recheck(json.loads(cert.dumps())) == (0, 0, [])


@pytest.mark.parametrize(
    "hyp, concl, status",
    [
        (False, True, "hypothesis-unmet"),
        (False, None, "hypothesis-unmet"),
        (True, True, "pass"),
        (True, False, "fail"),
        (True, None, "fail"),
    ],
)
def test_conditional_status_follows_hypothesis_and_conclusion(hyp, concl, status):
    assert ConditionalCheck("claim", hyp, concl).status == status


def test_every_certificate_rechecks_without_problems(tmp_path):
    prefix = str(tmp_path / "v")
    main(["--seed", "7", "verify", "all", "-o", prefix])
    paths = sorted(tmp_path.glob("v.*.json"))
    assert len(paths) == len(suites.SUITES)
    out = tmp_path / "cb.json"
    main(["centralbag", "-i", _wall(tmp_path, 3, 3), "--pattern", _p2(tmp_path),
          "-o", str(out)])
    checked = {}
    for path in paths + [out]:
        records = json.loads(path.read_text())
        records = records.get("certificate", records)["assertions"]
        code, rep = _recheck_file(tmp_path, path)
        assert code == 0 and rep["problems"] == [], path.name
        verdicts = [r["witness"] for r in records if r["status"] in ("pass", "fail")]
        assert rep["checked"] == sum("kind" in w for w in verdicts), path.name
        assert all(set(w) == {"got", "expected"} for w in verdicts if "kind" not in w)
        checked[path.name] = rep["checked"]
    assert {name: n for name, n in checked.items() if n} == {"v.anchors.json": 1}


def test_pipeline_failed_transfer_is_an_attested_fail(monkeypatch):
    real = suites.run_master_pipeline

    def with_failed_transfer(*args, **kwargs):
        rep = real(*args, **kwargs)
        failed = ConditionalCheck("a conclusion that fails", True, False)
        return dataclasses.replace(
            rep, transfer_checks=rep.transfer_checks + (failed,)
        )

    monkeypatch.setattr(suites, "run_master_pipeline", with_failed_transfer)
    cert = suites.suite_pipeline(RunConfig())
    status = {a.check_id: a.status for a in cert.assertions}
    assert status["pipeline.c9"] == "fail"
    checked, confirmed, problems = recheck(json.loads(cert.dumps()))
    assert problems == [] and checked == confirmed == 0


_ELEVEN = ", ".join(f'"{v}": "1/12"' for v in range(11))


@pytest.mark.parametrize(
    "text",
    [
        '{"0": "1/2", "1": "1/2"}',  # leaves out vertices
        "{" + _ELEVEN + ', "12": "1/12"}',  # names vertex 12, not 11
        "{" + _ELEVEN + ', "11": "1/24", "0": "1/24"}',  # names vertex 0 twice
        '["1/12"]',  # not an object
    ],
)
def test_weights_file_must_name_every_vertex_once(tmp_path, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    argv = ["centralbag", "-i", _wall(tmp_path, 3, 3), "--pattern", _p2(tmp_path),
            "--weights", str(path), "-o", str(tmp_path / "out.json")]
    assert main(argv) == USAGE_ERROR


@pytest.mark.parametrize("flag, want", [(None, "2/3"), ("1/2", "1/2"), ("3/4", "3/4")])
def test_verify_c_flag_overrides_config(tmp_path, monkeypatch, flag, want):
    seen = []

    def record(cfg):
        seen.append(str(cfg.c))
        return Certificate(command=["verify", "anchors"], seed=cfg.seed)

    monkeypatch.setitem(suites.SUITES, "anchors", record)
    conf = tmp_path / "c.conf"
    conf.write_text("c=2/3\n")
    argv = ["--config", str(conf), "verify", "anchors", "-o", str(tmp_path / "o.json")]
    if flag is not None:
        argv += ["--c", flag]
    assert main(argv) == 0
    assert seen == [want]


def test_malformed_verify_c_is_a_usage_error(tmp_path):
    argv = ["verify", "anchors", "--c", "abc", "-o", str(tmp_path / "o.json")]
    assert main(argv) == USAGE_ERROR


def _null_weights(tmp_path):
    n = json.loads(open(_wall(tmp_path, 2, 2)).read())["n"]
    return json.dumps({str(v): None for v in range(n)})


@pytest.mark.parametrize(
    "argv, text, suffix",
    [
        (["centralbag", "-i", "WALL22", "--pattern", "P2", "--weights", "FILE"], None, ".json"),
        (["decompose", "--method", "lci", "-i", "FILE"], "{}", ".json"),
        (["decompose", "--method", "strip", "-i", "FILE"], "{}", ".json"),
        (["tw", "-i", "FILE"], '{"n": null, "edges": []}', ".json"),
        (["tw", "-i", "FILE"], '{"n": 3, "edges": [[0, "a"]]}', ".json"),
        (["tw", "-i", "FILE"], '{"n": 3, "edges": [[true, 2]]}', ".json"),
        (["centralbag", "-i", "WALL22", "--pattern", "P2", "--weights", "FILE"],
         '{"0": true, "1": false, "2": false, "3": false}', ".json"),
        (["recheck", "-i", "FILE"], "[]", ".json"),
        (["recheck", "-i", "FILE"], "{}", ".json"),  # not a certificate: no assertions list
        (["tw", "-i", "FILE"], "p tw 3 1\n1\n", ".gr"),  # one endpoint
        (["tw", "-i", "FILE"], "1 2\n", ".gr"),  # no header
        (["tw", "-i", "FILE"], "p tw 2 1\n1 x\n", ".gr"),
        (["centralbag", "-i", "WALL22", "--pattern", "FILE"], "p tw 2 1\n1 3\n", ".gr"),
    ],
    ids=["null-weight", "lci-empty", "strip-empty", "null-n", "string-vertex",
         "bool-vertex", "bool-weight", "recheck-list", "recheck-empty",
         "gr-one-endpoint", "gr-no-header", "gr-non-integer",
         "gr-pattern-out-of-range"],
)
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, argv, text, suffix):
    path = tmp_path / f"input{suffix}"
    path.write_text(_null_weights(tmp_path) if text is None else text)
    files = {"FILE": str(path), "WALL22": _wall(tmp_path, 2, 2), "P2": _p2(tmp_path)}
    out = tmp_path / "out.json"
    assert main([files.get(a, a) for a in argv] + ["-o", str(out)]) == USAGE_ERROR
    assert str(path) in capsys.readouterr().err
    assert not out.exists()
