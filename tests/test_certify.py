import json

import pytest

from twcert.certify import (
    Assertion,
    Certificate,
    canonical_json,
    graph_witness,
    td_witness,
)
from twcert.check import recheck, validate_td
from twcert.cli import main
from twcert.generators import path_graph, wall
from twcert.graphs import TreeDecomposition
from twcert.separators import exact_treewidth


def _cert_with(*entries):
    cert = Certificate(command=["test"], seed=1)
    for e in entries:
        cert.assertions.append(e)
    return cert


def test_exit_codes():
    cert = _cert_with(Assertion("a", "d", "pass", {}))
    assert cert.exit_code() == 0
    cert.assertions.append(Assertion("b", "d", "hypothesis-unmet", {}))
    assert cert.exit_code() == 2
    cert.assertions.append(Assertion("c", "d", "fail", {}))
    assert cert.exit_code() == 1


def test_unknown_status_rejected():
    with pytest.raises(ValueError):
        Assertion("a", "d", "maybe", {})


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")


def test_recheck_td_witness():
    g = wall(2, 2)
    tw, td = exact_treewidth(g, cap=14)
    cert = Certificate(command=["x"], seed=0)
    cert.add(
        "tw.witness",
        "witness validates",
        True,
        {
            "kind": "td-valid",
            "graph": graph_witness(g),
            "bags": [list(b) for b in td.bags],
            "tree_edges": [list(e) for e in td.tree_edges],
            "width_at_most": tw,
        },
    )
    checked, confirmed, problems = recheck(json.loads(cert.dumps()))
    assert (checked, confirmed, problems) == (1, 1, [])


def test_recheck_catches_tampering():
    g = path_graph(4)
    cert = Certificate(command=["x"], seed=0)
    cert.add(
        "pattern",
        "an induced path claim",
        True,
        {
            "kind": "pattern-found",
            "graph": graph_witness(g),
            "pattern": graph_witness(path_graph(3)),
            "mapping": [0, 1, 3],  # 1 and 3 are not adjacent: bogus
        },
    )
    checked, confirmed, problems = recheck(json.loads(cert.dumps()))
    assert checked == 1 and confirmed == 0 and problems


def test_recheck_confirms_a_valid_pattern_witness():
    cert = Certificate(command=["x"], seed=0)
    cert.add(
        "pattern",
        "an induced path",
        True,
        {
            "kind": "pattern-found",
            "graph": graph_witness(path_graph(4)),
            "pattern": graph_witness(path_graph(3)),
            "mapping": [0, 1, 2],
        },
    )
    assert recheck(json.loads(cert.dumps())) == (1, 1, [])


def test_hypothesis_unmet_never_rechecked_as_verdict():
    # width 1 exceeds the stored bound 0, so a pass record of this witness
    # would recheck as fail
    td = TreeDecomposition(bags=((0, 1),), tree_edges=())
    bogus = td_witness(path_graph(2), td, 0)
    cert = Certificate(command=["x"], seed=0)
    cert.add("h", "gated claim", True, bogus, hypothesis_met=False)
    checked, confirmed, problems = recheck(json.loads(cert.dumps()))
    assert checked == 0 and not problems
    cert.add("v", "ungated claim", True, bogus)
    assert recheck(json.loads(cert.dumps()))[:2] == (1, 0)


@pytest.mark.parametrize(
    "entry",
    [
        1,
        {"check": "x", "witness": {"got": 1, "expected": 1}},
        {"check": "x", "status": "maybe", "witness": {}},
        {"check": "x", "status": "pass", "witness": [1]},
        {"check": "x", "status": ["pass"], "witness": {}},
        {"status": "pass", "witness": {"got": 1, "expected": 1}},
    ],
    ids=["int", "no-status", "unknown-status", "list-witness", "list-status",
         "no-check"],
)
def test_recheck_reports_malformed_record(entry):
    td = TreeDecomposition(bags=((0, 1),), tree_edges=())
    sound = {"check": "y", "status": "pass",
             "witness": td_witness(path_graph(2), td, 1)}
    checked, confirmed, problems = recheck({"assertions": [sound, entry]})
    assert (checked, confirmed) == (1, 1)
    assert problems == [
        "assertion 1: not a record with a check, a known status and a witness object"
    ]


def test_recheck_reports_unhashable_witness_kind():
    entry = {"check": "x", "status": "pass", "witness": {"kind": ["equal"]}}
    assert recheck({"assertions": [entry]})[2] == [
        "x: no validator for witness kind ['equal']"
    ]


def test_recheck_td_witness_with_negative_vertex_fails():
    g = path_graph(2)
    cert = Certificate(command=["x"], seed=0)
    cert.add(
        "tw.witness",
        "a tampered witness",
        True,
        {
            "kind": "td-valid",
            "graph": graph_witness(g),
            "bags": [[-1, 0, 1]],
            "tree_edges": [],
            "width_at_most": 2,
        },
    )
    checked, confirmed, problems = recheck(json.loads(cert.dumps()))
    assert (checked, confirmed) == (1, 0)
    assert problems == ["tw.witness: stored status pass but witness rechecks as fail"]


EDGE = {"n": 2, "edges": [[0, 1]]}
PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize(
    "pattern, mapping",
    [(EDGE, [-1, 1]), ({"n": 2, "edges": []}, [0, 7]), (EDGE, [0, -3])],
    ids=["negative-wraps-to-last", "past-the-end", "negative-shift"],
)
def test_recheck_pattern_mapping_outside_host_fails(pattern, mapping):
    witness = {"kind": "pattern-found", "graph": PATH3, "pattern": pattern,
               "mapping": mapping}
    entry = {"check": "x", "status": "pass", "witness": witness}
    assert recheck({"assertions": [entry]}) == (
        1, 0, ["x: stored status pass but witness rechecks as fail"]
    )


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"kind": "td-valid", "graph": EDGE, "bags": [[False, True]], "tree_edges": [],
          "width_at_most": 1}, "bag vertex must be an integer, got False"),
        ({"kind": "td-valid", "graph": EDGE, "bags": [[0, 1], [1]],
          "tree_edges": [[0, True]], "width_at_most": 1},
         "tree edge end must be an integer, got True"),
        ({"kind": "td-valid", "graph": EDGE, "bags": [[0, 1]], "tree_edges": [],
          "width_at_most": True}, "width_at_most must be an integer, got True"),
        ({"kind": "pattern-found", "graph": EDGE, "pattern": EDGE,
          "mapping": [False, True]}, "mapping entry must be an integer, got False"),
    ],
    ids=["bool-bag", "bool-tree-edge", "bool-width", "bool-mapping"],
)
def test_recheck_reports_non_integer_witness_entries(witness, message):
    entry = {"check": "x", "status": "pass", "witness": witness}
    assert recheck({"assertions": [entry]}) == (1, 0, [f"x: recheck error {message}"])


@pytest.mark.parametrize(
    "bags, tree_edges, violations",
    [
        ((), (), ("decomposition has no nodes",)),
        (((0, 1), (1, 2), (1,)), ((0, 1), (0, 1)),
         ("decomposition tree is not connected",
          "bags containing vertex 1 induce a disconnected subtree")),
        (((0, 1),), (), ("vertex 2 in no bag", "edge (1,2) inside no bag")),
    ],
    ids=["no-bags", "disconnected-tree", "uncovered-vertex"],
)
def test_broken_decomposition_fails_validation_and_recheck(tmp_path, bags, tree_edges,
                                                            violations):
    g = path_graph(3)
    rep = validate_td(g, TreeDecomposition(bags=bags, tree_edges=tree_edges))
    assert not rep.ok and rep.violations == violations
    witness = {"kind": "td-valid", "graph": graph_witness(g), "bags": bags,
               "tree_edges": tree_edges, "width_at_most": 1}
    path, out = tmp_path / "cert.json", tmp_path / "rc.json"
    path.write_text(json.dumps({"assertions": [
        {"check": "tw.witness", "status": "pass", "witness": witness}]}))
    assert main(["recheck", "-i", str(path), "-o", str(out)]) == 1
    assert json.loads(out.read_text())["problems"] == [
        "tw.witness: stored status pass but witness rechecks as fail"
    ]
