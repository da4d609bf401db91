"""`gen --witness` and `detect` name a pattern's parts in one vocabulary, the
roles of the generator's `Instance`.  On each generated graph the witness's
keys, besides `family`, are the role keys `detect` reports for the same
pattern; for theta, pyramid and claw the witness's vertices, the union of
its role lists, are the whole graph and subdivide the family's shape."""

import contextlib
import io
import json

import pytest

from twcert.check import PYRAMID_SHAPE, THETA_SHAPE, claw_shape, is_subdivision_set
from twcert.cli import main
from twcert.io import graph_from_json


def claw(legs: tuple[int, int, int]) -> list[str]:
    return ["claw", *(f"--t{i}={t}" for i, t in enumerate(legs, 1))]


# name: (gen arguments, detect arguments, shape; None for creatures)
CASES = {
    "theta-223": (["theta", "--l1=2", "--l2=2", "--l3=3"], ["theta", "--t=2"], THETA_SHAPE),
    "theta-345": (["theta", "--l1=3", "--l2=4", "--l3=5"], ["theta", "--t=3"], THETA_SHAPE),
    "pyramid-122": (
        ["pyramid", "--l1=1", "--l2=2", "--l3=2"], ["pyramid", "--t=1"], PYRAMID_SHAPE
    ),
    "pyramid-234": (
        ["pyramid", "--l1=2", "--l2=3", "--l3=4"], ["pyramid", "--t=2"], PYRAMID_SHAPE
    ),
    **{
        f"claw-{''.join(map(str, legs))}": (claw(legs), claw(legs), claw_shape(legs))
        for legs in ((1, 1, 1), (1, 2, 3), (0, 1, 2))
    },
    "creature-k2-t1": (["creature", "--k=2", "--t=1"], ["creature", "--k=2", "--t=1"], None),
    "creature-k3-t2": (
        ["creature", "--k=3", "--t=2", "--spacing=3"], ["creature", "--k=3", "--t=2"], None
    ),
}


def run(argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_witness_keys_are_the_detect_role_keys(tmp_path, name):
    gen, detect, shape = CASES[name]
    path = tmp_path / "g.json"
    code, text = run(["gen", *gen, "-o", str(path), "--witness", "-"])
    assert code == 0
    witness = json.loads(text)
    assert witness.pop("family") == gen[0]
    code, text = run(["detect", "--pattern", *detect, "-i", str(path)])
    assert code == 0
    assert witness.keys() == json.loads(text)["roles"].keys()
    if shape is not None:
        g = graph_from_json(json.loads(path.read_text()))
        vs = sorted(set().union(*witness.values()))
        assert vs == list(g.vertices)
        assert is_subdivision_set(g, vs, shape)
