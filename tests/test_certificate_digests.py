"""Byte-identity gate: the sha256 and exit code of fixed command outputs.

Every command runs in process from a scratch directory with relative paths,
because certificates record their input paths.  A change that alters any of
these bytes on purpose must update the pins below and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

from twcert.cli import main
from twcert.suites import SUITES

# command label -> (exit code, {output file: sha256})
PINS = {
    "centralbag": (2, {
        "cb.json":
            "23065b9973f2222c23fc0b06268f944ffd8ccf807f08a4054baed9f4377804ed",
    }),
    "gen caterpillar": (0, {
        "cat-witness.json":
            "635c3d19bced2734072ff183205cca10359e35a02b0876406147dcf18b09c028",
        "cat.json":
            "2a419c505df7e247040353f1e8f592a5ea0b9f902656613c6bd809b8e9979a14",
    }),
    "tw --td": (0, {
        "tw.json":
            "9e78afb126dee6603b6e351a544a11d75bdfd6895251d67e747b0625428dd125",
        "wall.td":
            "e5b6777f861f1c2e967b0834c521960de1d87134826e21eb1b112122cb2e7744",
    }),
    "verify all": (0, {
        "all.anchors.json":
            "82eb3542cc80f6aeb868849419d83a79cf2129719da84f780970d12c5fa2e8df",
        "all.bag-algebra.json":
            "aec75cb4f46a3de85c861bb4814650536d62cd5a8dd799f0e1346740218804f2",
        "all.bag-audit.json":
            "1776cb60478da659b880cebc35f53737201af75efd94dc170d46b9da1dd6411b",
        "all.conditional-bags.json":
            "65396d240ceb3a21f478d08a0c8da0e68cbea70ca2f28f4d7200e9224a7893d5",
        "all.constructions.json":
            "55c3caa1a30d3c9cebee4397a0dc7f35e8718bded214cc613e2111dc28e2097c",
        "all.creatures.json":
            "66c6270cd911fafde9a12ac354e5fef650b5b420fd79b1ebca53cb105c306c02",
        "all.detectors.json":
            "2e3a544da7a88c8c9f6942ba6dc24a23928a53b1e055b832341517e58c8fffcb",
        "all.forcer-claw.json":
            "ac8c11ce115d6564c9c4f26edbe8c7567e471c69b18c726d2065b1130f5cdb1c",
        "all.forcer-theta.json":
            "51115fe5e85d0bc423a52e8b3fc015ccff62f4134bd1df93622dfed3aa513dc9",
        "all.harvey-wood.json":
            "71a073afbcd3efdd8a51862e5cc741df1ec3bedfc0d351f364101772f6b39dc5",
        "all.pipeline.json":
            "ed47f64287a013b82175c0931c660fd3063d05e5f755f7bd332dee98be00c478",
        "all.strip-assembly.json":
            "d10651050f49321d8e4034a017a233b62fba8e73c9d937a90eb320c9386a4392",
    }),
}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _outputs(directory):
    """Run every pinned command inside directory; label -> (exit code, digests)."""

    def digests(*names):
        return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}

    got = {}
    rc = _run(["--seed", "7", "verify", "all", "-o", "all"])
    got["verify all"] = (rc, digests(*(f"all.{s}.json" for s in SUITES)))
    assert _run(["gen", "wall", "--n", "3", "--m", "3", "-o", "wall.json"]) == 0
    rc = _run(["tw", "-i", "wall.json", "--td", "wall.td", "-o", "tw.json"])
    got["tw --td"] = (rc, digests("tw.json", "wall.td"))
    (directory / "p3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    rc = _run(["centralbag", "-i", "wall.json", "--pattern", "p3.json", "-o", "cb.json"])
    got["centralbag"] = (rc, digests("cb.json"))
    rc = _run(["gen", "caterpillar", "--spine", "3", "--legs", "2,1;1;;1,2",
               "-o", "cat.json", "--witness", "cat-witness.json"])
    got["gen caterpillar"] = (rc, digests("cat.json", "cat-witness.json"))
    return got


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _outputs(tmp_path) == PINS
