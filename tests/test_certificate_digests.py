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
    "centralbag --weights": (2, {
        "cb-weighted.json":
            "bb13469f2795419c1b988b8339246c2831846c9c723e4a807e35c1324b6fed21",
    }),
    "decompose chordal": (0, {
        "cat.td":
            "df88ad83838d38b624b5ce4aa0e39b3e0589bc6bd3b19465e8adf92a003b84f7",
        "chordal.json":
            "c5ebd42387bf85b93e2923a40f297dc4490ecce4ddd90858b0762e7974d8a203",
    }),
    "decompose chordal hole": (1, {
        "hole.json":
            "384891f8f393bffb6d6b6738877fc493be26e5a84bb852442c9f1a990e80a81d",
    }),
    "decompose lci": (0, {
        "lci.out.json":
            "13de96fc28a13d510daa54962a0af71945cd1321979fe19c20e28cdc97ebd379",
        "lci.td":
            "abcd024a53f61173d516d353842ec62c1fbaa62ca5f0e40a2f7399ed0549a7f8",
    }),
    "decompose lci-hole": (1, {
        "lci-hole.out.json":
            "54d15019b686f6b00fb2f792ce149be2f063895926289c85b41a7fac3e271057",
    }),
    "detect pyramid": (1, {
        "pyramid.json":
            "4e4ff758ee6da5728653d7ce7fed7577d3945231dd2a460aa3a0d48ecbf12add",
    }),
    "detect theta": (0, {
        "theta.json":
            "09a2aadad88ff2e6ca39b593530795bdf347dfd14b34f28f29e4ecf774572ea1",
    }),
    "gen caterpillar": (0, {
        "cat-witness.json":
            "635c3d19bced2734072ff183205cca10359e35a02b0876406147dcf18b09c028",
        "cat.json":
            "2a419c505df7e247040353f1e8f592a5ea0b9f902656613c6bd809b8e9979a14",
    }),
    "recheck tw": (0, {
        "recheck.json":
            "75f3e79d4d90da28f3f686bd54cf8c8024e64b464b3c992b3d0faf8960cd075b",
    }),
    "sep": (0, {
        "sep.json":
            "f384d67cdeb54ff264cffc11cfa7731f6e98a48f305e54f84834755ca9ca8d18",
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

# `decompose --method lci` inputs: the 4-point model of `gen cycle-lci`, and
# one whose cut leaves a 5-cycle, so it fails with a hole in host ids
LCI_MODELS = {
    "lci": {
        "points": ["0", "1/4", "1/2", "3/4"],
        "arcs": [["0", "1/4"], ["31/128", "65/128"], ["31/64", "49/64"],
                 ["93/128", "3/128"]],
        "sizes": [2, 2, 2, 2],
    },
    "lci-hole": {
        "points": ["0", "1/6", "1/3", "1/2", "2/3", "5/6"],
        "arcs": [["999/1000", "1/100"], ["15/100", "34/100"], ["33/100", "51/100"],
                 ["49/100", "67/100"], ["66/100", "84/100"], ["83/100", "17/100"]],
    },
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
    # vertex v weighs (v + 1)/78 on the 12-vertex wall: non-uniform, sums to one
    (directory / "w12.json").write_text(
        json.dumps({str(v): f"{v + 1}/78" for v in range(12)}))
    rc = _run(["centralbag", "-i", "wall.json", "--pattern", "p3.json",
               "--weights", "w12.json", "-o", "cb-weighted.json"])
    got["centralbag --weights"] = (rc, digests("cb-weighted.json"))
    rc = _run(["gen", "caterpillar", "--spine", "3", "--legs", "2,1;1;;1,2",
               "-o", "cat.json", "--witness", "cat-witness.json"])
    got["gen caterpillar"] = (rc, digests("cat.json", "cat-witness.json"))
    rc = _run(["detect", "--pattern", "theta", "--t", "2", "-i", "wall.json",
               "-o", "theta.json"])
    got["detect theta"] = (rc, digests("theta.json"))
    rc = _run(["detect", "--pattern", "pyramid", "--t", "1", "-i", "wall.json",
               "-o", "pyramid.json"])
    got["detect pyramid"] = (rc, digests("pyramid.json"))
    assert _run(["gen", "wall", "--n", "3", "--m", "2", "-o", "w32.json"]) == 0
    rc = _run(["sep", "-i", "w32.json", "-o", "sep.json"])
    got["sep"] = (rc, digests("sep.json"))
    rc = _run(["decompose", "--method", "chordal", "-i", "cat.json",
               "--td", "cat.td", "-o", "chordal.json"])
    got["decompose chordal"] = (rc, digests("chordal.json", "cat.td"))
    rc = _run(["decompose", "--method", "chordal", "-i", "wall.json", "-o", "hole.json"])
    got["decompose chordal hole"] = (rc, digests("hole.json"))
    for label, model in LCI_MODELS.items():
        (directory / f"{label}.json").write_text(json.dumps(model))
        rc = _run(["decompose", "--method", "lci", "-i", f"{label}.json",
                   "--td", f"{label}.td", "-o", f"{label}.out.json"])
        # a failed run writes no .td, so none is pinned for it
        tds = (f"{label}.td",) if (directory / f"{label}.td").exists() else ()
        got[f"decompose {label}"] = (rc, digests(f"{label}.out.json", *tds))
    rc = _run(["recheck", "-i", "tw.json", "-o", "recheck.json"])
    got["recheck tw"] = (rc, digests("recheck.json"))
    return got


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _outputs(tmp_path) == PINS
