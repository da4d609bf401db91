"""Byte-identity gate: the sha256 and exit code of fixed command outputs.

Every command runs in process from a scratch directory with relative paths,
because certificates record their input paths.  A change that alters any of
these bytes on purpose must update the pins below and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations

from twcert.cli import main
from twcert.suites import SUITES

# command label -> (exit code, {output file: sha256})
PINS = {
    "centralbag": (2, {
        "cb.json":
            "7572a348b51ddccbac7ae98b9fbf87f0cc46c17367e14188cb1e8b143570c960",
    }),
    "centralbag --forcer": (2, {
        "cb-forcer.json":
            "451d10e5a7f4457ce6af8d86ed2ccbf60b0428c02d34284887d90a7644630cf3",
    }),
    "centralbag --weights": (2, {
        "cb-weighted.json":
            "5873fa148f713d3e41b7a52165330f4cb83a54692c380107727dbce16e97059a",
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
    "decompose strip": (0, {
        "strips.out.json":
            "d4d0e043b3d91dcae3d494a8f2383ed21b5371c660e97b59bdc8a5e1d08f9219",
        "strips.td":
            "bb3b2f393e9a662990e4f640b725c8062de0bcac3851dfd7cdbc1c1c1c1f4bc6",
    }),
    "detect creature": (0, {
        "creature.json":
            "54982cc9b3fdb875cdf60fa6532a1ab7fb5ff6608c1e1131dd7e90ce1c0d3f6e",
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
            "b350c51a17e9fe01fc5bf0a00b0a2416b877f3865d09807f6cb340efabf3da5f",
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
            "a8fd9823ef7ea3cc81ec1a634ecfd547d961c7cd146881891dccd5d4f16771c8",
        "wall.td":
            "3e8c9c15bb7ca290514b4f53c196d3b420a84f5a0aa800044522b70bf713803a",
    }),
    "tw --td overshoot": (0, {
        "over.td":
            "088fffcc5722401c52566d8c7ddea7ca0c532184b0573b11e72d8047d721d1b6",
        "tw-over.json":
            "153c38c776aa98eb0735ae363f86426c9c7fcddffdd805399de508a3c3188816",
    }),
    "verify all": (0, {
        "all.anchors.json":
            "59f27b4104ea8d8f8dd60a092f3cc93c7e6be32681d7528d1c6a9e5798ceb687",
        "all.bag-algebra.json":
            "2aa5aa40a18f4ffdc64725ec10609aee635cf1c0573895abe15d23afc2ed9fa6",
        "all.bag-audit.json":
            "0d1970b9011a3830644bdd583b16818ca48e8c06c53069b4155a04520081580f",
        "all.conditional-bags.json":
            "81680b2a5a95a0f278787ecf1a90a4613aa29afe74aa209e471071746aca93ad",
        "all.constructions.json":
            "c77fadeff0c7f40d220883e85da55bfa908d1c30e57013f50154ed07ba27599c",
        "all.creatures.json":
            "71f3427288e4d238b655c548254103974059e58e708d53537e070b239abf4318",
        "all.detectors.json":
            "73bf8de986c6b388a2cb63dd3e8b04df9b6069529f3f3beb1effa51ad2902aa5",
        "all.forcer-claw.json":
            "d4cad47739acaef0fa0b9c2d17fee1a750ca433580875f21e9b8a87d4c127aed",
        "all.forcer-theta.json":
            "0b88b4e70e96c70726340395e3f41fda9d051038a682f3b6f2301f4b4beab724",
        "all.harvey-wood.json":
            "959d429909609397d6f9361b242b507891a550504d4579b7f9df90fd0c287fd5",
        "all.pipeline.json":
            "454193d1928b48b98651e8aca6822def515150e947f026caa4ce9481e3369e40",
        "all.strip-assembly.json":
            "9ef84cf390cae68e301f6c12100dc753906a5632af910fbc603ff328170dfe9a",
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
    # a claw plus an isolated vertex and subdivided_claw(2, 1, 1) are verified
    # forcers for P3 on the wall; P4 is not one, so its premise is unmet
    forcers = {
        "claw-k1": {"n": 5, "edges": [[0, 1], [0, 2], [0, 3]]},
        "claw211": {"n": 5, "edges": [[0, 1], [0, 3], [0, 4], [1, 2]]},
        "p4": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    }
    forcer_args = []
    for name, forcer in forcers.items():
        (directory / f"{name}.json").write_text(json.dumps(forcer))
        forcer_args += ["--forcer", f"{name}.json"]
    rc = _run(["centralbag", "-i", "wall.json", "--pattern", "p3.json",
               *forcer_args, "-o", "cb-forcer.json"])
    got["centralbag --forcer"] = (rc, digests("cb-forcer.json"))
    rc = _run(["gen", "caterpillar", "--spine", "3", "--legs", "2,1;1;;1,2",
               "-o", "cat.json", "--witness", "cat-witness.json"])
    got["gen caterpillar"] = (rc, digests("cat.json", "cat-witness.json"))
    rc = _run(["detect", "--pattern", "theta", "--t", "2", "-i", "wall.json",
               "-o", "theta.json"])
    got["detect theta"] = (rc, digests("theta.json"))
    rc = _run(["detect", "--pattern", "pyramid", "--t", "1", "-i", "wall.json",
               "-o", "pyramid.json"])
    got["detect pyramid"] = (rc, digests("pyramid.json"))
    rc = _run(["detect", "--pattern", "creature", "--k", "2", "--t", "1",
               "-i", "wall.json", "-o", "creature.json"])
    got["detect creature"] = (rc, digests("creature.json"))
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
    # min-fill gives 8 and tw is 7, so the witness is read back from the
    # refutation table rather than taken from min-fill
    rng = random.Random(28)
    edges = [e for e in combinations(range(12), 2) if rng.random() < 0.6]
    (directory / "over.json").write_text(json.dumps({"n": 12, "edges": edges}))
    rc = _run(["tw", "-i", "over.json", "--td", "over.td", "-o", "tw-over.json"])
    got["tw --td overshoot"] = (rc, digests("tw-over.json", "over.td"))
    # the structure file is the witness of `gen strip` plus its host graph
    assert _run(["gen", "strip", "--kind", "lci_strips", "-o", "host.json",
                 "--witness", "roles.json"]) == 0
    structure = json.loads((directory / "roles.json").read_text())
    del structure["family"]
    structure["host"] = json.loads((directory / "host.json").read_text())
    (directory / "strips.json").write_text(json.dumps(structure))
    rc = _run(["decompose", "--method", "strip", "-i", "strips.json",
               "--td", "strips.td", "-o", "strips.out.json"])
    got["decompose strip"] = (rc, digests("strips.out.json", "strips.td"))
    return got


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _outputs(tmp_path) == PINS
