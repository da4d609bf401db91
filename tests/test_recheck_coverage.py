"""How much of each certificate `recheck` re-derives, pinned row by row.

One row per file of `twcert --seed 7 verify all -o all`, read from the
frozen corpus `tests/data/certificates/` (which other tests hold equal to a
fresh run), plus one row per certificate-writing command: `tw` on the 3x3
wall, also from the corpus, and `centralbag` on the 3x3 wall with the
pattern P3, run here.  Each row pins the number of records and the number
that `recheck` checked; every checked record must also be confirmed, so
`problems` stays empty.

The rule: a row's checked count may only rise, and its count of attested
records (those `recheck` does not check) only fall.  A change that moves a
row changes it here on purpose and names the row in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from twcert.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "certificates"

# certificate -> (records, checked by `recheck`)
TABLE = {
    "all.anchors.json": (7, 1),
    "all.bag-algebra.json": (1, 0),
    "all.bag-audit.json": (1, 0),
    "all.conditional-bags.json": (10, 0),
    "all.constructions.json": (2, 0),
    "all.creatures.json": (2, 0),
    "all.detectors.json": (8, 0),
    "all.forcer-claw.json": (2, 0),
    "all.forcer-theta.json": (1, 0),
    "all.harvey-wood.json": (3, 0),
    "all.pipeline.json": (4, 0),
    "all.strip-assembly.json": (1, 0),
    "tw.json": (1, 1),
    "centralbag-wall3x3-p3": (7, 0),
}


def _certificate(name: str, tmp_path: Path) -> Path:
    """The path of the row's certificate, written here when it is not in the
    corpus."""
    if (CORPUS / name).exists():
        return CORPUS / name
    wall, p3, out = tmp_path / "wall.json", tmp_path / "p3.json", tmp_path / "cb.json"
    p3.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert main(["gen", "wall", "--n", "3", "--m", "3", "-o", str(wall)]) == 0
    assert main(["centralbag", "-i", str(wall), "--pattern", str(p3), "-o", str(out)]) == 2
    return out


def test_the_table_has_a_row_for_every_corpus_file():
    assert {p.name for p in CORPUS.glob("*.json")} <= set(TABLE)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_recheck_coverage(name, tmp_path):
    path = _certificate(name, tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    records = len(data.get("certificate", data)["assertions"])
    report_path = tmp_path / "recheck.json"
    assert main(["recheck", "-i", str(path), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["problems"] == []
    assert report["confirmed"] == report["checked"]
    assert (records, report["checked"]) == TABLE[name]
