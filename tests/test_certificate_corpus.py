"""Certificates written earlier stay checkable: `recheck` must confirm every
file of a frozen corpus.

`tests/data/certificates/` holds the 12 files of `twcert --seed 7 verify all
-o all` and the output of `twcert tw -i wall.json --td wall.td -o tw.json`
on the 3x3 wall (`twcert gen wall --n 3 --m 3`), as written when the corpus
was frozen.  Each must recheck with no problems, every record whose witness
names a kind and whose status is pass or fail checked and confirmed, and
its `summary` must count its records by status.  A change that drops a
witness form on purpose changes this test and says so.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from twcert.cli import main
from twcert.suites import SUITES

CORPUS = Path(__file__).resolve().parent / "data" / "certificates"
FILES = sorted(p.name for p in CORPUS.glob("*.json"))


def test_the_corpus_holds_every_suite_and_a_tw_certificate():
    assert FILES == sorted([*(f"all.{s}.json" for s in SUITES), "tw.json"])


@pytest.mark.parametrize("name", FILES)
def test_recheck_confirms_every_kinded_record(name, tmp_path):
    data = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    cert = data.get("certificate", data)
    records = cert["assertions"]
    kinded = sum(
        "kind" in r.get("witness", {}) and r["status"] in ("pass", "fail") for r in records
    )
    out = tmp_path / "recheck.json"
    assert main(["recheck", "-i", str(CORPUS / name), "-o", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report == {"checked": kinded, "confirmed": kinded, "problems": []}
    counts = Counter(r["status"] for r in records)
    assert cert["summary"] == {status: counts[status] for status in cert["summary"]}
    assert sum(cert["summary"].values()) == len(records)
