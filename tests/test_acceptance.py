"""Acceptance battery: one test per exit criterion, each printing a verdict
line and holding to its stated runtime budget."""

import time

from twcert.config import RunConfig
from twcert.generators import complete_bipartite, complete_graph, wall
from twcert.graphs import full_subdivision
from twcert.separators import exact_treewidth, treewidth_bounds
from twcert.suites import SUITES, random_tree, verify_suite

CFG = RunConfig()


def _report(number, name, cert_or_ok, started, budget_s):
    elapsed = time.time() - started
    if hasattr(cert_or_ok, "exit_code"):
        ok = cert_or_ok.counts["fail"] == 0 and cert_or_ok.exit_code() in (0, 2)
        detail = cert_or_ok.counts
    else:
        ok = bool(cert_or_ok)
        detail = ""
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {verdict} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_criterion_01_wall_facts():
    t0 = time.time()
    g = wall(3, 3)
    ok = g.n == 12 and g.max_degree() == 3
    tw, _ = exact_treewidth(g, cap=14)
    ok = ok and tw == 3
    b = treewidth_bounds(full_subdivision(g))
    ok = ok and b.exact == 3
    _report(1, "wall facts", ok, t0, 30)


def test_criterion_02_oracle_anchors():
    t0 = time.time()
    ok = exact_treewidth(complete_graph(4), cap=14)[0] == 3
    ok = ok and exact_treewidth(complete_bipartite(3, 3), cap=14)[0] == 3
    import random

    rng = random.Random(CFG.seed)
    for _ in range(10):
        ok = ok and exact_treewidth(random_tree(rng, rng.randint(2, 12)), cap=14)[0] == 1
    _report(2, "oracle anchors", ok, t0, 5)


def test_criterion_03_04_separation_bridge():
    t0 = time.time()
    cert = verify_suite("harvey-wood", CFG)
    _report(3, "separation-number bridge over the catalog", cert, t0, 300)
    # criterion 4 is the weighted half of the same battery
    weighted = [a for a in cert.assertions if a["check"] == "bridge.weighted"]
    ok = weighted and all(a["status"] == "pass" for a in weighted)
    _report(4, "small separators for seeded weights", bool(ok), t0, 300)


def test_criterion_05_bag_algebra():
    t0 = time.time()
    cert = verify_suite("bag-algebra", CFG)
    _report(5, "central bag algebra on 200 seeded triples", cert, t0, 120)


def test_criterion_06_bag_audit():
    t0 = time.time()
    cert = verify_suite("bag-audit", CFG)
    _report(6, "drop-audit re-validation", cert, t0, 60)


def test_criterion_07_conditional_claims():
    t0 = time.time()
    cert = verify_suite("conditional-bags", CFG)
    ok = cert.counts["fail"] == 0
    # the battery must exercise confirmed hypotheses, not only report unmet
    exercised = [a for a in cert.assertions if a["check"] == "conditional.exercised"]
    ok = ok and exercised and exercised[0]["status"] == "pass"
    _report(7, "conditional bag conclusions", bool(ok), t0, 600)


def test_criterion_08_forcers():
    t0 = time.time()
    claw_cert = verify_suite("forcer-claw", CFG)
    theta_cert = verify_suite("forcer-theta", CFG)
    ok = claw_cert.exit_code() == 0 and theta_cert.exit_code() == 0
    _report(8, "forcer verification on filtered corpora", ok, t0, 600)


def test_criterion_09_constructions():
    t0 = time.time()
    cert = verify_suite("constructions", CFG)
    _report(9, "chordal and interval constructions", cert, t0, 180)


def test_criterion_10_strip_assembly():
    t0 = time.time()
    cert = verify_suite("strip-assembly", CFG)
    _report(10, "strip-structure assembly", cert, t0, 60)


def test_criterion_11_detector_cross_validation():
    t0 = time.time()
    cert = verify_suite("detectors", CFG)
    _report(11, "detector cross-validation", cert, t0, 600)


def test_criterion_12_determinism():
    t0 = time.time()
    ok = True
    for name in sorted(SUITES):
        first = verify_suite(name, CFG).dumps()
        second = verify_suite(name, CFG).dumps()
        if first.encode() != second.encode():
            ok = False
            print(f"  suite {name} not byte-identical")
    _report(12, "byte-identical certificates", ok, t0, 1200)
