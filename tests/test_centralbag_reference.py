"""`is_laminar`, `is_a_laminar` and the level flag against the three
laminarity methods they replaced.

`SeparationSequence` once had `is_laminar`, `is_a_laminar` and
`is_a_loosely_laminar`, one per `RelationFlags` field; they are kept here,
verbatim but for `relation`, which comes from `conftest`, as the reference.
On seeded random connected graphs with path patterns and uniform or random
weights, the pairwise tests must agree with them on every sequence the
engine tests (A-loose laminarity only as each level's flag, the one place
the engine tests it), and the transfer checks must reach the conclusions
the old methods reach.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import bc_union, relation, restricted
from twcert.centralbag import (
    SeparationSequence,
    central_bag,
    check_bag_separator_transfer,
    covering_sequence,
    dimension_partition,
    is_a_laminar,
    is_laminar,
    no_small_separator,
)
from twcert.config import Budget, RunConfig
from twcert.generators import path_graph
from twcert.graphs import geometric_ball_bound
from twcert.suites import random_connected, random_weights
from twcert.weights import WeightFunction

HALF = Fraction(1, 2)
FLAGS = ("non_crossing", "a_non_crossing", "a_loosely_non_crossing")
PAIRWISE = {"non_crossing": is_laminar, "a_non_crossing": is_a_laminar}


class ReferenceSequence(SeparationSequence):
    def is_laminar(self) -> bool:
        return all(
            relation(s1, s2).non_crossing
            for s1, s2 in combinations(self.separations, 2)
        )

    def is_a_laminar(self) -> bool:
        return all(
            relation(s1, s2).a_non_crossing
            for s1, s2 in combinations(self.separations, 2)
        )

    def is_a_loosely_laminar(self) -> bool:
        return all(
            relation(s1, s2).a_loosely_non_crossing
            for s1, s2 in combinations(self.separations, 2)
        )


def reference(seps) -> dict[str, bool]:
    ref = ReferenceSequence(separations=tuple(seps))
    return {
        "non_crossing": ref.is_laminar(),
        "a_non_crossing": ref.is_a_laminar(),
        "a_loosely_non_crossing": ref.is_a_loosely_laminar(),
    }


def instances(count: int = 300, seed: int = 9):
    """(graph, weights, pattern, d): n = 3..8, patterns P1-P3, uniform or
    random rational weights."""
    rng = random.Random(seed)
    for idx in range(count):
        n = 3 + idx % 6
        g = None
        while g is None:
            g = random_connected(rng, n, rng.choice((0.35, 0.5, 0.7)))
        w = WeightFunction.uniform(g) if rng.random() < 0.5 else random_weights(rng, g)
        yield g, w, path_graph(rng.randint(1, 3)), rng.randint(1, 3)


def restricted_levels(g, seq, result):
    """Each level's kept members restricted to the bag before that level."""
    bag = set(range(g.n))
    out = []
    for cls in result.generator:
        out.append([restricted(seq.separations[i], bag) for i in cls])
        for i in cls:
            bag &= set(bc_union(seq.separations[i]))
    return out


@pytest.fixture(scope="module")
def corpus():
    out = []
    for g, w, pattern, d in instances():
        seq = covering_sequence(g, w, pattern, Budget(RunConfig.search_budget))
        classes = dimension_partition(seq)
        result = central_bag(g, w, seq, classes)
        out.append((g, w, d, seq, classes, result))
    return out


def test_all_pairs_matches_reference_methods(corpus):
    outcomes = {kind: {flag: [] for flag in FLAGS} for kind in ("whole", "class")}
    for g, w, d, seq, classes, result in corpus:
        members = seq.separations
        groups = [("whole", list(members))]
        groups += [("class", [members[i] for i in cls]) for cls in classes]
        groups += [("kept", [members[i] for i in cls]) for cls in result.generator]
        levels = restricted_levels(g, seq, result)
        assert len(levels) == len(result.levels)
        for lvl, restricted in zip(result.levels, levels):
            groups.append(("level", restricted))
            assert lvl.restricted_a_loosely_laminar == reference(restricted)[
                "a_loosely_non_crossing"
            ]
        for kind, seps in groups:
            want = reference(seps)
            for flag in FLAGS:
                if flag in PAIRWISE:
                    assert PAIRWISE[flag](seps) == want[flag], (kind, flag)
                if kind in outcomes:
                    outcomes[kind][flag].append(want[flag])
    # the sample exercises both outcomes, not only the vacuous True
    for flag in FLAGS:
        assert False in outcomes["whole"][flag] and True in outcomes["whole"][flag]
    assert False in outcomes["class"]["a_non_crossing"]


def test_transfer_conclusions_match_reference_methods(corpus):
    for g, w, d, seq, classes, result in corpus:
        members = seq.separations
        no_sep = no_small_separator(g, w, HALF, d)
        _, t = seq.goodness(g)
        checks = check_bag_separator_transfer(
            g, w, HALF, d, seq, classes, t, result, no_sep
        )
        by_claim = {chk.claim: chk for chk in checks}
        strong = by_claim["strongly laminar classes are laminar"]
        assert strong.conclusion_holds == all(
            reference([members[i] for i in cls])["non_crossing"] for cls in classes
        )
        kept = [reference([members[i] for i in cls]) for cls in result.generator]
        primordial = by_claim["primordial laminar classes are A-laminar"]
        assert primordial.conclusion_holds == all(r["a_non_crossing"] for r in kept)
        gamma_t1 = geometric_ball_bound(g.max_degree(), t + 1)
        assert primordial.hypothesis_met == (
            no_sep and d >= gamma_t1 and all(r["non_crossing"] for r in kept)
        )
