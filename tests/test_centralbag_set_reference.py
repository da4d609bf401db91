"""The mask-based separation relations and central bag against the
set-based code they replaced.

`relation`, `is_shield`, `make_primordial`, `central_bag` and
`audit_is_complete` once rebuilt sets and masks from the `Separation`
tuples on every call; they are kept here as the reference (each calls the
reference copies of the others), verbatim but for the set helpers
`bc_union`, `restricted` and `is_connected_set`, which `Separation` and
`Graph` no longer have: the first two come from `conftest`, the last is a
mask test.  `relation` and its `RelationFlags` are in `conftest` too, since
the package now keeps only the two flags it tests, as `is_laminar` and
`is_a_laminar`, and `central_bag` takes the partition's classes.  The
package's `make_primordial` takes the B+C masks and returns only the drop
pairs, so it is compared with the reference's pairs.
`Separation` now carries `a_mask`, `c_mask` and `b_mask`, which the
production code reads instead.  On seeded triples shaped like the
`bag-algebra` suite's and on the 3x3 and 4x4 walls with paths P2-P4, every
pairwise relation and shield, the primordial reduction and the whole
`CentralBagResult`, drops included, must be equal.  Restricting a level's A-loose test to the previous bag
changes no flag on that corpus, so one hand-built sequence pins it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import pytest

from conftest import bc_union, recompute_bag, relation, restricted, sep
from twcert import centralbag as cb
from twcert.centralbag import (
    CentralBagResult,
    DropRecord,
    LevelRecord,
    Separation,
    SeparationSequence,
    _require_connected_and_normal,
    covering_sequence,
    dimension_partition,
)
from twcert.config import Budget, RunConfig
from twcert.generators import path_graph, wall
from twcert.graphs import Graph, mask_of
from twcert.suites import _bag_corpus, random_weights
from twcert.weights import WeightFunction


def all_pairs(seps: Sequence[Separation], flag: str) -> bool:
    """Whether every pair of the separations has the `RelationFlags` field
    `flag` set: "non_crossing" tests laminarity, "a_non_crossing"
    A-laminarity and "a_loosely_non_crossing" A-loose laminarity."""
    return all(getattr(relation(s1, s2), flag) for s1, s2 in combinations(seps, 2))


def is_shield(s1: Separation, s2: Separation) -> bool:
    """s1 shields s2 when B(s1) together with C(s1) fits inside B(s2) + C(s2);
    a shielded separation contributes nothing to the central bag."""
    return set(bc_union(s1)) <= set(bc_union(s2))


def make_primordial(
    seq: SeparationSequence,
) -> tuple[SeparationSequence, list[tuple[int, int]]]:
    """Keep the earliest separation for each inclusion-minimal B+C value.

    Returns the reduced sequence plus (dropped index, shielding kept index)
    pairs justifying every drop.
    """
    members = seq.separations
    bc = [set(bc_union(s)) for s in members]
    minimal: list[int] = []
    for i in range(len(members)):
        if any(bc[j] < bc[i] for j in range(len(members))):
            continue
        if any(bc[j] == bc[i] for j in minimal):
            continue
        minimal.append(i)
    kept = sorted(minimal)
    drops: list[tuple[int, int]] = []
    kept_set = set(kept)
    for i in range(len(members)):
        if i in kept_set:
            continue
        shield = next(j for j in kept if bc[j] <= bc[i])
        drops.append((i, shield))
    return (
        SeparationSequence(
            separations=tuple(members[i] for i in kept), skipped=seq.skipped
        ),
        drops,
    )


def central_bag(
    g: Graph,
    w: WeightFunction,
    seq: SeparationSequence,
    classes: Sequence[Sequence[int]],
) -> CentralBagResult:
    _require_connected_and_normal(g, w)
    members = seq.separations
    bag = set(range(g.n))
    # weights travel as integer numerators over w.denominator
    den = w.denominator
    weights: dict[int, int] = dict(enumerate(w.numerators))
    escaped = 0
    levels: list[LevelRecord] = []
    all_drops: list[DropRecord] = []
    generator: list[tuple[int, ...]] = []
    kept_so_far: list[int] = []

    for cls in classes:
        admitted: list[int] = []
        drops: list[DropRecord] = []
        for i in cls:
            center = members[i].center
            if center is None:
                raise ValueError("covering-sequence members must carry centers")
            if set(center) <= bag:
                admitted.append(i)
            else:
                witness = next(
                    j for j in kept_so_far if set(center) & set(members[j].a)
                )
                drops.append(DropRecord(index=i, reason="center_hit", witness=witness))
        _, shields = make_primordial(
            SeparationSequence(separations=tuple(members[i] for i in admitted))
        )
        shielded = {admitted[i] for i, _ in shields}
        kept = [i for i in admitted if i not in shielded]
        drops.extend(
            DropRecord(index=admitted[i], reason="shield", witness=admitted[j])
            for i, j in shields
        )
        drops.sort(key=lambda d: d.index)

        prev_bag = set(bag)
        for i in kept:
            bag &= set(bc_union(members[i]))
        # order-dependent weight rule on the previous bag
        new_weights = {v: weights[v] for v in bag}
        seen_a: set[int] = set()
        for i in kept:
            a_here = (set(members[i].a) & prev_bag) - seen_a
            seen_a |= set(members[i].a) & prev_bag
            fresh = sum(weights[v] for v in a_here)
            anchor = members[i].anchor
            assert anchor is not None
            if anchor in bag:
                new_weights[anchor] = new_weights[anchor] + fresh
            else:
                escaped += fresh
        # weight lost to cut vertices that fell out of the bag
        for v in prev_bag - bag:
            if v not in seen_a:
                escaped += weights[v]
        weights = new_weights

        cut_down = [restricted(members[i], prev_bag) for i in kept]
        cut_ok = all(set(members[i].c) & prev_bag <= bag for i in kept)
        connected = g.is_connected_mask(mask_of(bag)) if bag else False
        levels.append(
            LevelRecord(
                restricted_a_loosely_laminar=all_pairs(
                    cut_down, "a_loosely_non_crossing"
                ),
                cut_in_bag=cut_ok,
                bag_connected=connected,
                weight_total_one=(sum(weights.values()) == den),
            )
        )
        generator.append(tuple(kept))
        kept_so_far.extend(kept)
        all_drops.extend(drops)

    return CentralBagResult(
        bag=tuple(sorted(bag)),
        weights={v: Fraction(x, den) for v, x in weights.items()},
        generator=tuple(generator),
        levels=tuple(levels),
        drops=tuple(all_drops),
        escaped_weight=Fraction(escaped, den),
    )


def audit_is_complete(
    g: Graph, seq: SeparationSequence, result: CentralBagResult
) -> bool:
    """Re-validate every drop: a shield witness must actually shield, and a
    center-hit witness's A side must actually meet the dropped center."""
    members = seq.separations
    kept = {i for cls in result.generator for i in cls}
    indexed = {d.index for d in result.drops}
    if kept | indexed != set(range(len(members))) or kept & indexed:
        return False
    for d in result.drops:
        if d.witness not in kept:
            return False
        if d.reason == "shield":
            if not is_shield(members[d.witness], members[d.index]):
                return False
        elif d.reason == "center_hit":
            center = members[d.index].center or ()
            if not set(center) & set(members[d.witness].a):
                return False
        else:
            return False
    return True


# -- the comparison ----------------------------------------------------------------


def _triples():
    for seed in (3, 11):
        yield from _bag_corpus(RunConfig(seed=seed), 80)
    rng = random.Random(5)
    for g in (wall(3, 3), wall(4, 4)):
        for k in (2, 3, 4):
            yield g, path_graph(k), WeightFunction.uniform(g)
            yield g, path_graph(k), random_weights(rng, g)


TRIPLES = list(_triples())


def test_corpus_exercises_every_drop_and_level_kind():
    reasons, levels = set(), 0
    for g, pattern, w in TRIPLES:
        seq = covering_sequence(g, w, pattern, Budget(RunConfig.search_budget))
        result = central_bag(g, w, seq, dimension_partition(seq))
        reasons |= {d.reason for d in result.drops}
        levels = max(levels, len(result.levels))
    assert reasons == {"shield", "center_hit"}
    assert levels >= 3


@pytest.mark.parametrize("idx", range(len(TRIPLES)))
def test_mask_engine_matches_set_reference(idx):
    g, pattern, w = TRIPLES[idx]
    seq = covering_sequence(g, w, pattern, Budget(RunConfig.search_budget))
    for s in seq.separations:
        assert (s.a_mask, s.c_mask, s.b_mask) == (mask_of(s.a), mask_of(s.c), mask_of(s.b))
    for s1 in seq.separations:
        for s2 in seq.separations:
            flags = relation(s1, s2)
            assert cb.is_laminar([s1, s2]) == flags.non_crossing
            assert cb.is_a_laminar([s1, s2]) == flags.a_non_crossing
            assert cb.is_shield(s1, s2) == is_shield(s1, s2)
    bc = [s.b_mask | s.c_mask for s in seq.separations]
    assert cb.make_primordial(bc) == make_primordial(seq)[1]
    classes = dimension_partition(seq)
    result = cb.central_bag(g, w, seq, classes)
    assert result == central_bag(g, w, seq, classes)
    assert cb.audit_is_complete(seq, result) == audit_is_complete(g, seq, result)
    assert recompute_bag(g, seq, result) == result.bag


def test_level_flag_restricts_to_previous_bag():
    """A(S1) meets C(S2) only at vertex 1, which the first level already cut
    away, so the second level's kept members are A-loosely non-crossing
    once restricted, though not as whole separations."""
    g = path_graph(7)
    w = WeightFunction.uniform(g)
    s0 = sep((0, 1), (2,), (3, 4, 5, 6), (2,))
    s1 = sep((0, 1, 2, 3), (4,), (5, 6), (4,))
    s2 = sep((6,), (1, 5), (0, 2, 3, 4), (5,))
    seq = SeparationSequence(separations=(s0, s1, s2))
    classes = ((0,), (1, 2))
    result = cb.central_bag(g, w, seq, classes)
    assert result == central_bag(g, w, seq, classes)
    assert result.generator == ((0,), (1, 2))
    assert not relation(s1, s2).a_loosely_non_crossing
    assert result.levels[1].restricted_a_loosely_laminar
