"""The central-bag engine against the code it replaced, and the records it
builds.

`dimension_partition` once coloured each separation by rebuilding the set
of colours its earlier cuts used; `ref_dimension_partition` keeps that
version verbatim, and the two must give equal classes on every triple of
the `bag-algebra` corpus and on walls 3x3-6x6 with the paths P1-P4.

A `Separation` is frozen.  `canonical_separation` checks its center as a
mask; the `ValueError` texts of those checks are pinned here.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from conftest import sep
from twcert.centralbag import (
    DegenerateSeparation,
    SeparationSequence,
    canonical_separation,
    central_bag,
    covering_sequence,
    dimension_partition,
)
from twcert.config import RunConfig
from twcert.generators import path_graph, wall
from twcert.suites import _bag_corpus
from twcert.weights import WeightFunction

CORPUS = _bag_corpus(RunConfig(), 200)  # the bag-algebra suite's triples
WALLS = [
    (wall(k, k), path_graph(p)) for k in (3, 4, 5, 6) for p in (1, 2, 3, 4)
]


def ref_dimension_partition(seq: SeparationSequence) -> tuple[tuple[int, ...], ...]:
    """Greedy colouring of the cut-intersection graph, in sequence order;
    returns the colour classes as ascending index tuples into the sequence.

    Cuts in one colour class are pairwise disjoint, so each class is
    strongly laminar; the class count is at most a * gamma(2t) + 1, where
    (a, t) is `seq.goodness(g)` and gamma counts a degree-Delta ball.
    """
    masks = [s.c_mask for s in seq.separations]
    colour: list[int] = []
    for i, m in enumerate(masks):
        used = {colour[j] for j in range(i) if masks[j] & m}
        c = 0
        while c in used:
            c += 1
        colour.append(c)
    n_classes = max(colour) + 1 if colour else 0
    return tuple(
        tuple(i for i in range(len(masks)) if colour[i] == c) for c in range(n_classes)
    )


def test_dimension_partition_matches_reference_on_corpus_and_walls():
    cases = [(g, p, w) for g, p, w in CORPUS]
    cases += [(g, p, WeightFunction.uniform(g)) for g, p in WALLS]
    many = 0
    for g, pattern, w in cases:
        seq = covering_sequence(g, w, pattern)
        classes = dimension_partition(seq)
        assert classes == ref_dimension_partition(seq)
        many += len(classes) > 1
    assert dimension_partition(SeparationSequence(separations=())) == ()
    assert many >= len(WALLS)  # the walls all colour into several classes


def test_separation_is_frozen():
    g = path_graph(5)
    s = canonical_separation(g, WeightFunction.uniform(g), [1])
    with pytest.raises(FrozenInstanceError):
        s.a_mask = 0
    with pytest.raises(FrozenInstanceError):
        s.a = ()


@pytest.mark.parametrize(
    "center, text",
    [
        ([10], "vertex 10 out of range for n=10"),
        ([-1], "vertex -1 out of range for n=10"),
        ([3, 12, -4, 11], "vertex -4 out of range for n=10"),
        ([2, 99, 2], "vertex 99 out of range for n=10"),
        ([2, 2], "duplicate vertices in set"),
        ([1, 2, 1], "duplicate vertices in set"),
        ([0, 5], "center must be connected"),
        ([], "center must be connected"),
    ],
)
def test_canonical_separation_center_errors(center, text):
    g = path_graph(10)
    with pytest.raises(ValueError) as info:
        canonical_separation(g, WeightFunction.uniform(g), center)
    assert str(info.value) == text
    assert type(info.value) is ValueError


def test_canonical_separation_accepts_any_order_and_iterators():
    g = path_graph(10)
    w = WeightFunction.uniform(g)
    s = canonical_separation(g, w, iter([5, 3, 4]))
    assert s == canonical_separation(g, w, (3, 4, 5))
    assert s.center == (3, 4, 5) and s.anchor == 3
    p3 = path_graph(3)
    with pytest.raises(DegenerateSeparation) as info:
        canonical_separation(p3, WeightFunction.uniform(p3), [2, 1])
    assert str(info.value) == "N[(1, 2)] covers every vertex"


def test_bag_connectivity_is_measured_at_every_level():
    """On the path 0-...-6 the second level cuts vertex 3 out of the bag,
    the third keeps nothing, and the fourth leaves the piece 4-5-6: the bag
    is connected, then not, still not, then connected again."""
    g = path_graph(7)
    w = WeightFunction.uniform(g)
    seq = SeparationSequence(
        separations=(
            sep((0,), (1,), (2, 3, 4, 5, 6), (1,)),
            sep((3,), (2, 4), (0, 1, 5, 6), (2,)),
            sep((4, 5, 6), (3,), (0, 1, 2), (3,)),
            sep((0, 1, 2), (3, 4), (5, 6), (4,)),
        )
    )
    result = central_bag(g, w, seq, ((0,), (1,), (2,), (3,)))
    assert result.bag == (4, 5, 6)
    assert result.generator == ((0,), (1,), (), (3,))
    assert [d.reason for d in result.drops] == ["center_hit"]
    assert [lvl.bag_connected for lvl in result.levels] == [True, False, False, True]
