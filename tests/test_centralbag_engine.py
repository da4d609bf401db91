"""The central-bag engine against the code it replaced, and the records it
builds against the public constructor.

`dimension_partition` once coloured each separation by rebuilding the set
of colours its earlier cuts used; `ref_dimension_partition` keeps that
version verbatim, and the two must give equal classes on every triple of
the `bag-algebra` corpus and on walls 3x3-6x6 with the paths P1-P4.

`canonical_separation` builds a `Separation` that stores only its masks and
anchor, and builds each tuple when it is first read.  Such a separation must
equal, hash and print as the one the constructor builds from the same
tuples, and its masks must be the masks of its tuples.  The center checks
now run on masks; their `ValueError` texts are pinned here.
"""

from __future__ import annotations

import pytest

from twcert.centralbag import (
    DegenerateSeparation,
    Separation,
    SeparationSequence,
    canonical_separation,
    central_bag,
    covering_sequence,
    dimension_partition,
)
from twcert.config import RunConfig
from twcert.generators import path_graph, wall
from twcert.graphs import bits, mask_of
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


def _rebuilt(s: Separation) -> Separation:
    """The same separation from the public constructor, its tuples read off
    the stored masks so that `s` builds none before the comparison."""
    return Separation(
        a=tuple(bits(s.a_mask)),
        c=tuple(bits(s.c_mask)),
        b=tuple(bits(s.b_mask)),
        center=tuple(bits(s.center_mask)),
        anchor=s.anchor,
    )


def test_engine_separations_match_constructed_ones():
    count = 0
    for g, pattern, w in CORPUS:
        for s in covering_sequence(g, w, pattern).separations:
            ref = _rebuilt(s)
            assert repr(s) == repr(ref)
            assert hash(s) == hash(ref)
            assert s == ref and ref == s
            assert (s.a_mask, s.c_mask, s.b_mask, s.center_mask) == (
                mask_of(s.a), mask_of(s.c), mask_of(s.b), mask_of(s.center)
            )
            assert (ref.a_mask, ref.c_mask, ref.b_mask, ref.center_mask) == (
                s.a_mask, s.c_mask, s.b_mask, s.center_mask
            )
            assert s.anchor == s.center[0]
            count += 1
    assert count > 2000


def test_separation_reads_unknown_attributes_as_missing():
    g = path_graph(5)
    s = canonical_separation(g, WeightFunction.uniform(g), [1])
    built = Separation(a=(0,), c=(1, 2), b=(3, 4), center=(1,), anchor=1)
    for sep in (s, built):
        assert not hasattr(sep, "d_mask")
        with pytest.raises(AttributeError) as info:
            sep.size
        assert str(info.value) == "'Separation' object has no attribute 'size'"
    with pytest.raises(AttributeError):
        s.a = ()  # still frozen


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
            Separation(a=(0,), c=(1,), b=(2, 3, 4, 5, 6), center=(1,), anchor=1),
            Separation(a=(3,), c=(2, 4), b=(0, 1, 5, 6), center=(2,), anchor=2),
            Separation(a=(4, 5, 6), c=(3,), b=(0, 1, 2), center=(3,), anchor=3),
            Separation(a=(0, 1, 2), c=(3, 4), b=(5, 6), center=(4,), anchor=4),
        )
    )
    result = central_bag(g, w, seq, ((0,), (1,), (2,), (3,)))
    assert result.bag == (4, 5, 6)
    assert result.generator == ((0,), (1,), (), (3,))
    assert [d.reason for d in result.drops] == ["center_hit"]
    assert [lvl.bag_connected for lvl in result.levels] == [True, False, False, True]
