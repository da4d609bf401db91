"""Work counts of the family detectors: how many members a family offers,
how many witness graphs it builds and how many members run through the
plain engine.  A member that has no copy is searched on the trie of search
trees in `detect._first_copy`, from its edge list alone; only a member that
runs through `iter_induced_maps` (it embeds, or its charge would overrun the
budget) has its graph built."""

from collections import Counter
from unittest import mock

import pytest

from twcert import detect
from twcert.config import Budget
from twcert.detect import find_line_of_subdivided_wall, find_t_pyramid, find_t_theta
from twcert.generators import subdivided_claw, wall
from twcert.graphs import line_graph, subdivide

# the line graph of the 2x2 wall with two edges subdivided, which holds a copy
LINE_HOST = line_graph(subdivide(wall(2, 2), {(0, 1): 3, (1, 3): 2}))

CASES = {
    # name: (search, members offered, graphs built = plain-engine runs)
    "pyramid-t1-wall44": (lambda b: find_t_pyramid(wall(4, 4), 1, b), 337, 0),
    "theta-t2-wall45": (lambda b: find_t_theta(wall(4, 5), 2, b), 33, 1),
    "theta-t3-wall44": (lambda b: find_t_theta(wall(4, 4), 3, b), 32, 1),
    "wall-line-k2-claw222": (
        lambda b: find_line_of_subdivided_wall(subdivided_claw(2, 2, 2).graph, 2, b),
        35,
        0,
    ),
    "wall-line-k2-line-host": (
        lambda b: find_line_of_subdivided_wall(LINE_HOST, 2, b),
        16,
        1,
    ),
}


def counted(name, fn, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(CASES))
def test_members_are_built_only_when_searched(name):
    """A graph is built only when the engine searches its member."""
    search, members, built = CASES[name]
    counts: Counter[str] = Counter()
    first_copy = detect._first_copy

    def members_of(family):
        for member in family:
            counts["members"] += 1
            yield member

    with mock.patch.multiple(
        detect,
        _first_copy=lambda g, family, budget: first_copy(
            g, members_of(family), budget
        ),
        theta=counted("built", detect.theta, counts),
        pyramid=counted("built", detect.pyramid, counts),
        line_graph=counted("built", detect.line_graph, counts),
        iter_induced_maps=counted("plain", detect.iter_induced_maps, counts),
    ):
        search(Budget(10**7))
    assert (counts["members"], counts["built"], counts["plain"]) == (
        members,
        built,
        built,
    )


@pytest.mark.parametrize("k", [2, 3])
def test_line_edges_match_the_line_graph(k):
    """The wall-line family's edge lists are those of the graphs it builds,
    in the same vertex numbering."""
    base = wall(k, k)
    for extra in range(4):
        for lengths in detect._compositions(extra, base.m):
            sub = subdivide(base, {e: lengths[i] + 1 for i, e in enumerate(base.edges)})
            edges = detect._line_edges(base, lengths)
            assert len(edges) == len(set(edges))
            assert line_graph(sub).edges == tuple(sorted(edges))
