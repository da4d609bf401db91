"""A wall-line member's signature is read from its edge lengths one entry
at a time, with no edge list built: it equals the signature read from the
member's eager `line_edges` edge list, in that numbering.  Every k = 2
member with up to 24 vertices is checked, every k = 3 member with up to 19,
and drawn k = 3 and k = 4 members with up to 9 new vertices (k = 3 members
up to 24 vertices)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcert import detect
from twcert.config import Budget, RunConfig
from twcert.detect import find_line_of_subdivided_wall
from twcert.generators import wall
from twcert.graphs import Graph, line_edges, subdivision


def line_family(k: int) -> detect.Family:
    """The wall-line family the search declares, on a host with a triangle."""
    families = []
    host = Graph(2 * k * (k - 1), [(0, 1), (0, 2), (1, 2)])
    with mock.patch.object(detect, "_find", lambda g, family, b: families.append(family)):
        find_line_of_subdivided_wall(host, k, Budget(RunConfig.search_budget))
    return families[0]


def eager_entries(family: detect.Family, lengths) -> list:
    count, edges, _ = subdivision(family.n, family.edges, lengths)
    line = line_edges(count, edges)
    return list(detect._edge_member(len(edges), line)[1])


@pytest.mark.parametrize("k, most", [(2, 24), (3, 19)])
def test_every_small_member_matches_its_edge_list(k, most):
    family = line_family(k)
    members = list(detect._members(family, most))
    assert members
    for n, signature, build in members:
        lengths = build.args[1]
        entries = list(signature)
        assert len(entries) == n
        assert entries == eager_entries(family, lengths)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([3, 4]), data=st.data())
def test_drawn_members_match_their_edge_lists(k, data):
    family = line_family(k)
    m = len(family.edges)
    extra = data.draw(st.integers(0, 9), label="extra")
    cuts = sorted(data.draw(st.lists(st.integers(0, extra), min_size=m - 1, max_size=m - 1)))
    lengths = [1 + b - a for a, b in zip([0, *cuts], [*cuts, extra])]
    at = [
        [(j, x == v, v) for j, (u, v) in enumerate(family.edges) if x in (u, v)]
        for x in range(family.n)
    ]
    degree = [len(edges) for edges in at]
    entries = list(detect._line_signature(family, degree, at, lengths))
    assert entries == eager_entries(family, lengths)


def test_the_family_is_the_wall():
    assert line_family(3).edges == wall(3, 3).edges
