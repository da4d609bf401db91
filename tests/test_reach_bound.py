"""The reach bound is exact: it drops only search-tree nodes that no full
mapping passes through.  For every theta (t = 2, 3) and pyramid (t = 1, 2)
member that fits the host, the search loop `_grow` with the reach column
yields exactly the maps it yields with every reach left out of the
signature: the same list, in the same order."""

from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from test_family_cache import subcubic_graphs
from twcert import detect
from twcert.config import Budget
from twcert.detect import find_t_pyramid, find_t_theta
from twcert.generators import wall

SEARCHES = {
    "theta-t2": lambda g: find_t_theta(g, 2),
    "theta-t3": lambda g: find_t_theta(g, 3),
    "pyramid-t1": lambda g: find_t_pyramid(g, 1),
    "pyramid-t2": lambda g: find_t_pyramid(g, 2),
}


def family_of(search, g) -> detect.Family:
    """The family declaration the search hands to the family layer."""
    families = []
    with mock.patch.object(detect, "_find", lambda g, family, b: families.append(family)):
        search(g)
    return families[0]


def all_maps(g, entries):
    """Every map `_grow` yields for the signature, from an empty trie."""
    root = detect._Level(None, array("i", [-1]), array("i", [-1]))
    host = detect._host_masks(g)
    return list(detect._grow(root, entries, host, Budget(10**12), 1))


def check_members(g, name):
    """Each member's maps with and without its reach column; returns how
    many entries carried a reach."""
    family = family_of(SEARCHES[name], g)
    reaches = 0
    for _, signature, _ in detect._members(family, g.n):
        entries = list(signature)
        reaches += sum(len(entry) == 4 for entry in entries)
        bare = [entry[:3] for entry in entries]
        assert all_maps(g, entries) == all_maps(g, bare)
    return reaches


@pytest.mark.parametrize("size", [(3, 3), (3, 4)])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_walls_yield_the_same_maps(name, size):
    assert check_members(wall(*size), name) > 0


@settings(max_examples=40, deadline=None)
@given(g=graphs(min_n=4, max_n=10), name=st.sampled_from(sorted(SEARCHES)))
def test_random_hosts_yield_the_same_maps(g, name):
    check_members(g, name)


@settings(max_examples=40, deadline=None)
@given(g=subcubic_graphs(min_n=6, max_n=10), name=st.sampled_from(sorted(SEARCHES)))
def test_subcubic_hosts_yield_the_same_maps(g, name):
    check_members(g, name)


def test_a_bound_one_shorter_loses_maps():
    """In theta(2, 3, 7), which the 3x3 wall holds, the first vertex of the
    second path has the reach (1, 2): it lies two edges from the end.  A
    bound of 1 leaves it no candidate, so the member loses every map."""
    g = wall(3, 3)
    family = family_of(SEARCHES["theta-t2"], g)
    members = detect._members(family, g.n)
    _, signature, _ = next(m for m in members if m[2].args == (2, 3, 7))
    entries = list(signature)
    assert entries[3] == (2, 1, 0, (1, 2))
    tight = [*entries[:3], (2, 1, 0, (1, 1)), *entries[4:]]
    assert all_maps(g, entries)
    assert not all_maps(g, tight)
