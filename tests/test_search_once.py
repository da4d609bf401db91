"""Each detection searches once.  The claw and induced searches take the
engine's first mapping directly: against the one-member family search they
replaced (`detect._first_copy` on one `_edge_member`), they give the same
match.  Both charge n (the host size) for each search-tree node they
expand, and the family n more for the member, so it uses n steps more.
The wall-line search at k = 2 declares one free edge, one cycle per length:
against the family with every edge of the 4-cycle free, which offers every
spread of the extra vertices over them, it gives the same match in at most
the same steps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, subdivided
from twcert import detect
from twcert.config import Budget, RunConfig
from twcert.detect import (
    find_induced,
    find_line_of_subdivided_wall,
    find_subdivided_claw,
)
from twcert.generators import cycle_graph, path_graph, subdivided_claw, wall
from twcert.graphs import BudgetExhausted, line_graph
from twcert.suites import seeded_catalog

# the detectors suite's catalog, at the default seed
CATALOG = seeded_catalog(8, RunConfig.seed, per_n=4)
HOSTS = [
    *CATALOG,
    wall(3, 3),
    wall(4, 4),
    cycle_graph(9),
]
LEGS = [(1, 1, 1), (2, 1, 1), (0, 2, 1), (2, 2, 2), (1, 2, 3), (3, 3, 3)]
PATTERNS = [path_graph(5), cycle_graph(6), subdivided_claw(1, 2, 2).graph]


def claw_search(legs):
    return lambda g, b: find_subdivided_claw(g, *legs, b)


def claw_reference(legs):
    """The claw search as a one-member family: the member's signature read
    from the claw's edge list, its instance the generator's."""
    wit = subdivided_claw(*legs)

    def search(g, b):
        k, signature, _ = detect._edge_member(wit.graph.n, wit.graph.edges)
        return detect._first_copy(g, (m for m in [(k, signature, lambda: wit)]), b)

    return search


def induced_search(pattern):
    return lambda g, b: find_induced(g, pattern, b)


def induced_reference(pattern):
    """The induced search as a one-member family."""

    def search(g, b):
        member = detect._edge_member(pattern.n, pattern.edges)
        return detect._first_copy(g, (m for m in [member]), b)

    return search


def outcome(search, g, limit):
    """The search's match, or BudgetExhausted, and the steps it used."""
    budget = Budget(limit)
    try:
        result = search(g, budget)
    except BudgetExhausted:
        result = BudgetExhausted
    return result, budget.used


def assert_same_under_every_limit(search, reference, g):
    """The same match under a roomy limit, the steps of each related as
    above, and exhaustion under every limit below its own steps."""
    (match, used), (ref_match, ref_used) = (
        outcome(search, g, 10**9), outcome(reference, g, 10**9)
    )
    assert match == ref_match
    assert ref_used == used + g.n
    for which, total in ((search, used), (reference, ref_used)):
        for limit in {total - 1, total // 2, 5}:
            if 0 <= limit < total:
                assert outcome(which, g, limit)[0] is BudgetExhausted


SINGLE = [
    *(
        (f"claw-{''.join(map(str, ls))}", claw_search(ls), claw_reference(ls))
        for ls in LEGS
    ),
    *(
        (f"induced-{name}", induced_search(p), induced_reference(p))
        for name, p in zip(("p5", "c6", "spider122"), PATTERNS)
    ),
]


@pytest.mark.parametrize(
    "name, search, reference", SINGLE, ids=[s[0] for s in SINGLE]
)
def test_single_pattern_searches_equal_the_one_member_family(name, search, reference):
    for g in HOSTS:
        assert_same_under_every_limit(search, reference, g)


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(max_n=9),
    which=st.integers(0, len(SINGLE) - 1),
)
def test_single_pattern_searches_equal_the_one_member_family_on_random_hosts(g, which):
    _, search, reference = SINGLE[which]
    assert_same_under_every_limit(search, reference, g)


def every_spread(g, budget):
    """The wall-line k = 2 family with every edge of the 4-cycle free, so
    every spread of the extra vertices over them, n steps per member
    offered."""
    base = wall(2, 2)
    every = detect.Family(
        base.n,
        base.edges,
        (1,) * base.m,
        rising=False,
        build=None,
        above=(),
        contains=(),
    )
    return detect._find(g, every, budget)


def assert_cycle_per_length_matches_every_spread(g):
    budget, reference = Budget(10**9), Budget(10**9)
    match = find_line_of_subdivided_wall(g, 2, budget)
    assert match == every_spread(g, reference)
    assert budget.used <= reference.used


WALL_LINE_HOSTS = {
    "catalog": CATALOG,
    # the 2x2 wall's line graph with two edges subdivided: a 7-cycle
    "line-host": [line_graph(subdivided(wall(2, 2), {(0, 1): 3, (1, 3): 2}))],
    "c8": [cycle_graph(8)],
    "wall33": [wall(3, 3)],
    "spider222": [subdivided_claw(2, 2, 2).graph],
}


@pytest.mark.parametrize("name", sorted(WALL_LINE_HOSTS))
def test_wall_line_k2_equals_every_spread(name):
    for g in WALL_LINE_HOSTS[name]:
        assert_cycle_per_length_matches_every_spread(g)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=8))
def test_wall_line_k2_equals_every_spread_on_random_hosts(g):
    assert_cycle_per_length_matches_every_spread(g)
