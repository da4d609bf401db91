"""The family detectors against a plain member-by-member loop over
`iter_induced_maps`: the trie of search trees in `detect._first_copy`
changes neither the match, nor `Budget.used`, nor the outcome (a match,
None or `BudgetExhausted`) under any budget limit, and it stores at most one
tree node per n steps charged."""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert import detect
from twcert.config import Budget
from twcert.detect import (
    PatternMatch,
    find_line_of_subdivided_wall,
    find_t_pyramid,
    find_t_theta,
    iter_induced_maps,
)
from twcert.generators import wall
from twcert.graphs import BudgetExhausted, Graph

FAMILIES = {
    "theta-t2": lambda g, b: find_t_theta(g, 2, b),
    "theta-t3": lambda g, b: find_t_theta(g, 3, b),
    "pyramid-t1": lambda g, b: find_t_pyramid(g, 1, b),
    "pyramid-t2": lambda g, b: find_t_pyramid(g, 2, b),
    "wall-line-k2": lambda g, b: find_line_of_subdivided_wall(g, 2, b),
}
WALLS = {"wall33": wall(3, 3), "wall34": wall(3, 4)}


@contextmanager
def reference_detectors(spans: list[tuple[int, int]]):
    """Run the detectors with every member searched in full under its
    condition (the third field of a signature entry), appending the budget
    span (used before, used after) of each member that fails."""

    def first_copy(g, family, budget):
        for _, signature, build in family:
            above = [entry[2] if len(entry) > 2 else 0 for entry in signature]
            instance = build()
            start = budget.used
            for mapping in iter_induced_maps(g, instance.graph, budget, above):
                return PatternMatch(
                    image=tuple(sorted(mapping)),
                    roles=tuple(
                        (key, tuple(mapping[v] for v in seq))
                        for key, seq in instance.roles
                    ),
                )
            spans.append((start, budget.used))
        return None

    with mock.patch.object(detect, "_first_copy", first_copy):
        yield


class ChargeLog(Budget):
    """A budget that logs (used before, amount) of every tick taken while no
    engine generator is running, which are the table's charges."""

    def __init__(self, limit: int) -> None:
        super().__init__(limit)
        self.log: list[tuple[int, int]] = []
        self.in_engine = False

    def tick(self, amount: int = 1) -> None:
        if not self.in_engine:
            self.log.append((self.used, amount))
        super().tick(amount)


@contextmanager
def engine_flagged():
    """Run `iter_induced_maps` with `in_engine` set on its budget while the
    generator runs."""

    def flagged(g, pattern, budget, above=()):
        maps = iter_induced_maps(g, pattern, budget, above)
        while True:
            budget.in_engine = True
            try:
                mapping = next(maps)
            except StopIteration:
                return
            finally:
                budget.in_engine = False
            yield mapping

    with mock.patch.object(detect, "iter_induced_maps", flagged):
        yield


def outcome(search, g, limit):
    budget = Budget(limit)
    try:
        result = search(g, budget)
    except BudgetExhausted:
        result = BudgetExhausted
    return result, budget.used


def reference_outcome(search, g, limit, spans=None):
    with reference_detectors([] if spans is None else spans):
        return outcome(search, g, limit)


def first_copy_of(patterns):
    """A search over the family of the given patterns, in that order."""

    def search(g, b):
        members = [detect._edge_member(p.n, p.edges) for p in patterns]
        return detect._first_copy(g, members, b)

    return search


@pytest.mark.parametrize("host", sorted(WALLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_walls_match_reference(family, host):
    search, g = FAMILIES[family], WALLS[host]
    spans: list[tuple[int, int]] = []
    result, total = reference_outcome(search, g, 10**8, spans)
    assert outcome(search, g, 10**8) == (result, total)
    # the middle of every fourth failed member, and just short of the total
    limits = [start + (end - start) // 2 for start, end in spans[::4]]
    for limit in limits + [0, total - 1]:
        assert outcome(search, g, limit) == reference_outcome(search, g, limit)


@pytest.mark.parametrize("host", sorted(WALLS))
def test_overrunning_charge_runs_the_member(host):
    """A limit inside a member the table serves: the charge would overrun, so
    the member runs and stops at the same step as the reference."""
    search, g = FAMILIES["pyramid-t1"], WALLS[host]
    budget = ChargeLog(10**8)
    with engine_flagged():
        assert search(g, budget) is None
    charges = budget.log
    assert charges
    for used, amount in charges[:: max(1, len(charges) // 6)]:
        limit = used + amount // 2
        assert outcome(search, g, limit) == reference_outcome(search, g, limit)
        assert outcome(search, g, limit)[0] is BudgetExhausted


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(min_n=1, max_n=9), family=st.sampled_from(sorted(FAMILIES)), data=st.data()
)
def test_random_hosts_match_reference(g, family, data):
    search = FAMILIES[family]
    result, total = reference_outcome(search, g, 10**8)
    assert outcome(search, g, 10**8) == (result, total)
    limit = data.draw(st.integers(0, max(0, total - 1)))
    assert outcome(search, g, limit) == reference_outcome(search, g, limit)


@settings(max_examples=150, deadline=None)
@given(
    g=graphs(min_n=1, max_n=8),
    patterns=st.lists(graphs(min_n=1, max_n=5), min_size=2, max_size=8),
    data=st.data(),
)
def test_random_families_match_reference(g, patterns, data):
    """Small random members share prefixes that differ only in degree, or
    only in earlier neighbours, far more often than the named families."""
    search = first_copy_of(patterns)
    result, total = reference_outcome(search, g, 10**8)
    assert outcome(search, g, 10**8) == (result, total)
    limit = data.draw(st.integers(0, max(0, total - 1)))
    assert outcome(search, g, limit) == reference_outcome(search, g, limit)


@st.composite
def subcubic_graphs(draw, min_n=10, max_n=16):
    """Random graphs of maximum degree 3, where many theta members share long
    prefixes and fail deep: three stubs per vertex, paired in a random order,
    dropping loops, repeated pairs and a random tail of the pairs."""
    n = draw(st.integers(min_n, max_n))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    pairs = list(zip(stubs[::2], stubs[1::2]))
    kept = pairs[: draw(st.integers(n, len(pairs)))]
    return Graph(n, {(min(e), max(e)) for e in kept if e[0] != e[1]})


def charges(search, g):
    """The ticks taken outside the engine, as (used before, amount)."""
    budget = ChargeLog(10**8)
    with engine_flagged():
        search(g, budget)
    return budget.log


@settings(max_examples=25, deadline=None)
@given(
    g=subcubic_graphs(),
    family=st.sampled_from(["theta-t2", "theta-t3", "pyramid-t1"]),
    data=st.data(),
)
def test_subcubic_hosts_match_reference(g, family, data):
    """Limits inside the last charge the trie takes: that member's charge
    would overrun, so it runs through the engine and stops where the
    reference does."""
    search = FAMILIES[family]
    result, total = reference_outcome(search, g, 10**8)
    assert outcome(search, g, 10**8) == (result, total)
    log = charges(search, g)
    used, amount = log[-1] if log else (0, total + 1)
    limit = data.draw(st.integers(used, used + amount - 1))
    assert outcome(search, g, limit) == reference_outcome(search, g, limit)


def stored_nodes(search, g):
    """The tree nodes a search stores in its trie (the root's one included),
    and the steps it charges."""
    made = []

    class Recorded(detect._Level):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    budget = Budget(10**8)
    with mock.patch.object(detect, "_Level", Recorded):
        search(g, budget)
    return sum(len(level.vertex) for level in made), budget.used


@pytest.mark.parametrize("host", sorted(WALLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_walls_store_one_node_per_n_steps(family, host):
    g = WALLS[host]
    stored, used = stored_nodes(FAMILIES[family], g)
    assert 1 <= stored <= used // g.n + 1


@settings(max_examples=40, deadline=None)
@given(g=subcubic_graphs(), family=st.sampled_from(sorted(FAMILIES)))
def test_random_hosts_store_one_node_per_n_steps(g, family):
    stored, used = stored_nodes(FAMILIES[family], g)
    assert stored <= used // g.n + 1
