"""Theta searches against the same search without the mirror condition: the
family trie with the condition dropped from every member's signature, the
end free to lie below the hub.  Swapping a theta's hub and end and reversing
each path maps it onto itself, so the first copy has its end above its hub.
Placing the end there keeps the match, takes at most as many budget steps,
and so keeps every result the unconditioned search returns under a budget
limit: a verdict can move only from budget exhaustion to a match or to
absence."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from test_family_cache import subcubic_graphs
from twcert import detect
from twcert.config import Budget
from twcert.detect import find_t_theta
from twcert.generators import wall
from twcert.graphs import BudgetExhausted, Graph

THETA_T = st.sampled_from([2, 3, 4])


@contextmanager
def unconditioned():
    """Run the detectors on the trie with no condition in any signature,
    each entry's reach, if it has one, kept."""
    trie = detect._first_copy

    def first_copy(g, family, budget):
        members = (
            (
                k,
                ((degree, earlier, 0, *reach) for degree, earlier, _, *reach in signature),
                build,
            )
            for k, signature, build in family
        )
        return trie(g, members, budget)

    with mock.patch.object(detect, "_first_copy", first_copy):
        yield


def outcome(g, t, limit):
    budget = Budget(limit)
    try:
        result = find_t_theta(g, t, budget)
    except BudgetExhausted:
        result = BudgetExhausted
    return result, budget.used


def reference_outcome(g, t, limit):
    with unconditioned():
        return outcome(g, t, limit)


def check_against_reference(g, t, data):
    """The same match, at most the reference's steps, and under a drawn
    limit the reference's result whenever it returns one."""
    result, total = reference_outcome(g, t, 10**8)
    assert result is not BudgetExhausted
    got, used = outcome(g, t, 10**8)
    assert got == result
    assert used <= total
    # the reference returns its result exactly from limit `total` on
    assert outcome(g, t, total)[0] == result
    if used:
        assert outcome(g, t, used - 1)[0] is BudgetExhausted
    limit = data.draw(st.integers(0, total), label="limit")
    got_at = outcome(g, t, limit)[0]
    if reference_outcome(g, t, limit)[0] is BudgetExhausted:
        assert got_at in (BudgetExhausted, result)
    else:
        assert got_at == result


@settings(max_examples=60, deadline=None)
@given(g=graphs(min_n=1, max_n=9), t=THETA_T, data=st.data())
def test_random_hosts_match_unconditioned_search(g, t, data):
    check_against_reference(g, t, data)


@settings(max_examples=25, deadline=None)
@given(g=subcubic_graphs(), t=THETA_T, data=st.data())
def test_subcubic_hosts_match_unconditioned_search(g, t, data):
    check_against_reference(g, t, data)


@settings(max_examples=12, deadline=None)
@given(
    size=st.sampled_from([(3, 3), (3, 4), (4, 4)]),
    t=THETA_T,
    data=st.data(),
)
def test_relabeled_walls_match_unconditioned_search(size, t, data):
    w = wall(*size)
    perm = data.draw(st.permutations(range(w.n)), label="relabeling")
    g = Graph(w.n, [(perm[u], perm[v]) for u, v in w.edges])
    check_against_reference(g, t, data)
