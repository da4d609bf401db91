from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import connected_graphs
from test_separator_reference import ref_separation_number
from twcert import separators
from twcert.centralbag import no_small_separator
from twcert.check import validate_td
from twcert.config import Budget, RunConfig
from twcert.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    wall,
)
from twcert.graphs import BudgetExhausted, CapExceeded, Graph, mask_of
from twcert.separators import (
    _balance_test,
    balanced_separator_from_td,
    component_weights,
    exact_treewidth,
    harvey_wood_check,
    min_balanced_separator,
    separation_number,
    treewidth_bounds,
    treewidth_or_bounds,
)
from twcert.suites import suite_harvey_wood
from twcert.weights import WeightFunction

HALF = Fraction(1, 2)


def _budget() -> Budget:
    return Budget(RunConfig.search_budget)


def test_is_balanced_separator_examples():
    single = Graph(1, [])
    w1 = WeightFunction.uniform(single)
    assert _balance_test(single, w1, HALF)(mask_of([0]))
    # the empty set leaves the whole vertex as a component of weight 1 > c
    assert not _balance_test(single, w1, HALF)(mask_of([]))
    p5 = path_graph(5)
    u = WeightFunction.uniform(p5)
    assert _balance_test(p5, u, HALF)(mask_of([2]))  # both sides weigh 2/5
    assert not _balance_test(p5, u, HALF)(mask_of([0]))  # leftover 4/5
    with pytest.raises(ValueError):
        _balance_test(p5, u, Fraction(1, 3))(mask_of([2]))
    bad = WeightFunction.from_values([Fraction(1)] * 5)
    with pytest.raises(ValueError):
        _balance_test(p5, bad, HALF)(mask_of([2]))


@pytest.mark.parametrize("count", [4, 6])
def test_weight_count_must_match_vertex_count(count):
    """A weight function with a missing or an extra vertex is a usage error,
    not a sum that skips a vertex or never reads one."""
    p5 = path_graph(5)
    w = WeightFunction.from_mapping({v: Fraction(1, count) for v in range(count)})
    with pytest.raises(ValueError, match=f"^{count} weights for 5 vertices$"):
        _balance_test(p5, w, HALF)(mask_of([2]))
    with pytest.raises(ValueError, match=f"^{count} weights for 5 vertices$"):
        min_balanced_separator(p5, w, HALF, max_size=p5.n)


def test_min_balanced_separator_values():
    p5 = path_graph(5)
    assert min_balanced_separator(p5, WeightFunction.uniform(p5), HALF, max_size=p5.n) == (2,)
    k6 = complete_graph(6)
    sep = min_balanced_separator(k6, WeightFunction.uniform(k6), HALF, max_size=k6.n)
    assert len(sep) == 3  # a K3 remainder weighs exactly 1/2
    # the lone component of a single vertex weighs 1 > c, so the vertex
    # itself is the minimum separator
    single = Graph(1, [])
    w = WeightFunction.uniform(single)
    sep = min_balanced_separator(single, w, HALF, max_size=single.n)
    assert sep == (0,)
    # component weights are numerators over w.denominator
    assert all(2 * num <= w.denominator for _, num in component_weights(single, w, mask_of(sep)))


def test_min_separator_is_minimum_and_lex_first():
    g = cycle_graph(6)
    u = WeightFunction.uniform(g)
    sep = min_balanced_separator(g, u, HALF, max_size=g.n)
    assert len(sep) == 2
    # no size-1 separator exists; the lexicographically first pair wins
    for v in g.vertices:
        assert not _balance_test(g, u, HALF)(mask_of([v]))
    assert sep == (0, 2)


def test_separation_number_values():
    assert separation_number(path_graph(4), HALF, _budget()) == 1
    assert separation_number(complete_graph(4), HALF, _budget()) == 2
    # a lone vertex still needs itself removed for the singleton subset
    assert separation_number(Graph(1, []), HALF, _budget()) == 1
    assert separation_number(Graph(2, [(0, 1)]), HALF, _budget()) == 1
    # no size cap: eleven vertices finish under the default budget, and a
    # budget of 10 subsets runs out
    k11 = complete_graph(11)
    assert separation_number(k11, HALF, _budget()) == ref_separation_number(k11, HALF)
    with pytest.raises(BudgetExhausted, match="search budget of 10 nodes exhausted"):
        separation_number(k11, HALF, Budget(10))


def _tw_decision_bruteforce(g: Graph, k: int) -> bool:
    """Elimination-order search without memoisation, for cross-checking."""

    def step(adj: dict[int, set[int]]) -> bool:
        if not adj:
            return True
        if all(len(nb) <= k for nb in adj.values()):
            pass
        for v in sorted(adj):
            if len(adj[v]) <= k:
                nb = adj[v]
                new = {
                    u: (s | nb) - {u, v} if u in nb else s - {v}
                    for u, s in adj.items()
                    if u != v
                }
                if step(new):
                    return True
        return False

    if g.n == 0:
        return True
    return step({v: set(g.neighbors(v)) for v in g.vertices})


def test_exact_treewidth_anchors():
    assert exact_treewidth(complete_graph(4), cap=14)[0] == 3
    assert exact_treewidth(complete_bipartite(3, 3), cap=14)[0] == 3
    assert exact_treewidth(path_graph(7), cap=14)[0] == 1
    assert exact_treewidth(cycle_graph(6), cap=14)[0] == 2
    assert exact_treewidth(star_graph(5), cap=14)[0] == 1
    assert exact_treewidth(wall(3, 3), cap=14)[0] == 3
    assert exact_treewidth(Graph(0, []), cap=14)[0] == -1


def test_exact_treewidth_witness_validates():
    for g in [wall(3, 3), complete_bipartite(3, 4), cycle_graph(7)]:
        tw, td = exact_treewidth(g, cap=14)
        rep = validate_td(g, td)
        assert rep.ok and rep.width == tw


@given(connected_graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_exact_treewidth_matches_elimination_search(g):
    tw, _ = exact_treewidth(g, cap=14)
    assert _tw_decision_bruteforce(g, tw)
    if tw > 0:
        assert not _tw_decision_bruteforce(g, tw - 1)


def test_treewidth_invariant_under_relabeling():
    g = wall(2, 3)
    perm = list(reversed(range(g.n)))
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert exact_treewidth(g, cap=14)[0] == exact_treewidth(relabeled, cap=14)[0]


def test_treewidth_bounds_sandwich():
    b = treewidth_bounds(wall(3, 3))
    assert b.lower <= 3 <= b.upper
    assert validate_td(wall(3, 3), b.td).ok
    big = complete_graph(20)
    out = treewidth_or_bounds(big, cap=14)
    assert out.exact == 19


def test_cap_exceeded_reports():
    with pytest.raises(CapExceeded):
        exact_treewidth(complete_graph(16), cap=14)


def test_harvey_wood_examples():
    rep = harvey_wood_check(path_graph(5), HALF, seed=7, budget=_budget())
    tw, sep = exact_treewidth(path_graph(5), cap=14)[0], separation_number(path_graph(5), HALF, _budget())
    assert tw == 1 and rep.upper_bound_holds
    assert Fraction(tw + 1) <= Fraction(sep) / (1 - HALF)
    rep = harvey_wood_check(complete_graph(4), HALF, seed=7, budget=_budget())
    tw, sep = exact_treewidth(complete_graph(4), cap=14)[0], separation_number(complete_graph(4), HALF, _budget())
    assert tw == 3 and sep == 2 and rep.upper_bound_holds  # tight: 4 <= 4
    rep = harvey_wood_check(cycle_graph(4), HALF, seed=7, budget=_budget())
    assert rep.upper_bound_holds and rep.small_separator_found_for_all


def test_balanced_separator_from_td():
    g = cycle_graph(8)
    tw, td = exact_treewidth(g, cap=14)
    w = WeightFunction.uniform(g)
    bag = balanced_separator_from_td(g, w, HALF, td)
    assert bag is not None and len(bag) <= tw + 1
    assert _balance_test(g, w, HALF)(mask_of(bag))


def _no_separator_in_wall33() -> None:
    g = wall(3, 3)
    assert no_small_separator(g, WeightFunction.uniform(g), HALF, 2)


@pytest.mark.parametrize(
    "run,calls",
    [(lambda: suite_harvey_wood(RunConfig()), 1743), (_no_separator_in_wall33, 79)],
    ids=["suite-harvey-wood", "no-small-separator-wall33"],
)
def test_subsets_tested_pinned(monkeypatch, run, calls):
    """The balanced-separator searches test each subset through one
    `component_weights` call, which the benchmark counts as
    `separators.subsets_tested`; the pins keep that count like for like."""
    count = [0]
    original = separators.component_weights

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(separators, "component_weights", counted)
    run()
    assert count[0] == calls
