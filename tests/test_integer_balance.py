"""The balance tests decide w(comp) <= c on integers: a component's weight
numerator over the weight function's denominator, cross-multiplied with c.

The references here build every weight as a `Fraction` straight from the
drawn numerators and compare it with c, so they share no arithmetic with
`component_weights` or `WeightFunction`.
"""

from fractions import Fraction
from itertools import combinations
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert.generators import wall
from twcert.graphs import Graph, TreeDecomposition, bits, mask_of
from twcert.separators import (
    _balance_test,
    along,
    balanced_separator_from_td,
    eliminate,
    min_balanced_separator,
)
from twcert.weights import WeightFunction, check_balance_parameter

CS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 8), Fraction(99, 100)]


def ref_balanced(g: Graph, ns: list[int], c: Fraction, xs) -> bool:
    total = sum(ns)
    comps = g.component_masks(g.full_mask() & ~mask_of(xs))
    return all(Fraction(sum(ns[v] for v in bits(comp)), total) <= c for comp in comps)


def ref_min_separator(
    g: Graph, ns: list[int], c: Fraction, max_size: int
) -> Optional[tuple[int, ...]]:
    for k in range(min(max_size, g.n) + 1):
        for xs in combinations(range(g.n), k):
            if ref_balanced(g, ns, c, xs):
                return xs
    return None


def ref_from_td(
    g: Graph, ns: list[int], c: Fraction, td: TreeDecomposition
) -> Optional[tuple[int, ...]]:
    return next((bag for bag in td.bags if ref_balanced(g, ns, c, bag)), None)


@st.composite
def weighted_instances(draw):
    g = draw(graphs(max_n=8))
    factor = draw(st.integers(1, 6))  # a common factor the canonical form divides out
    ns = [factor * x for x in draw(st.lists(st.integers(0, 9), min_size=g.n, max_size=g.n))]
    if not any(ns):
        ns[draw(st.integers(0, g.n - 1))] = factor
    order = draw(st.permutations(range(g.n)))
    x = draw(st.lists(st.integers(0, g.n - 1), unique=True))
    max_size = draw(st.integers(0, g.n))
    return g, ns, draw(st.sampled_from(CS)), list(order), x, max_size


@given(weighted_instances())
@settings(max_examples=150, deadline=None)
def test_balance_functions_match_fraction_reference(instance):
    g, ns, c, order, x, max_size = instance
    w = WeightFunction.from_numerators(ns, sum(ns))
    assert w.is_normal()
    assert _balance_test(g, w, c)(mask_of(x)) == ref_balanced(g, ns, c, x)
    assert min_balanced_separator(g, w, c, max_size) == ref_min_separator(g, ns, c, max_size)
    td, _ = eliminate(g, along(order))
    assert balanced_separator_from_td(g, w, c, td) == ref_from_td(g, ns, c, td)


@given(st.lists(st.integers(0, 30), max_size=8), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_from_numerators_is_from_values(ns, d):
    assert WeightFunction.from_numerators(ns, d) == WeightFunction.from_values(
        [Fraction(x, d) for x in ns]
    )


@pytest.mark.parametrize("ns,d", [([], 1), ([], 7), ([0, 0, 0], 5), ([0], 1)])
def test_from_numerators_empty_and_all_zero(ns, d):
    w = WeightFunction.from_numerators(ns, d)
    assert w == WeightFunction.from_values([Fraction(x, d) for x in ns])
    assert w.denominator == 1 and not any(w.numerators)


@pytest.mark.parametrize("ns,d", [([1, -1], 2), ([1], 0), ([1], -1)])
def test_from_numerators_rejects_negative_weight_or_denominator(ns, d):
    with pytest.raises(ValueError):
        WeightFunction.from_numerators(ns, d)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(99, 100)], ids=str)
def test_balance_parameter_accepts_interval_ends(c):
    assert check_balance_parameter(c) == c


@pytest.mark.parametrize(
    "c",
    [Fraction(1), Fraction(49, 100), Fraction(3, 2), Fraction(0), Fraction(-1, 2)],
    ids=str,
)
def test_balance_parameter_rejects_outside_interval(c):
    with pytest.raises(ValueError, match=r"must lie in \[1/2, 1\)"):
        check_balance_parameter(c)


def test_min_balanced_separator_builds_no_fraction(monkeypatch):
    g = wall(3, 3)
    w = WeightFunction.uniform(g)
    half = Fraction(1, 2)
    calls = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    w.of_mask(1)  # the counter sees a Fraction being built
    assert calls == [1]
    calls[0] = 0
    found = min_balanced_separator(g, w, half, 2)
    monkeypatch.undo()
    assert found is None
    assert calls == [0]
