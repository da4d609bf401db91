"""Differential tests: the shared subset search and the harvey-wood bridge
against test-local copies of the searches they replaced.

The references are independent copies of the earlier searches: one loop of
increasing size over `combinations` for the weighted minimum separator, an
`admits(k)` closure for the separation number, and the bridge's uniform-weight
route, one minimum-separator search for every non-empty support Y.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Optional

import pytest
from hypothesis import given, settings

from conftest import graphs
from twcert.graphs import Graph, bits, mask_of
from twcert.separators import (
    HarveyWoodReport,
    balanced_separator_from_td,
    component_weights,
    exact_treewidth,
    harvey_wood_check,
    min_balanced_separator,
    separation_number,
)
from twcert.suites import seeded_catalog
from twcert.weights import WeightFunction

CS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
CATALOG = seeded_catalog(7, 7, per_n=6)


def uniform_on(g: Graph, support: list[int]) -> WeightFunction:
    """1/|Y| on the support Y, 0 elsewhere."""
    share = Fraction(1, len(support))
    return WeightFunction.from_values(
        [share if v in support else Fraction(0) for v in range(g.n)]
    )


def ref_min_balanced_separator(
    g: Graph, w: WeightFunction, c: Fraction, max_size: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    top = g.n if max_size is None else min(max_size, g.n)
    for k in range(top + 1):
        for xs in combinations(range(g.n), k):
            parts = component_weights(g, w, mask_of(xs))
            if all(wt <= c for _, wt in parts):
                return xs
    return None


def ref_separation_number(g: Graph, c: Fraction) -> int:
    best = 0
    full = g.full_mask()
    for s_mask in range(full + 1):
        limit = c * s_mask.bit_count()

        def admits(k: int) -> bool:
            for xs in combinations(range(g.n), k):
                x_mask = mask_of(xs)
                if all(
                    (comp & s_mask).bit_count() <= limit
                    for comp in g.component_masks(full & ~x_mask)
                ):
                    return True
            return False

        if admits(best):
            continue
        k = best + 1
        while not admits(k):
            k += 1
        best = k
    return best


def ref_harvey_wood(
    g: Graph, c: Fraction, seed: int, uniform_k: int, n_weights: int = 20
) -> HarveyWoodReport:
    """The bridge as it was, given the worst uniform-weight separator size
    its per-support loop found."""
    tw, td = exact_treewidth(g, cap=g.n)
    sep = ref_separation_number(g, c)
    rng = random.Random(seed)
    all_small = True
    for _ in range(n_weights):
        raw = [Fraction(rng.randint(0, 8)) for _ in g.vertices]
        if sum(raw) == 0:
            raw[0] = Fraction(1)
        total = sum(raw)
        w = WeightFunction.from_values([x / total for x in raw])
        found = balanced_separator_from_td(g, w, c, td)
        if found is None:
            found = ref_min_balanced_separator(g, w, c, max_size=tw + 1)
        if found is None or len(found) > tw + 1:
            all_small = False
    return HarveyWoodReport(
        upper_bound_holds=Fraction(tw + 1) <= Fraction(sep) / (1 - c),
        uniform_bound_holds=Fraction(tw) <= Fraction(uniform_k) / (1 - c),
        small_separator_found_for_all=all_small,
    )


def check_against_reference(g: Graph, c: Fraction, seed: int) -> None:
    uniform_k = 0  # the worst minimum separator over all uniform supports
    for y_mask in range(1, g.full_mask() + 1):
        w = uniform_on(g, list(bits(y_mask)))
        assert w.is_normal()
        assert w.w_max == Fraction(1, y_mask.bit_count())
        ref = ref_min_balanced_separator(g, w, c)
        assert min_balanced_separator(g, w, c, max_size=g.n) == ref
        assert min_balanced_separator(
            g, w, c, max_size=1
        ) == ref_min_balanced_separator(g, w, c, max_size=1)
        uniform_k = max(uniform_k, len(ref))
    assert uniform_k == separation_number(g, c, cap=g.n) == ref_separation_number(g, c)
    report = ref_harvey_wood(g, c, seed, uniform_k)
    assert harvey_wood_check(g, c, seed=seed) == report


def test_uniform_on_support_reference():
    w = uniform_on(Graph(5, [(i, i + 1) for i in range(4)]), [1, 3])
    assert w[1] == Fraction(1, 2) and w[0] == 0
    assert w.is_normal()
    assert w.w_max == Fraction(1, 2)


@pytest.mark.parametrize("c", CS, ids=str)
@pytest.mark.parametrize("idx", range(len(CATALOG)))
def test_catalog_matches_reference(idx, c):
    check_against_reference(CATALOG[idx], c, seed=7 + idx)


@given(graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_hypothesis_graphs_match_reference(g):
    for c in CS:
        check_against_reference(g, c, seed=g.n)
