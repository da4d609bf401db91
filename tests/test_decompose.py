import random

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, is_chordal, single_bag_td
from twcert.check import validate_td
from twcert.decompose import (
    NotChordal,
    chordal_td,
    find_hole,
    fuzzy_lci_td,
    strip_assembly,
)
from twcert.generators import (
    LciThickening,
    ThickeningSpec,
    circular_interval_graph,
    complete_graph,
    cycle_graph,
    cycle_interval_model,
    path_graph,
    single_interval_model,
    star_graph,
    strip_structure_instance,
    wall,
)
from twcert.graphs import Graph, TreeDecomposition, clique_number
from twcert.separators import exact_treewidth


def test_validate_single_bag():
    g = cycle_graph(5)
    rep = validate_td(g, single_bag_td(g))
    assert rep.ok and rep.width == 4


def test_validate_path_decomposition():
    p5 = path_graph(5)
    td = TreeDecomposition(
        bags=((0, 1), (1, 2), (2, 3), (3, 4)),
        tree_edges=((0, 1), (1, 2), (2, 3)),
    )
    rep = validate_td(p5, td)
    assert rep.ok and rep.width == 1


def test_validate_reports_missing_edge():
    p3 = path_graph(3)
    td = TreeDecomposition(bags=((0, 1), (2,)), tree_edges=((0, 1),))
    rep = validate_td(p3, td)
    assert not rep.ok
    assert any("(1,2)" in v.replace(" ", "") for v in rep.violations)


def test_validate_reports_disconnected_occurrences():
    p3 = path_graph(3)
    td = TreeDecomposition(
        bags=((0, 1), (1, 2), (0, 2)), tree_edges=((0, 1), (1, 2))
    )
    rep = validate_td(p3, td)
    assert not rep.ok
    assert any("disconnected" in v for v in rep.violations)


def test_chordal_td_anchors():
    td = chordal_td(complete_graph(4))
    rep = validate_td(complete_graph(4), td)
    assert rep.ok and rep.width == 3
    tree = star_graph(5)
    td = chordal_td(tree)
    assert validate_td(tree, td).width == 1
    with pytest.raises(NotChordal) as exc:
        chordal_td(cycle_graph(4))
    assert len(exc.value.hole) == 4


def test_find_hole():
    assert find_hole(complete_graph(5)) is None
    assert find_hole(path_graph(6)) is None
    hole = find_hole(cycle_graph(6))
    assert hole is not None and len(hole) == 6
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    hole = find_hole(g)  # chorded 5-cycle still holds a 4-hole
    assert hole is not None and len(hole) == 4


@given(connected_graphs(max_n=7))
@settings(max_examples=50, deadline=None)
def test_chordality_agrees_with_hole_search(g):
    assert is_chordal(g) == (find_hole(g) is None)


def _seeded_chordal(rng, n):
    from twcert.suites import chordal_growth

    return chordal_growth(rng, n)


def test_chordal_clique_trees_hit_clique_number():
    rng = random.Random(11)
    for _ in range(25):
        g = _seeded_chordal(rng, rng.randint(4, 30))
        td = chordal_td(g)
        rep = validate_td(g, td)
        assert rep.ok
        assert rep.width == clique_number(g) - 1
        assert all(g.is_clique(b) for b in td.bags)


def test_fuzzy_lci_plain_cycle():
    model = cycle_interval_model(5)
    base = circular_interval_graph(model)
    lci = LciThickening(model, ThickeningSpec(base=base, sizes=(1,) * 5))
    rep = fuzzy_lci_td(lci)
    val = validate_td(base, rep.td)
    assert val.ok
    assert val.width <= 4 * base.max_degree() + 3
    assert val.width >= exact_treewidth(base)[0]


def test_fuzzy_lci_thickened_with_fuzz():
    model = cycle_interval_model(5)
    base = circular_interval_graph(model)
    spec = ThickeningSpec(
        base=base,
        sizes=(2, 2, 2, 2, 2),
        fuzz=((0, 1),),
        patterns=(((0, 0), (1, 1), (0, 1)),),
    )
    lci = LciThickening(model, spec)
    g = lci.graph
    rep = fuzzy_lci_td(lci)
    val = validate_td(g, rep.td)
    assert val.ok
    assert val.width <= 4 * g.max_degree() + 3
    assert val.width >= exact_treewidth(g)[0]
    # the cut clique, the blocks on the first arc, really is a clique of the
    # completed graph (the fuzzy blocks made complete), and is in every bag
    extra = [(a, b) for u, v in spec.fuzz for a in spec.block(u) for b in spec.block(v)]
    completed = Graph(g.n, list(g.edges) + extra)
    cut = sorted(
        x for u in range(base.n) if model.contains(0, model.points[u]) for x in spec.block(u)
    )
    assert completed.is_clique(cut)
    assert all(set(cut) <= set(bag) for bag in rep.td.bags)


def test_fuzzy_lci_single_interval_is_chordal_case():
    model = single_interval_model(5)
    base = circular_interval_graph(model)
    lci = LciThickening(model, ThickeningSpec(base=base, sizes=(1,) * 5))
    rep = fuzzy_lci_td(lci)
    val = validate_td(base, rep.td)
    assert val.ok and val.width == clique_number(base) - 1


def test_strip_assembly_all_instances():
    kinds = [
        "trivial_single_edge",
        "line_graph_of:triangle",
        "line_graph_of:k13",
        "line_graph_of:c5",
        "line_graph_of:p4",
        "lci_strips",
        "parallel_edges",
    ]
    for kind in kinds:
        ss = strip_structure_instance(kind)
        simple = Graph(ss.pattern_n, [(a, b) for a, b in ss.pattern_edges if a != b])
        _, td0 = exact_treewidth(simple)
        strips = {}
        for i in range(len(ss.pattern_edges)):
            sg, _ = ss.strip_graph(i)
            try:
                strips[i] = chordal_td(sg)
            except NotChordal:
                strips[i] = exact_treewidth(sg)[1]
        rep = strip_assembly(ss, td0, strips)
        val = validate_td(ss.host, rep.td)
        assert val.ok, (kind, val.violations)
        assert rep.bounds_hold
        if ss.host.n <= 14:
            assert val.width >= exact_treewidth(ss.host)[0]
        delta = ss.host.max_degree()
        for t in range(td0.n_nodes):  # the hub nodes come first
            assert len(rep.td.bags[t]) <= len(td0.bags[t]) * (delta + 1) ** 2


def test_strip_assembly_trivial_adds_end_sets():
    ss = strip_structure_instance("trivial_single_edge")
    simple = Graph(ss.pattern_n, list(ss.pattern_edges))
    td0 = single_bag_td(simple)
    sg, _ = ss.strip_graph(0)
    rep = strip_assembly(ss, td0, {0: chordal_td(sg)})
    assert validate_td(ss.host, rep.td).ok


def test_strip_assembly_rejects_bad_pattern_td():
    ss = strip_structure_instance("line_graph_of:p4")
    bad_td0 = TreeDecomposition(
        bags=((0, 1), (2, 3)), tree_edges=((0, 1),)
    )
    sgs = {i: single_bag_td(ss.strip_graph(i)[0]) for i in range(len(ss.pattern_edges))}
    with pytest.raises(ValueError):
        strip_assembly(ss, bad_td0, sgs)


def test_oracle_never_beaten_by_constructions():
    # soundness: constructed widths are never below the exact optimum
    g = wall(2, 3)
    tw, _ = exact_treewidth(g)
    td = single_bag_td(g)
    assert validate_td(g, td).width >= tw


def test_validate_reports_out_of_range_vertices():
    edge = Graph(2, [(0, 1)])
    rep = validate_td(edge, TreeDecomposition(bags=((-1, 0, 1),), tree_edges=()))
    assert not rep.ok
    assert rep.violations == ("bag vertex -1 out of range",)
    rep = validate_td(edge, TreeDecomposition(bags=((0, 1, 5),), tree_edges=()))
    assert rep.violations == ("bag vertex 5 out of range",)
