"""The seven-vertex path makes every central-bag quantity computable by hand;
these tests pin that full trace, then check the measured laws on random
instances."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    RelationFlags,
    clique_bag,
    clique_covering,
    connected_graphs,
    primordial,
    relation,
    sep,
)
from twcert.centralbag import (
    Separation,
    SeparationSequence,
    audit_is_complete,
    canonical_separation,
    central_bag,
    check_bag_separator_transfer,
    clique_central_bag,
    clique_cutsets,
    covering_sequence,
    dimension_partition,
    DegenerateSeparation,
    forcer_elimination_check,
    is_a_laminar,
    is_laminar,
    is_shield,
    leq_power_bound,
    no_small_separator,
    run_master_pipeline,
)
from twcert.config import RunConfig
from twcert.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    subdivided_claw,
    wall,
)
from twcert.graphs import Graph, geometric_ball_bound, mask_of
from twcert.suites import _bag_corpus, random_weights
from twcert.weights import WeightFunction

HALF = Fraction(1, 2)


def assert_separation(g: Graph, s: Separation) -> None:
    """A, C and B are disjoint and cover g, A is anticomplete to B, and the
    anchor and the center lie in the cut."""
    a, c, b = mask_of(s.a), mask_of(s.c), mask_of(s.b)
    assert a | c | b == g.full_mask()
    assert len(s.a) + len(s.c) + len(s.b) == g.n
    assert all(not g.neighbor_mask(v) & b for v in s.a)
    assert c >> s.anchor & 1
    assert not mask_of(s.center) & ~c


def crossing(flags: RelationFlags) -> bool:
    return not flags.loosely_non_crossing


@pytest.fixture
def p7():
    g = path_graph(7)
    return g, WeightFunction.uniform(g)


def test_canonical_separation_p7(p7):
    g, w = p7
    s = canonical_separation(g, w, [3])
    # tie between the two 2-vertex components breaks to the lower ids
    assert s.b == (0, 1)
    assert s.c == (2, 3)
    assert s.a == (4, 5, 6)
    assert s.anchor == 3 and s.center == (3,)
    assert_separation(g, s)


def test_separation_requires_center_and_anchor():
    """All four masks are required; the anchor is the least center vertex."""
    with pytest.raises(TypeError):
        Separation(0b001, 0b010, 0b100)
    with pytest.raises(TypeError):
        Separation(a_mask=0b001, c_mask=0b010, center_mask=0b010)
    with pytest.raises(TypeError):
        Separation(a_mask=0b001, b_mask=0b100, center_mask=0b010)
    with pytest.raises(TypeError):
        Separation(c_mask=0b010, b_mask=0b100, center_mask=0b010)
    s = sep((0,), (1,), (2,), (1,))
    assert s == Separation(0b001, 0b010, 0b100, 0b010)
    assert s.anchor == 1
    assert_separation(path_graph(3), s)


def test_canonical_separation_p3():
    g = path_graph(3)
    s = canonical_separation(g, WeightFunction.uniform(g), [0])
    assert s.b == (2,) and s.c == (0, 1) and s.a == ()


def test_canonical_separation_degenerate():
    g = path_graph(2)
    with pytest.raises(DegenerateSeparation):
        canonical_separation(g, WeightFunction.uniform(g), [0])


def test_relation_flags(p7):
    g, w = p7
    s1 = canonical_separation(g, w, [1])
    s2 = canonical_separation(g, w, [5])
    flags = relation(s1, s2)
    assert flags.a_loosely_non_crossing
    assert flags.a_non_crossing and is_a_laminar([s1, s2])
    assert flags.non_crossing and flags.loosely_non_crossing and is_laminar([s1, s2])
    assert not crossing(flags)


def test_relation_crossing_witness():
    s1 = canonical_separation(
        path_graph(7), WeightFunction.uniform(path_graph(7)), [3]
    )
    # a separation whose cut meets the other's A side
    g = path_graph(7)
    w = WeightFunction.uniform(g)
    s2 = canonical_separation(g, w, [5])
    flags = relation(s1, s2)
    assert not flags.a_loosely_non_crossing  # C(s2) = {4,5} meets A(s1)
    assert not is_a_laminar([s1, s2])


def test_shield_reflexive_and_primordial(p7):
    g, w = p7
    s = canonical_separation(g, w, [3])
    assert is_shield(s, s)
    s_small = canonical_separation(g, w, [1])
    # bc(s) = {0,1,2,3} is contained in bc(s_small) = {1,...,6}? no; build
    # a nested pair explicitly
    reduced, drops = primordial((s_small, s))
    assert len(reduced) + len(drops) == 2


def test_make_primordial_keeps_earliest():
    g = path_graph(7)
    w = WeightFunction.uniform(g)
    s0 = canonical_separation(g, w, [0])  # bc covers everything
    s2 = canonical_separation(g, w, [2])
    seq, drops = primordial((s0, s2))
    assert len(seq) == 1 and seq[0] == s2
    assert drops == [(0, 1)]  # s2 (kept index 1 in input) shields s0


def test_covering_sequence_p7(p7):
    g, w = p7
    seq = covering_sequence(g, w, path_graph(1))
    assert len(seq.separations) == 7 and not seq.skipped
    assert seq.goodness(g) == (1, 1)


def test_covering_sequence_skips_degenerate():
    g = complete_graph(4)
    seq = covering_sequence(g, WeightFunction.uniform(g), path_graph(1))
    assert len(seq.separations) == 0 and seq.skipped == ((0,), (1,), (2,), (3,))
    for copy in seq.skipped:
        with pytest.raises(DegenerateSeparation):
            canonical_separation(g, WeightFunction.uniform(g), copy)


def test_no_pattern_copies_leaves_whole_graph(p7):
    g, w = p7
    seq = covering_sequence(g, w, complete_graph(3))
    assert len(seq.separations) == 0
    result = central_bag(g, w, seq, dimension_partition(seq))
    assert result.bag == tuple(range(7))
    assert result.weights == w.as_dict()


@pytest.mark.parametrize("count", [6, 8])
def test_central_bag_weight_count_must_match_vertex_count(p7, count):
    g, w = p7
    seq = covering_sequence(g, w, path_graph(1))
    other = WeightFunction.from_mapping({v: Fraction(1, count) for v in range(count)})
    with pytest.raises(ValueError, match=f"^{count} weights for 7 vertices$"):
        central_bag(g, other, seq, dimension_partition(seq))


def test_dimension_partition_p7(p7):
    g, w = p7
    seq = covering_sequence(g, w, path_graph(1))
    classes = dimension_partition(seq)
    assert classes == ((0, 2, 5), (1, 4, 6), (3,))
    a, t = seq.goodness(g)
    assert a == 1 and t == 1
    # strongly laminar classes: cuts pairwise disjoint
    for cls in classes:
        cuts = [set(seq.separations[i].c) for i in cls]
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                assert not cuts[i] & cuts[j]
    # at most a * gamma(2t) + 1 classes
    bound = a * geometric_ball_bound(g.max_degree(), 2 * t) + 1
    assert len(classes) <= bound


def test_central_bag_p7_full_trace(p7):
    g, w = p7
    seq = covering_sequence(g, w, path_graph(1))
    result = central_bag(g, w, seq, dimension_partition(seq))
    assert result.bag == (2, 3)
    assert result.weights == {2: Fraction(3, 7), 3: Fraction(4, 7)}
    assert result.generator == ((2, 5), (4,), (3,))
    assert result.algebra_holds
    assert result.escaped_weight == 0
    assert audit_is_complete(seq, result)
    assert result.recompute_bag(g, seq) == result.bag


def test_central_bag_single_separation(p7):
    g, w = p7
    s = canonical_separation(g, w, [3])
    seq = SeparationSequence(separations=(s,))
    result = central_bag(g, w, seq, dimension_partition(seq))
    assert result.bag == (0, 1, 2, 3)
    assert result.weights[3] == Fraction(1, 7) + Fraction(3, 7)
    assert sum(result.weights.values()) == 1


def test_cut_stays_in_level_bag(p7):
    g, w = p7
    seq = covering_sequence(g, w, path_graph(1))
    result = central_bag(g, w, seq, dimension_partition(seq))
    for lvl in result.levels:
        assert lvl.cut_in_bag and lvl.bag_connected and lvl.weight_total_one


@given(connected_graphs(min_n=4, max_n=8))
@settings(max_examples=40, deadline=None)
def test_audit_complete_on_random_graphs(g):
    w = WeightFunction.uniform(g)
    seq = covering_sequence(g, w, path_graph(2))
    result = central_bag(g, w, seq, dimension_partition(seq))
    assert audit_is_complete(seq, result)
    assert result.recompute_bag(g, seq) == result.bag
    # kept separations are pairwise cut-disjoint within each class
    for cls in result.generator:
        cuts = [set(seq.separations[i].c) for i in cls]
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                assert not cuts[i] & cuts[j]


def test_clique_cutsets_p3_and_c4():
    assert clique_cutsets(path_graph(3)) == [(1,)]
    assert clique_cutsets(cycle_graph(4)) == []


def test_clique_covering_and_bag_p3():
    g = path_graph(3)
    w = WeightFunction.uniform(g)
    covering, _ = clique_covering(g, w)
    assert len(covering.separations) == 1
    assert covering.separations[0].c == (1,)
    no_sep = no_small_separator(g, w, HALF, 1)
    _, res, no_cutset, cliques = clique_bag(g, w)
    assert res.bag == (0, 1)
    assert res.weights == {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert no_cutset and cliques
    assert clique_central_bag(g, w, HALF, 1, no_sep)[1].conclusion_holds


def test_clique_bag_no_cutset_on_c4():
    g = cycle_graph(4)
    w = WeightFunction.uniform(g)
    covering, res, no_cutset, _ = clique_bag(g, w)
    assert len(covering.separations) == 0
    assert res.bag == tuple(range(4))
    assert no_cutset
    no_sep = no_small_separator(g, w, HALF, 1)
    assert clique_central_bag(g, w, HALF, 1, no_sep)[1].conclusion_holds


@given(connected_graphs(min_n=3, max_n=8))
@settings(max_examples=60, deadline=None)
def test_clique_bag_bookkeeping(g):
    """Unconditional invariants hold on any input; the measured laws are only
    promised once the reduced covering is actually A-loosely laminar."""
    w = WeightFunction.uniform(g)
    covering, res, no_cutset, cliques = clique_bag(g, w)
    checks = clique_central_bag(g, w, HALF, 1, no_small_separator(g, w, HALF, 1))
    assert checks[1].conclusion_holds == no_cutset
    assert sum(res.weights.values()) + res.escaped_weight == 1
    assert audit_is_complete(covering, res)
    assert res.recompute_bag(g, covering) == res.bag
    if all(lvl.restricted_a_loosely_laminar for lvl in res.levels):
        assert sum(res.weights.values()) == 1
        assert no_cutset
        assert cliques


def test_clique_bag_one_pass_matches_two_pass():
    """`clique_central_bag` hands every clique separation to `central_bag`,
    whose primordial reduction is idempotent: reducing first with the
    clique covering, then building the bag, keeps the same members and gives
    the same bag and weights."""
    rng = random.Random(5)
    reduced = 0
    for g, _, _ in _bag_corpus(RunConfig(), 120):
        for w in (WeightFunction.uniform(g), random_weights(rng, g)):
            seq, one_pass, _, _ = clique_bag(g, w)
            covering, drops = clique_covering(g, w)
            n = len(covering.separations)
            two_pass = central_bag(g, w, covering, (tuple(range(n)),) if n else ())
            assert one_pass.bag == two_pass.bag
            assert one_pass.weights == two_pass.weights
            kept = [seq.separations[i] for cls in one_pass.generator for i in cls]
            assert kept == list(covering.separations)
            reduced += bool(drops)
    assert reduced  # the reduction drops members on some graphs


def test_transfer_checks_never_fail_with_met_hypotheses():
    g = cycle_graph(9)
    w = WeightFunction.uniform(g)
    seq = covering_sequence(g, w, path_graph(1))
    classes = dimension_partition(seq)
    result = central_bag(g, w, seq, classes)
    no_sep = no_small_separator(g, w, HALF, 1)
    _, t = seq.goodness(g)
    checks = check_bag_separator_transfer(g, w, HALF, 1, seq, classes, t, result, no_sep)
    assert all(chk.status in ("pass", "hypothesis-unmet") for chk in checks)
    # every measured conclusion on this instance is true
    assert all(chk.conclusion_holds for chk in checks if chk.conclusion_holds is not None)


def test_transfer_reports_hypothesis_unmet_not_pass():
    g = path_graph(6)  # has small balanced separators: hypothesis fails
    w = WeightFunction.uniform(g)
    seq = covering_sequence(g, w, path_graph(1))
    classes = dimension_partition(seq)
    result = central_bag(g, w, seq, classes)
    no_sep = no_small_separator(g, w, HALF, 2)
    _, t = seq.goodness(g)
    checks = check_bag_separator_transfer(g, w, HALF, 2, seq, classes, t, result, no_sep)
    assert all(chk.status == "hypothesis-unmet" for chk in checks)


def test_forcer_elimination_on_spider_free_host():
    host = complete_graph(6)
    w = WeightFunction.uniform(host)
    pattern = path_graph(3)
    inner = subdivided_claw(1, 1, 1).graph
    forcer = Graph(inner.n + 1, list(inner.edges))
    seq = covering_sequence(host, w, pattern)
    result = central_bag(host, w, seq, dimension_partition(seq))
    premise, clean = forcer_elimination_check(host, pattern, forcer, result)
    assert premise
    assert clean in (True, None)


def test_forcer_elimination_premise_gate():
    # on a long path, one endpoint of an edge does not break the other
    g = path_graph(8)
    w = WeightFunction.uniform(g)
    seq = covering_sequence(g, w, path_graph(1))
    result = central_bag(g, w, seq, dimension_partition(seq))
    premise, clean = forcer_elimination_check(g, path_graph(1), path_graph(2), result)
    assert not premise and clean is None


def test_leq_power_bound_lazy():
    assert leq_power_bound(10, 2, 3, 10**18)  # huge exponent, early exit
    assert leq_power_bound(8, 8, 1, 5)
    assert not leq_power_bound(9, 2, 2, 2)
    assert leq_power_bound(8, 2, 2, 2)


def test_master_pipeline_wall():
    g = wall(3, 3)
    rep = run_master_pipeline(g, path_graph(1), [], c=HALF, d=2, tw_cap=14)
    assert len(rep.sequence.separations) == 12
    assert rep.result.algebra_holds and rep.audit_complete
    assert rep.dimension_bound_holds and rep.anchor_bound_holds
    assert rep.treewidth_within_symbolic_bound in (True, None)
    assert all(chk.status != "fail" for chk in rep.transfer_checks)


def test_master_pipeline_empty_covering():
    g = path_graph(5)
    rep = run_master_pipeline(g, complete_graph(3), [], c=HALF, d=1, tw_cap=14)
    assert len(rep.sequence.separations) == 0
    assert rep.result.bag == tuple(range(5))


def test_epsilon_skew_bookkeeping(p7):
    g, w = p7
    s = canonical_separation(g, w, [3])
    wa, wb = s.skew(w)
    assert wa == Fraction(3, 7) and wb == Fraction(2, 7)


def test_relation_identical_empty_a_all_flags():
    g = path_graph(3)
    s = canonical_separation(g, WeightFunction.uniform(g), [0])  # A is empty
    flags = relation(s, s)
    assert flags.non_crossing and flags.loosely_non_crossing
    assert flags.a_non_crossing and flags.a_loosely_non_crossing
    assert is_laminar([s, s]) and is_a_laminar([s, s])


def test_wall_covering_goodness():
    g = wall(3, 3)
    w = WeightFunction.uniform(g)
    seq = covering_sequence(g, w, path_graph(1))
    a, t = seq.goodness(g)
    assert a == 1  # every vertex anchors exactly its own separation
    full = g.full_mask()
    assert t == max(
        g.bfs_distances(u, full)[v] for s in seq.separations for u in s.c for v in s.c
    )
