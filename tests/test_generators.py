from fractions import Fraction
from itertools import combinations

import pytest

from conftest import anticomplete
from twcert.graphs import Graph
from twcert.generators import (
    CaterpillarSpec,
    CircularIntervalModel,
    LciThickening,
    StripStructure,
    ThickeningSpec,
    caterpillar,
    circular_interval_graph,
    complete_bipartite,
    creature,
    cycle_graph,
    cycle_interval_model,
    path_graph,
    pyramid,
    single_interval_model,
    star_graph,
    strip_structure_instance,
    subdivided_claw,
    theta,
    thickening,
    wall,
    wall_coordinates,
)


def _isomorphic_small(g1, g2):
    from twcert.detect import find_induced

    return g1.n == g2.n and g1.m == g2.m and find_induced(g1, g2) is not None


def test_wall_shapes():
    w22 = wall(2, 2)
    assert _isomorphic_small(w22, cycle_graph(4))
    w33 = wall(3, 3)
    assert w33.n == 12 and w33.max_degree() == 3
    w55 = wall(5, 5)
    assert w55.n == 40 and w55.max_degree() == 3
    with pytest.raises(ValueError):
        wall(1, 3)


def ref_wall_edges(n, m):
    """The wall's edges as the earlier `wall` built them: rows as coordinate
    pairs, rungs at odd-odd and even-even positions, then filtered to the
    coordinates that exist."""
    coords = wall_coordinates(n, m)
    index = {c: i for i, c in enumerate(coords)}
    pairs = []
    pairs += [((1, 2 * j - 1), (1, 2 * j + 1)) for j in range(1, m)]
    for i in range(2, n):
        pairs += [((i, j), (i, j + 1)) for j in range(1, 2 * m)]
    if n % 2 == 1:
        pairs += [((n, 2 * j), (n, 2 * j + 2)) for j in range(1, m)]
    else:
        pairs += [((n, 2 * j - 1), (n, 2 * j + 1)) for j in range(1, m)]
    for i in range(1, n):
        for j in range(1, 2 * m + 1):
            if i % 2 == 1 and j % 2 == 1:
                pairs.append(((i, j), (i + 1, j)))
            if i % 2 == 0 and j % 2 == 0:
                pairs.append(((i, j), (i + 1, j)))
    return [(index[a], index[b]) for a, b in pairs if a in index and b in index]


def test_wall_matches_reference_construction():
    for n in range(2, 9):
        for m in range(2, 9):
            assert wall(n, m) == Graph(len(wall_coordinates(n, m)), ref_wall_edges(n, m))


def test_wall_treewidth_matches_size():
    from twcert.separators import exact_treewidth

    assert exact_treewidth(wall(3, 3), cap=14)[0] == 3


def test_subdivided_claw():
    w = subdivided_claw(1, 1, 1)
    assert _isomorphic_small(w.graph, star_graph(3))
    assert w.roles == (("root", (0,)), ("leg1", (1,)), ("leg2", (2,)), ("leg3", (3,)))
    p = subdivided_claw(0, 2, 2)
    assert _isomorphic_small(p.graph, path_graph(5))
    s = subdivided_claw(2, 2, 2)
    assert s.graph.n == 7 and s.graph.degree(0) == 3
    with pytest.raises(ValueError):
        subdivided_claw(1, 0, 1)
    with pytest.raises(ValueError):
        subdivided_claw(-1, 1, 1)


def test_theta_and_pyramid():
    t = theta(2, 2, 2)
    assert _isomorphic_small(t.graph, complete_bipartite(2, 3))
    g = pyramid(1, 2, 2).graph
    assert g.n == 6  # apex, triangle, and one interior vertex per long path
    triangles = [
        vs
        for vs in combinations(range(g.n), 3)
        if all(g.has_edge(u, v) for u, v in combinations(vs, 2))
    ]
    assert len(triangles) == 1
    t333 = theta(3, 3, 3).graph
    assert t333.n == 8
    # girth via shortest cycle through each edge
    from twcert.decompose import find_hole

    hole = find_hole(t333)
    assert hole is not None and len(hole) == 6
    with pytest.raises(ValueError):
        theta(1, 2, 2)
    with pytest.raises(ValueError):
        pyramid(1, 1, 2)


def test_caterpillar_specs():
    with pytest.raises(ValueError):
        CaterpillarSpec(1, ((1, 1, 1),))  # spine end may carry at most 2 legs
    single = caterpillar(CaterpillarSpec(0, ((1, 1, 1),)))
    assert _isomorphic_small(single.graph, star_graph(3))
    w = caterpillar(CaterpillarSpec(2, ((), (2,), ())))
    g = w.graph
    assert g.n == 5 and g.m == 4 and g.max_degree() <= 3
    assert g.is_connected()
    # all degree-3 vertices lie on the spine
    spine = set(dict(w.roles)["spine"])
    assert all(v in spine for v in g.vertices if g.degree(v) == 3)
    # each leg runs from its spine vertex outward
    assert w.roles == (("spine", (0, 1, 2)), ("leg1", (1, 3, 4)))


def test_creature_witnesses():
    from twcert.detect import find_creature

    for k, t in ((3, 1), (4, 2)):
        wit = creature(k, t, 2)
        assert find_creature(wit.graph, k, t) is not None
        # structural witness properties hold directly
        (name, body), *numbered = wit.roles
        assert name == "body"
        assert [name for name, _ in numbered] == [f"path{i}" for i in range(1, k + 1)]
        paths = [p for _, p in numbered]
        for p in paths:
            assert len(p) == t + 1
            assert any(wit.graph.has_edge(p[0], b) for b in body)
            for v in p[1:]:
                assert not any(wit.graph.has_edge(v, b) for b in body)
        for p1, p2 in combinations(paths, 2):
            assert anticomplete(wit.graph, p1, p2)


def test_circular_interval_c5():
    model = cycle_interval_model(5)
    g = circular_interval_graph(model)
    assert _isomorphic_small(g, cycle_graph(5))
    assert model.endpoint_pairs() == ((0, 1),)
    # a second arc holding both ends of the first leaves no pair to fuzz
    points = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    inner = (Fraction(1, 4), Fraction(1, 2))
    assert CircularIntervalModel(points, (inner,)).endpoint_pairs() == ((1, 2),)
    nested = CircularIntervalModel(points, (inner, (Fraction(1, 8), Fraction(5, 8))))
    assert nested.endpoint_pairs() == ()


def test_interval_model_invariants():
    with pytest.raises(ValueError):  # shared endpoint
        CircularIntervalModel(
            (Fraction(0), Fraction(1, 2)),
            ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4))),
        )
    with pytest.raises(ValueError):  # three arcs cover the circle
        CircularIntervalModel(
            (Fraction(0),),
            (
                (Fraction(0), Fraction(2, 5)),
                (Fraction(1, 3), Fraction(3, 4)),
                (Fraction(7, 10), Fraction(1, 10)),
            ),
        )


def test_single_interval_model_is_clique():
    g = circular_interval_graph(single_interval_model())
    assert g.n == 5 and g.m == 10


def test_thickening_blocks():
    k2 = path_graph(2)
    g = thickening(ThickeningSpec(base=k2, sizes=(2, 2)))
    assert g.n == 4 and g.m == 6  # complete blocks: K4
    g2 = thickening(
        ThickeningSpec(
            base=k2,
            sizes=(2, 2),
            fuzz=((0, 1),),
            patterns=((((0, 0)), (0, 1), (1, 0)),),
        )
    )
    assert g2.n == 4 and g2.m == 5  # K4 minus one cross edge


def test_thickening_validation():
    k2 = path_graph(2)
    with pytest.raises(ValueError):  # complete fuzzy block
        ThickeningSpec(
            base=k2, sizes=(1, 1), fuzz=((0, 1),), patterns=(((0, 0),),)
        )
    with pytest.raises(ValueError):  # vertex in two fuzz pairs
        ThickeningSpec(
            base=path_graph(3),
            sizes=(2, 2, 2),
            fuzz=((0, 1), (1, 2)),
            patterns=(((0, 0),), ((0, 0),)),
        )


def test_thickening_with_unit_blocks_is_base():
    base = circular_interval_graph(cycle_interval_model(6))
    g = thickening(ThickeningSpec(base=base, sizes=(1,) * 6))
    assert g == base


def test_lci_thickening_fuzz_eligibility():
    model = cycle_interval_model(5)
    base = circular_interval_graph(model)
    with pytest.raises(ValueError):
        LciThickening(
            model,
            ThickeningSpec(
                base=base, sizes=(2,) * 5, fuzz=((1, 2),), patterns=(((0, 0),),)
            ),
        )


def test_strip_structures_validate():
    for kind in (
        "trivial_single_edge",
        "line_graph_of:triangle",
        "line_graph_of:k13",
        "line_graph_of:c5",
        "line_graph_of:p4",
        "lci_strips",
        "parallel_edges",
    ):
        ss = strip_structure_instance(kind)
        ss.validate()


def test_line_graph_strip_hosts():
    ss = strip_structure_instance("line_graph_of:triangle")
    assert _isomorphic_small(ss.host, cycle_graph(3))
    ss = strip_structure_instance("line_graph_of:k13")
    assert _isomorphic_small(ss.host, cycle_graph(3))


def test_trivial_strip_structure_covers_host():
    ss = strip_structure_instance("trivial_single_edge")
    assert len(ss.pattern_edges) == 1
    assert ss.eta[0] == tuple(range(ss.host.n))


def test_strip_validator_rejects_broken():
    ss = strip_structure_instance("parallel_edges")
    broken = ss.__class__(
        host=ss.host,
        pattern_n=ss.pattern_n,
        pattern_edges=ss.pattern_edges,
        eta=(ss.eta[0][:-1], ss.eta[1] + (ss.eta[0][-1],)),
        eta_end=ss.eta_end,
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_strip_validator_bounds_a_loop_end_set():
    """A loop's second end-set is in no (S2) union, so only the explicit
    Delta+1 bound rejects it."""
    ss = StripStructure(
        host=path_graph(4),
        pattern_n=1,
        pattern_edges=((0, 0),),
        eta=((0, 1, 2, 3),),
        eta_end=(((0,), (0, 1, 2, 3)),),
    )
    with pytest.raises(ValueError, match="exceeds Delta\\+1"):
        ss.validate()


STRIP_KINDS = (
    "trivial_single_edge",
    "line_graph_of:triangle",
    "line_graph_of:k13",
    "line_graph_of:c5",
    "line_graph_of:p4",
    "lci_strips",
    "parallel_edges",
)


def _s3_reference(ss):
    """The (S3) cross-strip check as `StripStructure.validate` wrote it
    before it kept one map of pattern vertices per host vertex: the error
    text of the first failing edge, or None."""
    strip_of = {x: i for i, strip in enumerate(ss.eta) for x in strip}
    endsets = [
        (frozenset(left), frozenset(right)) for left, right in ss.eta_end
    ]
    for x, y in ss.host.edges:
        i, j = strip_of[x], strip_of[y]
        if i == j:
            continue
        # need a shared pattern vertex with x, y in the matching end-sets
        ok = False
        for v in range(ss.pattern_n):
            slots_i = [s for e, s in ss.incident(v) if e == i]
            slots_j = [s for e, s in ss.incident(v) if e == j]
            if any(x in endsets[i][s] for s in slots_i) and any(
                y in endsets[j][s] for s in slots_j
            ):
                ok = True
                break
        if not ok:
            return f"host edge ({x},{y}) crosses strips {i},{j} outside end-sets"
    return None


def _with_edge(ss, x, y):
    host = ss.host.__class__(ss.host.n, list(ss.host.edges) + [(x, y)])
    return StripStructure(host, ss.pattern_n, ss.pattern_edges, ss.eta, ss.eta_end)


def _loop_structure():
    """A loop at pattern vertex 0 (strip 0, end-sets (1,) and (0,)) beside
    the edge 0-1 (strip 1); only the loop's first end-set meets vertex 0."""
    return StripStructure(
        host=path_graph(4),
        pattern_n=2,
        pattern_edges=((0, 0), (0, 1)),
        eta=((0, 1), (2, 3)),
        eta_end=(((1,), (0,)), ((2,), (3,))),
    )


def test_strip_validator_rejects_an_edge_outside_end_sets():
    ss = strip_structure_instance("parallel_edges")  # two paths 0..2 and 3..5
    with pytest.raises(ValueError, match=r"host edge \(1,4\) crosses strips 0,1 outside end-sets"):
        _with_edge(ss, 1, 4).validate()
    with pytest.raises(ValueError, match=r"host edge \(0,2\) crosses strips 0,1 outside"):
        _with_edge(_loop_structure(), 0, 2).validate()  # a loop's second end-set


def test_strip_cross_edge_check_matches_reference():
    bases = [strip_structure_instance(kind) for kind in STRIP_KINDS] + [_loop_structure()]
    cases = 0
    outcomes = set()
    for ss in bases:
        strip_of = {x: i for i, strip in enumerate(ss.eta) for x in strip}
        tampered = [
            _with_edge(ss, x, y)
            for x, y in combinations(range(ss.host.n), 2)
            if strip_of[x] != strip_of[y] and not ss.host.has_edge(x, y)
        ]
        for t in [ss, *tampered]:
            expected = _s3_reference(t)
            try:
                t.validate()
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (t.pattern_edges, t.host.edges)
            cases += 1
            outcomes.add(expected is None)
    assert cases > len(bases) and outcomes == {True, False}
