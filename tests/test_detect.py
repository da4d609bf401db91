import json
import sys
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs, random_graph, subdivided
from test_exact_dp import relabel
from twcert.cli import main
from twcert.config import Budget
from twcert.detect import (
    Family,
    PatternMatch,
    _find,
    _lengths,
    breaks,
    find_creature,
    find_induced,
    find_line_of_subdivided_wall,
    find_subdivided_claw,
    find_t_pyramid,
    find_t_theta,
    induced_copies,
    iter_induced_maps,
    verify_forcer,
)
from twcert.generators import (
    CaterpillarSpec,
    caterpillar,
    complete_bipartite,
    complete_graph,
    creature,
    cycle_graph,
    path_graph,
    pyramid,
    star_graph,
    subdivided_claw,
    theta,
    wall,
)
from twcert.graphs import BudgetExhausted, Graph, bits, line_graph, mask_of
from twcert.io import write_graph_json


def test_find_induced_semantics():
    k13 = star_graph(3)
    hit = find_induced(k13, k13)
    assert hit is not None and hit.image == (0, 1, 2, 3)
    assert find_induced(cycle_graph(4), cycle_graph(3)) is None
    # induced semantics: a chorded 4-cycle is not a hole
    assert find_induced(complete_graph(4), cycle_graph(4)) is None
    assert find_induced(complete_graph(4), path_graph(3)) is None


def test_find_induced_lexicographic_first():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    hit = find_induced(g, path_graph(3))
    assert dict(hit.roles)["mapping"] == (0, 1, 2)


def test_induced_copies_are_sets_in_order():
    g = cycle_graph(5)
    copies = induced_copies(g, path_graph(3))
    assert copies == sorted(copies)
    assert len(copies) == 5


def test_budget_exhaustion_is_distinct():
    g = complete_bipartite(4, 4)
    with pytest.raises(BudgetExhausted):
        find_induced(g, complete_bipartite(3, 3), budget=Budget(10))


def test_theta_detector():
    assert find_t_theta(complete_bipartite(2, 3), 2) is not None
    assert find_t_theta(theta(3, 3, 3).graph, 4) is None
    assert find_t_theta(theta(3, 3, 3).graph, 3) is not None
    assert find_t_theta(complete_graph(5), 2) is None
    m = find_t_theta(complete_bipartite(2, 3), 2)
    a, b = dict(m.roles)["ends"]
    assert not complete_bipartite(2, 3).has_edge(a, b)


def test_pyramid_detector():
    assert find_t_pyramid(complete_graph(4), 2) is None
    g = pyramid(2, 2, 2).graph
    assert find_t_pyramid(g, 2) is not None
    assert find_t_pyramid(g, 3) is None
    assert find_t_pyramid(pyramid(1, 2, 2).graph, 1) is not None


def test_subdivided_claw_detector():
    w33 = wall(3, 3)
    hit = find_subdivided_claw(w33, 1, 1, 1)
    assert hit is not None
    root = dict(hit.roles)["root"][0]
    assert w33.degree(root) == 3
    assert find_subdivided_claw(cycle_graph(3), 1, 1, 1) is None
    s = subdivided_claw(2, 2, 2)
    hit = find_subdivided_claw(s.graph, 2, 2, 2)
    assert dict(hit.roles)["root"] == (0,)


def test_creature_detector():
    for t in (0, 1, 2):
        sp = subdivided_claw(t + 1, t + 1, t + 1).graph
        got = find_creature(sp, 3, t)
        assert got is not None
        assert [name for name, _ in got.roles] == ["body", "path1", "path2", "path3"]
        for _, p in got.roles[1:]:
            assert len(p) == t + 1
    assert find_creature(cycle_graph(3), 3, 0) is None
    wit = creature(4, 2, 2)
    assert find_creature(wit.graph, 4, 2) is not None


def recursive_paths(g: Graph, t: int) -> tuple[list[tuple[int, ...]], int]:
    """The induced paths on t+1 vertices, listed recursively, with the
    number of search-tree nodes the engine expands to list them: none when
    the path has more vertices than g, else the root and each prefix on
    1..t vertices.  A prefix grows only by vertices of a path vertex's
    degree at that place (at least 1 at the ends, 2 inside), as the
    engine's degree filter lets it."""
    if t + 1 > g.n:
        return [], 0
    need = [(i > 0) + (i < t) for i in range(t + 1)]
    out: list[tuple[int, ...]] = []
    expanded = 1

    def grow(path: list[int], used: int) -> None:
        nonlocal expanded
        if len(path) == t + 1:
            out.append(tuple(path))
            return
        expanded += 1
        tail = path[-1]
        for w in g.neighbors(tail):
            if used >> w & 1 or g.degree(w) < need[len(path)]:
                continue
            if g.neighbor_mask(w) & used & ~(1 << tail):
                continue
            path.append(w)
            grow(path, used | 1 << w)
            path.pop()

    for v in g.vertices:
        if g.degree(v) >= need[0]:
            grow([v], 1 << v)
    return sorted(out), expanded


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=9), st.integers(0, 6))
def test_creature_paths_match_recursive_reference(g, t):
    want, expanded = recursive_paths(g, t)
    bud = Budget(10**9)
    assert list(iter_induced_maps(g, path_graph(t + 1), bud, 1)) == want
    assert bud.used == expanded
    # the brute-force oracle's call, under the default budget
    assert list(iter_induced_maps(g, path_graph(t + 1), Budget(), 1)) == want


def test_creature_path_enumeration_is_charged_to_the_budget():
    # 224,692 induced paths on 15 vertices: the budget stops the search
    # for three of them at its eleventh search-tree node, before the first
    # path is placed
    bud = Budget(10)
    with pytest.raises(BudgetExhausted) as exc:
        find_creature(wall(7, 7), 3, 14, bud)
    assert bud.used == 11
    assert exc.traceback[-2].name == "_grow"


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_creature_path_length_needs_no_recursion_depth(tmp_path):
    # 100 spare frames: a path enumeration one frame deep per vertex would
    # need 150 more
    g, out = tmp_path / "cat.json", tmp_path / "det.json"
    assert main(["gen", "caterpillar", "--spine", "200", "-o", str(g)]) == 0
    argv = ["detect", "--pattern", "creature", "--k", "1", "--t", "150",
            "-i", str(g), "-o", str(out)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert len(json.loads(out.read_text())["roles"]["path1"]) == 151


def test_creature_search_steps_are_its_nodes():
    # one step per search-tree node: the root and each valid placement of
    # 1..K-1 path vertices, K = k(t+1).  On the 200-edge spine the path
    # from vertex 0 has no body and the one from vertex 1 has: 1 + 150 +
    # 150 nodes.
    spine = caterpillar(CaterpillarSpec(200, ())).graph
    bud = Budget()
    match = find_creature(spine, 1, 150, bud)
    assert dict(match.roles)["path1"] == tuple(range(1, 152))
    assert bud.used == 301
    bud = Budget()
    assert find_creature(wall(6, 6), 3, 2, bud) is not None
    assert bud.used == 14


def test_long_creature_path_search_takes_under_a_second(tmp_path):
    # the search-tree node of the i-th path vertex ANDs one host mask per
    # earlier path vertex, so a node costs O(t); the search expands 301
    # nodes, 7 ms in process for t = 150 on a 2-core container
    g, out = tmp_path / "cat.json", tmp_path / "det.json"
    assert main(["gen", "caterpillar", "--spine", "200", "-o", str(g)]) == 0
    argv = ["detect", "--pattern", "creature", "--k", "1", "--t", "150",
            "-i", str(g), "-o", str(out)]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0


def test_empty_host_expands_no_node():
    bud = Budget()
    got = find_induced(Graph(0, []), Graph(0, []), bud)
    assert got is not None and got.image == ()
    assert bud.used == 0
    assert list(iter_induced_maps(Graph(0, []), path_graph(1), bud, 1)) == []
    assert find_creature(Graph(0, []), 1, 0, bud) is None
    assert bud.used == 0


def creature_match(g: Graph, chosen: list[tuple[int, ...]]):
    """The creature with the chosen paths, each joint first: the first
    component of what the paths and the neighbours of their non-joint
    vertices leave that touches every joint, or None."""
    blocked = 0
    for p in chosen:
        blocked |= mask_of(p)
        for v in p[1:]:
            blocked |= g.neighbor_mask(v)
    allowed = g.full_mask() & ~blocked
    if not allowed:
        return None
    for comp in g.component_masks(allowed):
        if all(g.neighbor_mask(p[0]) & comp for p in chosen):
            body = tuple(bits(comp))
            return PatternMatch(
                image=tuple(sorted(set(body).union(*chosen))),
                roles=(
                    ("body", body),
                    *((f"path{i + 1}", p) for i, p in enumerate(chosen)),
                ),
            )
    return None


def recursive_creature(g: Graph, k: int, t: int):
    """The creature search over path tuples, recursively: the induced
    paths listed without the engine (`recursive_paths`), then tuples of k
    of them, disjoint and pairwise anticomplete, in increasing index
    order."""
    paths = recursive_paths(g, t)[0]

    def choose(start, chosen, used):
        if len(chosen) == k:
            return creature_match(g, chosen)
        for idx in range(start, len(paths)):
            p = paths[idx]
            pm = mask_of(p)
            if pm & used or any(g.neighbor_mask(v) & used for v in p):
                continue
            got = choose(idx + 1, chosen + [p], used | pm)
            if got is not None:
                return got
        return None

    return choose(0, [], 0)


def creature_by_vertices(g: Graph, k: int, t: int, budget: Budget):
    """`find_creature` placing one path vertex at a time, recursively, with
    one tick per node whose candidates it computes: the root and each
    valid placement of 1..K-1 vertices, K = k(t+1), none when K > n.  The
    j-th vertex of a path has the degree of its place (at least 1 at the
    ends, 2 inside), is adjacent to the vertex before it in its path and to
    no other placed vertex, and a joint lies above the joint before it."""
    size = t + 1
    if k * size > g.n:
        return None
    need = [(j > 0) + (j < t) for j in range(size)]
    placed: list[int] = []

    def place():
        if len(placed) == k * size:
            return creature_match(
                g, [tuple(placed[i : i + size]) for i in range(0, k * size, size)]
            )
        budget.tick()
        i, j = divmod(len(placed), size)
        prev = placed[-1] if j else None
        for c in g.vertices:
            if c in placed or g.degree(c) < need[j]:
                continue
            if j == 0 and i > 0 and c < placed[-size]:
                continue
            if any(g.has_edge(c, v) != (v == prev) for v in placed):
                continue
            placed.append(c)
            got = place()
            placed.pop()
            if got is not None:
                return got
        return None

    return place()


def creature_outcome(search, g, k, t, limit):
    budget = Budget(limit)
    try:
        result = search(g, k, t, budget)
    except BudgetExhausted:
        result = BudgetExhausted
    return result, budget.used


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=9), st.integers(1, 4), st.integers(0, 3), st.integers(0, 80))
def test_creature_search_matches_recursive_reference(g, k, t, limit):
    # the path-tuple search's match; and the vertex-by-vertex search's
    # match and ticks to the end, and its exhaustion point under a small
    # limit
    match, _ = creature_outcome(find_creature, g, k, t, 10**9)
    assert match == recursive_creature(g, k, t)
    for lim in (10**9, limit):
        assert creature_outcome(find_creature, g, k, t, lim) == creature_outcome(
            creature_by_vertices, g, k, t, lim
        )


def test_creature_count_needs_no_recursion_depth(tmp_path):
    # 1100 leaves of a 1200-leaf star: a search one frame deep per chosen
    # path overflows the default recursion limit
    star, out = tmp_path / "star.json", tmp_path / "det.json"
    with open(star, "w", encoding="utf-8") as fh:
        write_graph_json(star_graph(1200), fh)
    argv = ["detect", "--pattern", "creature", "--k", "1100", "--t", "0",
            "-i", str(star), "-o", str(out)]
    assert main(argv) == 0
    roles = json.loads(out.read_text())["roles"]
    assert set(roles) == {"body", *(f"path{i}" for i in range(1, 1101))}


def test_wall_line_detector():
    lw = line_graph(wall(3, 3))
    assert find_line_of_subdivided_wall(lw, 3) is not None
    assert find_line_of_subdivided_wall(cycle_graph(3), 3) is None
    # walls are triangle-free, so no line graph of a subdivided wall embeds
    assert find_line_of_subdivided_wall(wall(3, 3), 3) is None
    # k = 2: the family is exactly the holes
    assert find_line_of_subdivided_wall(cycle_graph(5), 2) is not None
    assert find_line_of_subdivided_wall(complete_graph(4), 2) is None


def wall_line_family(k: int) -> Family:
    """The declaration `find_line_of_subdivided_wall` searches at k, with no
    triangle test."""
    base = wall(k, k)
    free = base.m if k > 2 else 1
    return Family(
        base.n, base.edges, (1,) * free, rising=False, build=None, above=(), contains=()
    )


def has_triangle(g: Graph) -> bool:
    return any(g.neighbor_mask(u) & g.neighbor_mask(v) for u, v in g.edges)


def outcome(search, g: Graph, *args):
    """The match, or `budget` when the budget runs out, and the steps used."""
    budget = Budget(10**6)
    try:
        return search(g, *args, budget), budget.used
    except BudgetExhausted:
        return "budget", budget.used


@pytest.mark.parametrize("k", [2, 3])
def test_wall_line_matches_its_family_on_hosts_with_a_triangle(k):
    """Where the host has a triangle, the triangle test changes nothing: the
    match and `Budget.used` are those of the family search.  Random graphs
    up to 12 vertices, and, since a member at k = 3 has at least the 15
    vertices of the 3x3 wall's line graph, 15- and 16-vertex ones and that
    line graph relabeled, some with a pendant vertex more."""
    hosts = [random_graph(n, p, seed) for n in range(3, 13) for p in (0.3, 0.5)
             for seed in range(4)]
    hosts += [random_graph(n, 0.3, seed) for n in (15, 16) for seed in range(6)]
    for seed in range(4):
        g = relabel(line_graph(wall(3, 3)), seed)
        hosts.append(Graph(g.n + 1, [*g.edges, (seed, g.n)]) if seed % 2 else g)
    hosts = [g for g in hosts if has_triangle(g)]
    assert len(hosts) >= 60
    found = 0
    for g in hosts:
        got = outcome(find_line_of_subdivided_wall, g, k)
        assert got == outcome(_find, g, wall_line_family(k)), g.edges
        found += isinstance(got[0], PatternMatch)
    assert found >= (4 if k == 3 else 40)


def test_wall_line_k3_is_absent_on_triangle_free_hosts_where_the_family_finishes():
    """A triangle-free host is absent at k = 3 with no step used, and the
    family search, where it finishes, agrees: bipartite random graphs with
    15-17 vertices and subdivisions of the 3x3 wall."""
    hosts = [
        Graph(n, [(u, v) for u, v in random_graph(n, 0.4, seed).edges if (u + v) % 2])
        for n in (15, 16, 17) for seed in range(5)
    ]
    hosts += [subdivided(wall(3, 3), {e: 2}) for e in wall(3, 3).edges[:4]]
    finished = 0
    for g in hosts:
        assert not has_triangle(g)
        assert outcome(find_line_of_subdivided_wall, g, 3) == (None, 0)
        answer, _ = outcome(_find, g, wall_line_family(3))
        assert answer in (None, "budget")
        finished += answer is None
    assert finished >= 15


def recursive_compositions(extra, parts):
    """Every way to spread `extra` over `parts` slots, in lexicographic
    order, by recursion on the first slot."""
    if parts == 1:
        yield (extra,)
        return
    for first in range(extra + 1):
        for rest in recursive_compositions(extra - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_recursive_reference():
    # up to the 15 edges of the 3x3 wall, floors 0
    for parts in range(1, 16):
        for extra in range(6):
            assert list(_lengths(extra, (0,) * parts, False)) == list(
                recursive_compositions(extra, parts)
            )


@settings(max_examples=150, deadline=None)
@given(
    floors=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    rising=st.booleans(),
    total=st.integers(0, 14),
)
@example(floors=[1], rising=False, total=5)  # wall-line k = 2: one free edge
@example(floors=[3], rising=True, total=2)
def test_lengths_match_a_brute_force_filter(floors, rising, total):
    """The family layer's length enumerator against every vector of the
    right size, filtered and sorted."""
    expected = sorted(
        ls
        for ls in product(range(total + 1), repeat=len(floors))
        if sum(ls) == total
        and all(x >= f for x, f in zip(ls, floors))
        and (not rising or all(a <= b for a, b in zip(ls, ls[1:])))
    )
    assert list(_lengths(total, floors, rising)) == expected


def test_breaks_examples():
    k13 = star_graph(3)
    assert breaks(k13, [0], [1, 2, 3])  # vacuous: no components remain
    p5 = path_graph(5)
    assert breaks(p5, [2], [0, 4])
    assert not breaks(p5, [0], [2])
    with pytest.raises(ValueError):
        breaks(p5, [0], [0, 2])


def test_verify_forcer_vacuous_and_real():
    c6 = cycle_graph(6)
    forcer = Graph(5, list(star_graph(3).edges))  # claw plus isolated vertex
    rep = verify_forcer(c6, forcer, path_graph(3))
    assert rep.holds and rep.copies_checked == 0
    host = subdivided_claw(3, 3, 3).graph
    rep = verify_forcer(host, subdivided_claw(2, 2, 2).graph, star_graph(3))
    assert rep.holds and rep.copies_checked >= 1


def test_verify_forcer_skips_the_whole_copy_as_inner_copy():
    # the only copy of P3 inside a copy of P3 is all of it, which leaves
    # nothing to break; in P3 itself, where N[X'] is the whole host, an empty
    # rest would break vacuously
    for host in (wall(3, 3), path_graph(3)):
        rep = verify_forcer(host, path_graph(3), path_graph(3))
        assert (rep.holds, rep.copies_checked, rep.counterexample) == (False, 1, (0, 1, 2))


def test_verify_forcer_counterexample_is_genuine():
    # a 4-cycle: each edge (as pattern) never breaks the opposite edge
    c4 = cycle_graph(4)
    rep = verify_forcer(c4, c4, path_graph(2))
    if not rep.holds:
        y = rep.counterexample
        assert y is not None
        sub, sub_vs = c4.induced_subgraph(y)
        for inner in induced_copies(sub, path_graph(2)):
            xs = tuple(sorted(sub_vs[i] for i in inner))
            rest = tuple(sorted(set(y) - set(xs)))
            assert not breaks(c4, xs, rest)


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_theta_monotone_in_t(g):
    if find_t_theta(g, 3) is not None:
        assert find_t_theta(g, 2) is not None
