"""Named verification batteries over seeded corpora.

Each suite builds a deterministic corpus from the configured seed, runs one
family of checks, and returns a Certificate whose serialization is
byte-identical across runs with the same configuration.  The acceptance
tests drive these same batteries.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Optional, Sequence

from .centralbag import (
    audit_is_complete,
    central_bag,
    check_bag_separator_transfer,
    clique_central_bag,
    covering_sequence,
    dimension_partition,
    no_small_separator,
    run_master_pipeline,
)
from .certify import Certificate, graph_witness, td_witness
from .check import PYRAMID_SHAPE, THETA_SHAPE, claw_shape, is_subdivision_set, validate_td
from .config import Budget, RunConfig
from .decompose import (
    chordal_td,
    decompose_strip_structure,
    find_hole,
    fuzzy_lci_td,
)
from .detect import (
    find_creature,
    find_induced,
    find_line_of_subdivided_wall,
    find_subdivided_claw,
    find_t_pyramid,
    find_t_theta,
    iter_induced_maps,
    verify_forcer,
)
from .generators import (
    CaterpillarSpec,
    LciThickening,
    ThickeningSpec,
    caterpillar,
    circular_interval_graph,
    complete_bipartite,
    complete_graph,
    creature,
    cycle_graph,
    cycle_interval_model,
    path_graph,
    star_graph,
    strip_structure_instance,
    subdivided_claw,
    single_interval_model,
    wall,
)
from .graphs import (
    Graph,
    clique_number,
    disjoint_union,
    full_subdivision,
    line_graph,
    mask_of,
)
from .separators import (
    exact_treewidth,
    harvey_wood_check,
    treewidth_bounds,
    treewidth_or_bounds,
)
from .weights import WeightFunction


# -- corpora -----------------------------------------------------------------------


def random_connected(rng: random.Random, n: int, p: float) -> Optional[Graph]:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    g = Graph(n, edges)
    return g if g.is_connected() else None


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def seeded_catalog(max_n: int, seed: int, per_n: int) -> list[Graph]:
    """Named small graphs plus seeded random connected graphs, deduplicated."""
    rng = random.Random(seed)
    out: list[Graph] = []
    seen: set[tuple[int, tuple[tuple[int, int], ...]]] = set()

    def add(g: Graph) -> None:
        key = (g.n, g.edges)
        if g.n <= max_n and g.is_connected() and key not in seen:
            seen.add(key)
            out.append(g)

    add(Graph(1, []))
    for n in range(2, max_n + 1):
        add(path_graph(n))
        add(complete_graph(n))
        if n >= 3:
            add(cycle_graph(n))
            add(star_graph(n - 1))
        for a in range(1, n // 2 + 1):
            add(complete_bipartite(a, n - a))
    if max_n >= 4:
        add(wall(2, 2))
    if max_n >= 6:
        add(wall(2, 3))
    for n in range(3, max_n + 1):
        tries = 0
        made = 0
        while made < per_n and tries < 20 * per_n:
            tries += 1
            p = rng.choice([0.25, 0.4, 0.55, 0.7])
            g = random_connected(rng, n, p)
            if g is not None:
                before = len(seen)
                add(g)
                made += len(seen) - before
        add(random_tree(rng, n))
    return out


def random_weights(rng: random.Random, g: Graph) -> WeightFunction:
    raw = [rng.randint(0, 6) for _ in g.vertices]
    if sum(raw) == 0:
        raw[rng.randrange(g.n)] = 1
    return WeightFunction.from_numerators(raw, sum(raw))


def chordal_growth(rng: random.Random, n: int) -> Graph:
    """Grow a chordal graph by repeatedly attaching a simplicial vertex to a
    clique of an already-built graph, with cliques of at most 5 vertices."""
    edges: list[tuple[int, int]] = []
    cliques: list[tuple[int, ...]] = [(0,)]
    for u in range(1, n):
        base = list(rng.choice(cliques))
        rng.shuffle(base)
        take = base[: rng.randint(1, min(len(base), 4))]
        edges.extend((v, u) for v in take)
        cliques.append(tuple(sorted(take + [u])))
    return Graph(n, edges)


def pattern_free_corpus(
    seed: int,
    count: int,
    is_clean: Callable[[Graph], bool],
    extras: Sequence[Graph],
) -> list[Graph]:
    """Seeded graphs on 6 to 9 vertices filtered by a detector-based
    cleanliness predicate."""
    rng = random.Random(seed)
    out = [g for g in extras if is_clean(g)]
    tries = 0
    while len(out) < count and tries < 400 * count:
        tries += 1
        n = rng.randint(6, 9)
        g = random_connected(rng, n, rng.choice([0.35, 0.5, 0.65, 0.8]))
        if g is None:
            continue
        if is_clean(g):
            out.append(g)
    return out[:count]


def creature_exists_bruteforce(g: Graph, k: int, t: int, budget: Budget) -> bool:
    """Body-first enumeration: fix a connected candidate body, then pack k
    admissible joint-oriented paths around it.

    Each path's masks are built once, not per body: its vertices, the
    neighbours of its joint, the neighbours of its other vertices, and its
    vertices with all their neighbours.  A path is admissible for a body it
    misses, that its joint touches and no other vertex does; two packed
    paths are disjoint and anticomplete."""
    nbr = g.neighbor_mask
    paths = []
    for p in iter_induced_maps(g, path_graph(t + 1), budget):
        pm = mask_of(p)
        rest = 0
        for v in p[1:]:
            rest |= nbr(v)
        joint = nbr(p[0])
        paths.append((pm, joint, rest, pm | joint | rest))
    full = g.full_mask()
    for body_mask in range(1, full + 1):
        if g.reach_mask(body_mask & -body_mask, body_mask) != body_mask:
            continue
        ok_paths = [
            (pm, closed)
            for pm, joint, rest, closed in paths
            if joint & body_mask and not (pm | rest) & body_mask
        ]

        def pack(start: int, used: int, left: int) -> bool:
            if left == 0:
                return True
            for idx in range(start, len(ok_paths)):
                pm, closed = ok_paths[idx]
                if closed & used:
                    continue
                if pack(idx + 1, used | pm, left - 1):
                    return True
            return False

        if pack(0, 0, k):
            return True
    return False


# -- suite registry ------------------------------------------------------------------


def _new_cert(name: str, cfg: RunConfig) -> Certificate:
    return Certificate(command=["verify", name], seed=cfg.seed)


def suite_anchors(cfg: RunConfig) -> Certificate:
    """Wall facts and treewidth anchor values, plus subdivision invariance."""
    cert = _new_cert("anchors", cfg)
    w33 = wall(3, 3)
    cert.expect(
        "wall.count",
        "the 3x3 wall has 12 vertices and max degree 3",
        [w33.n, w33.max_degree()],
        [12, 3],
    )
    tw, td = exact_treewidth(w33, cap=cfg.max_tw_n)
    cert.add(
        "wall.treewidth",
        "the 3x3 wall has treewidth 3",
        tw == 3,
        td_witness(w33, td, 3),
    )
    sub = full_subdivision(w33)
    bounds = treewidth_bounds(sub)
    cert.expect(
        "wall.subdivision-invariant",
        "fully subdividing the 3x3 wall preserves treewidth 3",
        [bounds.lower, bounds.upper],
        [tw, tw],
    )
    for name, g, want in [
        ("k4", complete_graph(4), 3),
        ("k33", complete_bipartite(3, 3), 3),
    ]:
        got = exact_treewidth(g, cap=cfg.max_tw_n)[0]
        cert.expect(f"anchor.{name}", f"treewidth of {name} is {want}", got, want)
    rng = random.Random(cfg.seed)
    trees_ok = True
    for _ in range(10):
        tr = random_tree(rng, rng.randint(2, 10))
        if exact_treewidth(tr, cap=cfg.max_tw_n)[0] != 1:
            trees_ok = False
    cert.expect(
        "anchor.trees", "seeded random trees all have treewidth 1", trees_ok, True
    )
    # subdivision invariance over the small catalog, exact up to the cap
    ok = True
    for g in seeded_catalog(6, cfg.seed, per_n=4):
        if g.n < 2 or g.m == 0:
            continue
        twg = exact_treewidth(g, cap=cfg.max_tw_n)[0]
        sg = full_subdivision(g)
        exact = treewidth_or_bounds(sg, cap=cfg.max_tw_n).exact
        if exact is not None and exact != max(twg, 1):
            ok = False
    cert.expect(
        "catalog.subdivision-invariant",
        "treewidth is invariant under full subdivision across the catalog",
        ok,
        True,
    )
    return cert


def suite_harvey_wood(cfg: RunConfig) -> Certificate:
    """Separation number vs treewidth, and small balanced separators for
    seeded weight functions, across the whole catalog up to 7 vertices."""
    cert = _new_cert("harvey-wood", cfg)
    catalog = seeded_catalog(7, cfg.seed, per_n=6)
    cert.record_input("catalog", [graph_witness(g) for g in catalog])
    c = cfg.c
    violations: list[int] = []
    weight_fails: list[int] = []
    uniform_fails: list[int] = []
    budget = Budget(cfg.search_budget)
    for idx, g in enumerate(catalog):
        rep = harvey_wood_check(g, c, seed=cfg.seed + idx, budget=budget)
        if not rep.upper_bound_holds:
            violations.append(idx)
        if not rep.uniform_bound_holds:
            uniform_fails.append(idx)
        if not rep.small_separator_found_for_all:
            weight_fails.append(idx)
    cert.expect(
        "bridge.upper",
        "tw + 1 is at most sep/(1-c) on every catalog graph",
        violations,
        [],
    )
    cert.expect(
        "bridge.uniform",
        "tw is at most (1/(1-c)) times the worst uniform-weight separator size",
        uniform_fails,
        [],
    )
    cert.expect(
        "bridge.weighted",
        "every seeded normal weight admits a balanced separator of size tw+1",
        weight_fails,
        [],
    )
    return cert


def _bag_corpus(cfg: RunConfig, count: int) -> list[tuple[Graph, Graph, WeightFunction]]:
    rng = random.Random(cfg.seed)
    patterns = [path_graph(1), path_graph(2), path_graph(3)]
    triples: list[tuple[Graph, Graph, WeightFunction]] = []
    while len(triples) < count:
        n = rng.randint(5, 10)
        g = random_connected(rng, n, rng.choice([0.25, 0.35, 0.5]))
        if g is None:
            continue
        pattern = patterns[len(triples) % len(patterns)]
        w = (
            WeightFunction.uniform(g)
            if len(triples) % 2 == 0
            else random_weights(rng, g)
        )
        triples.append((g, pattern, w))
    return triples


def suite_bag_algebra(cfg: RunConfig) -> Certificate:
    """Per-level bag algebra on 200 seeded triples: cuts stay in the bag, the
    bag is connected, and the propagated weights sum to exactly one."""
    cert = _new_cert("bag-algebra", cfg)
    bad: list[int] = []
    budget = Budget(cfg.search_budget)
    for idx, (g, pattern, w) in enumerate(_bag_corpus(cfg, 200)):
        seq = covering_sequence(g, w, pattern, budget)
        result = central_bag(g, w, seq, dimension_partition(seq))
        if not result.algebra_holds or result.escaped_weight != 0:
            bad.append(idx)
    cert.expect(
        "bag.algebra",
        "every seeded run keeps cuts in the bag, a connected bag, and unit weight",
        bad,
        [],
    )
    return cert


def suite_bag_audit(cfg: RunConfig) -> Certificate:
    """On 120 seeded triples, every dropped separation re-validates against
    its stored justification."""
    cert = _new_cert("bag-audit", cfg)
    bad: list[int] = []
    total_drops = 0
    budget = Budget(cfg.search_budget)
    for idx, (g, pattern, w) in enumerate(_bag_corpus(cfg, 120)):
        seq = covering_sequence(g, w, pattern, budget)
        result = central_bag(g, w, seq, dimension_partition(seq))
        total_drops += len(result.drops)
        if not audit_is_complete(seq, result):
            bad.append(idx)
    cert.expect(
        "bag.audit",
        "all drop records re-validate as shields or center hits",
        [bad, total_drops],
        [[], total_drops],
    )
    return cert


def _conditional_instances(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    instances: list[tuple[str, Graph, WeightFunction, Graph, int]] = []
    c9 = cycle_graph(9)
    instances.append(("c9-uniform-d1", c9, WeightFunction.uniform(c9), path_graph(1), 1))
    c5 = cycle_graph(5)
    instances.append(("c5-uniform-d1", c5, WeightFunction.uniform(c5), path_graph(1), 1))
    k5 = complete_graph(5)
    instances.append(("k5-uniform-d2", k5, WeightFunction.uniform(k5), path_graph(2), 2))
    k33 = complete_bipartite(3, 3)
    instances.append(("k33-uniform-d2", k33, WeightFunction.uniform(k33), path_graph(1), 2))
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    instances.append(("prism-uniform-d2", prism, WeightFunction.uniform(prism), path_graph(1), 2))
    for i in range(4):
        g = None
        while g is None:
            g = random_connected(rng, rng.randint(7, 10), 0.3)
        instances.append((f"seeded-{i}", g, random_weights(rng, g), path_graph(1), 1))
    return instances


def suite_conditional_bags(cfg: RunConfig) -> Certificate:
    """Conditional conclusions on small instances: statuses must be pass or
    hypothesis-unmet, never fail, and the confirmed-hypothesis instances must
    actually exercise the conclusions."""
    cert = _new_cert("conditional-bags", cfg)
    n_no_sep_met = 0
    n_all_conclusions_true = 0
    budget = Budget(cfg.search_budget)
    for name, g, w, pattern, d in _conditional_instances(cfg):
        no_sep = no_small_separator(g, w, cfg.c, d)
        seq = covering_sequence(g, w, pattern, budget)
        classes = dimension_partition(seq)
        result = central_bag(g, w, seq, classes)
        _, t = seq.goodness(g)
        checks = check_bag_separator_transfer(
            g, w, cfg.c, d, seq, classes, t, result, no_sep
        )
        all_checks = [*checks, *clique_central_bag(g, w, cfg.c, d, no_sep)]
        if no_sep:
            n_no_sep_met += 1
            measured = [
                chk.conclusion_holds
                for chk in all_checks
                if chk.conclusion_holds is not None
            ]
            if measured and all(measured):
                n_all_conclusions_true += 1
        statuses = [chk.status for chk in all_checks]
        cert.expect(
            f"conditional.{name}",
            f"statuses on {name}: " + ",".join(statuses),
            statuses.count("fail"),
            0,
        )
    cert.expect(
        "conditional.exercised",
        "enough instances confirm the no-separator hypothesis, and on at least "
        "one of them every measured conclusion holds",
        [n_no_sep_met >= 3, n_all_conclusions_true >= 1],
        [True, True],
    )
    return cert


def suite_forcer_claw(cfg: RunConfig) -> Certificate:
    """Spider forcers on 50 spider-free graphs: for legs (2, b, b) the graph
    with one leg shortened plus an isolated vertex forces the doubly
    shortened spider."""
    cert = _new_cert("forcer-claw", cfg)
    count = 50
    budget = Budget(cfg.search_budget)
    for b in (1, 2):
        def clean(g: Graph, b=b) -> bool:
            return find_subdivided_claw(g, 2, b, b, budget) is None

        inner = subdivided_claw(1, b, b).graph
        forcer = disjoint_union(inner, Graph(1, []))  # plus an isolated vertex
        x_pattern = path_graph(2 * b + 1)  # legs (0, b, b) degenerate to a path
        if b == 1:
            # stars carry many claws but no length-2 leg
            extras = [
                disjoint_union(inner, Graph(1, [])),
                disjoint_union(star_graph(3), path_graph(3)),
                disjoint_union(star_graph(4), path_graph(2), Graph(1, [])),
                disjoint_union(star_graph(5), cycle_graph(3)),
                disjoint_union(star_graph(3), star_graph(3)),
                line_graph(subdivided_claw(2, 2, 2).graph),
                complete_graph(6),
            ]
        else:
            # a long spine with one middle leaf holds the shortened spider
            # but no vertex has three long legs
            extras = [
                disjoint_union(inner, Graph(1, [])),
                disjoint_union(inner, star_graph(3)),
                disjoint_union(inner, inner),
                caterpillar(CaterpillarSpec(8, ((), (), (), (), (1,)))).graph,
                caterpillar(CaterpillarSpec(9, ((), (), (), (1,), (), (), (1,)))).graph,
                complete_graph(6),
            ]
        corpus = pattern_free_corpus(cfg.seed + b, count, clean, extras=extras)
        holds = []
        nonvacuous = 0
        for g in corpus:
            rep = verify_forcer(g, forcer, x_pattern, budget)
            holds.append(rep.holds)
            nonvacuous += int(rep.copies_checked > 0)
        cert.expect(
            f"forcer.claw.b{b}",
            f"shortened spider plus a far vertex forces the path on {count} clean graphs",
            [sum(holds), len(holds), nonvacuous >= 4],
            [count, count, True],
        )
    return cert


def suite_forcer_theta(cfg: RunConfig) -> Certificate:
    """On 50 graphs with no short theta or pyramid, the depth-2 spider
    forces the claw."""
    cert = _new_cert("forcer-theta", cfg)
    count = 50
    budget = Budget(cfg.search_budget)

    def clean(g: Graph) -> bool:
        return find_t_theta(g, 2, budget) is None and find_t_pyramid(g, 2, budget) is None

    forcer = subdivided_claw(2, 2, 2).graph
    x_pattern = star_graph(3)
    rng = random.Random(cfg.seed)
    extras: list[Graph] = [
        subdivided_claw(3, 3, 3).graph,
        subdivided_claw(2, 2, 2).graph,
        disjoint_union(subdivided_claw(2, 2, 2).graph, path_graph(3)),
        caterpillar(CaterpillarSpec(4, ((2,), (2,), (2,), (), (2,)))).graph,
        caterpillar(CaterpillarSpec(6, ((2,), (), (2,), (), (2,), (), (2,)))).graph,
    ]
    for _ in range(20):
        extras.append(random_tree(rng, rng.randint(7, 10)))
    corpus = pattern_free_corpus(cfg.seed, count, clean, extras=extras)
    holds = []
    nonvacuous = 0
    for g in corpus:
        rep = verify_forcer(g, forcer, x_pattern, budget)
        holds.append(rep.holds)
        nonvacuous += int(rep.copies_checked > 0)
    cert.expect(
        "forcer.theta",
        f"the depth-2 spider forces the claw on {count} theta/pyramid-free graphs",
        [sum(holds), len(holds), nonvacuous >= 4],
        [count, count, True],
    )
    return cert


def suite_constructions(cfg: RunConfig) -> Certificate:
    """Chordal clique trees at the clique-number width, and thickened
    interval decompositions within the degree bound."""
    cert = _new_cert("constructions", cfg)
    rng = random.Random(cfg.seed)
    bad: list[int] = []
    for idx in range(100):
        n = rng.randint(4, 30)
        g = chordal_growth(rng, n)
        td = chordal_td(g)
        rep = validate_td(g, td)
        omega = clique_number(g)
        if not rep.ok or rep.width != omega - 1:
            bad.append(idx)
        if not all(g.is_clique(b) for b in td.bags):
            bad.append(idx)
    cert.expect(
        "chordal.width",
        "100 seeded chordal graphs decompose into clique trees of width omega-1",
        bad,
        [],
    )

    bad_lci: list[str] = []
    models = []
    for k in (4, 5, 6, 8):
        models.append((f"cycle{k}-flat", cycle_interval_model(k), None))
        models.append((f"cycle{k}-thick", cycle_interval_model(k), rng.randint(2, 3)))
    models.append(("clique", single_interval_model(), 2))
    for name, model, size in models:
        base = circular_interval_graph(model)
        if size is None:
            spec = ThickeningSpec(base=base, sizes=(1,) * base.n)
        else:
            sizes = tuple(rng.randint(1, size) for _ in range(base.n))
            fuzz = ()
            patterns = ()
            eligible = model.endpoint_pairs()
            if eligible and rng.random() < 0.8:
                u, v = eligible[0]
                nu, nv = sizes[u], sizes[v]
                if nu * nv > 1:
                    cells = [(0, 0)]
                    fuzz = ((u, v),)
                    patterns = (tuple(cells),)
            spec = ThickeningSpec(base=base, sizes=sizes, fuzz=fuzz, patterns=patterns)
        lci = LciThickening(model, spec)
        g = lci.graph
        rep = fuzzy_lci_td(lci)
        val = validate_td(g, rep.td)
        ok = val.ok and val.width <= rep.width_bound
        if ok and g.n <= cfg.max_tw_n:
            ok = val.width >= exact_treewidth(g, cap=cfg.max_tw_n)[0]
        if not ok:
            bad_lci.append(name)
    cert.expect(
        "lci.width",
        "thickened interval decompositions validate within 4*Delta+3 and above the oracle",
        bad_lci,
        [],
    )
    return cert


def suite_strip_assembly(cfg: RunConfig) -> Certificate:
    """Assembled strip decompositions validate and honour both bag bounds."""
    cert = _new_cert("strip-assembly", cfg)
    kinds = [
        "trivial_single_edge",
        "line_graph_of:triangle",
        "line_graph_of:k13",
        "line_graph_of:c5",
        "line_graph_of:p4",
        "lci_strips",
        "parallel_edges",
    ]
    bad: list[str] = []
    for kind in kinds:
        ss = strip_structure_instance(kind)
        rep = decompose_strip_structure(ss, cap=cfg.max_tw_n)
        val = validate_td(ss.host, rep.td)
        sound = True
        if ss.host.n <= cfg.max_tw_n:
            sound = val.width >= exact_treewidth(ss.host, cap=cfg.max_tw_n)[0]
        if not (val.ok and rep.bounds_hold and sound):
            bad.append(kind)
    cert.expect(
        "strip.assembly",
        "every generator-provided strip structure assembles into a valid decomposition",
        bad,
        [],
    )
    return cert


def suite_detectors(cfg: RunConfig) -> Certificate:
    """Cross-validate every specialised detector against subset-classification
    oracles on the catalog up to 8 vertices, plus the named positive
    instances."""
    cert = _new_cert("detectors", cfg)
    catalog = seeded_catalog(8, cfg.seed, per_n=4)
    budget = Budget(cfg.search_budget)
    mism: dict[str, list[int]] = {"theta": [], "pyramid": [], "claw": [], "creature": [], "wall-line": []}
    for idx, g in enumerate(catalog):
        subs = [vs for r in range(1, g.n + 1) for vs in combinations(range(g.n), r)]
        oracle_theta = any(
            is_subdivision_set(g, vs, THETA_SHAPE) for vs in subs if len(vs) >= 5
        )
        if oracle_theta != (find_t_theta(g, 2, budget) is not None):
            mism["theta"].append(idx)
        oracle_pyr = any(
            is_subdivision_set(g, vs, PYRAMID_SHAPE) for vs in subs if len(vs) >= 6
        )
        if oracle_pyr != (find_t_pyramid(g, 1, budget) is not None):
            mism["pyramid"].append(idx)
        for lens in ((1, 1, 1), (2, 1, 1), (0, 2, 1)):
            size, shape = 1 + sum(lens), claw_shape(lens)
            oracle_claw = any(
                is_subdivision_set(g, vs, shape) for vs in subs if len(vs) == size
            )
            if oracle_claw != (find_subdivided_claw(g, *lens, budget) is not None):
                mism["claw"].append(idx)
        for k, t in ((3, 0), (3, 1)):
            if creature_exists_bruteforce(g, k, t, budget) != (
                find_creature(g, k, t, budget) is not None
            ):
                mism["creature"].append(idx)
        hole_found = find_hole(g) is not None
        if hole_found != (find_line_of_subdivided_wall(g, 2, budget) is not None):
            mism["wall-line"].append(idx)
    for key, lst in mism.items():
        cert.expect(
            f"detect.cross.{key}",
            f"specialised {key} detector agrees with the subset oracle on the catalog",
            lst,
            [],
        )
    k23 = complete_bipartite(2, 3)
    hit = find_t_theta(k23, 2, budget)
    cert.expect(
        "detect.k23",
        "the complete bipartite graph on 2+3 vertices is a 2-theta",
        None if hit is None else list(hit.image),
        [0, 1, 2, 3, 4],
    )
    spiders_ok = True
    for t in (0, 1, 2):
        sp = subdivided_claw(t + 1, t + 1, t + 1).graph
        if find_creature(sp, 3, t, budget) is None:
            spiders_ok = False
    cert.expect(
        "detect.spider-creature",
        "the uniform spider with legs t+1 is a (3,t)-creature for t in {0,1,2}",
        spiders_ok,
        True,
    )
    mono_bad: list[int] = []
    for idx, g in enumerate(catalog):
        if find_t_theta(g, 3, budget) is not None and find_t_theta(g, 2, budget) is None:
            mono_bad.append(idx)
    cert.expect(
        "detect.monotone",
        "finding a longer theta implies finding a shorter one",
        mono_bad,
        [],
    )
    return cert


def suite_pipeline(cfg: RunConfig) -> Certificate:
    """End-to-end central-bag pipeline on constructed instances."""
    cert = _new_cert("pipeline", cfg)
    rng = random.Random(cfg.seed)
    instances: list[tuple[str, Graph, Graph]] = []
    instances.append(("c9", cycle_graph(9), path_graph(1)))
    g12 = None
    while g12 is None or g12.n != 12:
        g12 = random_connected(rng, 12, 0.25)
    instances.append(("seeded-12", g12, path_graph(3)))
    instances.append(("wall33", wall(3, 3), path_graph(1)))
    budget = Budget(cfg.search_budget)
    for name, g, pattern in instances:
        rep = run_master_pipeline(
            g, pattern, forcers=[], c=cfg.c, d=cfg.d, tw_cap=cfg.max_tw_n, budget=budget
        )
        cert.expect(
            f"pipeline.{name}",
            f"pipeline on {name}: bag size {len(rep.result.bag)}, "
            f"{len(rep.classes)} classes",
            [
                rep.result.algebra_holds,
                rep.audit_complete,
                rep.dimension_bound_holds,
                rep.anchor_bound_holds,
                [chk.status for chk in rep.transfer_checks].count("fail"),
                rep.treewidth_within_symbolic_bound in (True, None),
            ],
            [True, True, True, True, 0, True],
        )
    # forcer elimination along the pipeline, on a spider-free instance
    host = complete_graph(6)
    inner = subdivided_claw(1, 1, 1).graph
    forcer = Graph(inner.n + 1, list(inner.edges))
    rep = run_master_pipeline(
        host, path_graph(3), forcers=[forcer], c=cfg.c, d=cfg.d, tw_cap=cfg.max_tw_n,
        budget=budget,
    )
    (chk,) = rep.forcer_checks
    cert.expect(
        "pipeline.forcer",
        "a verified forcer never survives into the central bag",
        [[chk.hypothesis_met], [chk.conclusion_holds]],
        [[True], [True]],
    )
    return cert


def suite_creatures(cfg: RunConfig) -> Certificate:
    """Creature generators round-trip through the detector, and generated
    creatures contain a subdivision of a small caterpillar or its line graph."""
    cert = _new_cert("creatures", cfg)
    budget = Budget(cfg.search_budget)
    ok = True
    for k, t, spacing in ((3, 0, 2), (3, 1, 2), (4, 2, 2), (2, 3, 3)):
        wit = creature(k, t, spacing)
        if find_creature(wit.graph, k, t, budget) is None:
            ok = False
    cert.expect(
        "creature.roundtrip",
        "generated creatures are re-detected at their own parameters",
        ok,
        True,
    )
    claw = star_graph(3)
    found = True
    for k, t in ((3, 1), (4, 2)):
        wit = creature(k, t, 2)
        g = wit.graph
        # a subdivision of the claw is any spider; its line graph contains a triangle
        spider = any(
            find_subdivided_claw(g, a, b, c, budget) is not None
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
            if a <= b <= c
        )
        tri = find_induced(g, cycle_graph(3), budget) is not None
        if not (spider or tri):
            found = False
    cert.expect(
        "creature.caterpillar",
        "desk-scale creatures contain a subdivided claw or a triangle",
        found,
        True,
    )
    return cert


SUITES: dict[str, Callable[[RunConfig], Certificate]] = {
    "anchors": suite_anchors,
    "harvey-wood": suite_harvey_wood,
    "bag-algebra": suite_bag_algebra,
    "bag-audit": suite_bag_audit,
    "conditional-bags": suite_conditional_bags,
    "forcer-claw": suite_forcer_claw,
    "forcer-theta": suite_forcer_theta,
    "constructions": suite_constructions,
    "strip-assembly": suite_strip_assembly,
    "detectors": suite_detectors,
    "pipeline": suite_pipeline,
    "creatures": suite_creatures,
}


def verify_suite(name: str, cfg: RunConfig) -> Certificate:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](cfg)
