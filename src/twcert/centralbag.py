"""Canonical separations, covering sequences, laminarity taxonomy, and the
weighted central-bag engine with its audit log.

The engine never assumes the no-balanced-separator hypotheses; it runs on
any input and measures which conclusions hold, so that certificates can
distinguish a failed hypothesis from a failed conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .check import status_of
from .config import Budget
from .detect import induced_copies, verify_forcer, find_induced
from .graphs import CapExceeded, Graph, bits, geometric_ball_bound, lex_key, mask_of
from .separators import _require_normal, min_balanced_separator, treewidth_or_bounds
from .weights import WeightFunction, check_balance_parameter, numerator_sum


# -- separations ----------------------------------------------------------------


@dataclass(frozen=True)
class Separation:
    """An ordered triple (A, C, B): disjoint, covering, A anticomplete to B.

    A separation is four vertex bitmasks: its sides `a_mask`, `c_mask` and
    `b_mask`, and `center_mask`, the connected set inside the cut that
    generates it.  The relations and the central bag work on the masks.
    `a`, `c`, `b` and `center` read the same sets as ascending vertex
    tuples, and `anchor`, the vertex that collects the A-side weight, is the
    least vertex of the center.
    """

    a_mask: int
    c_mask: int
    b_mask: int
    center_mask: int

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(bits(self.a_mask))

    @property
    def c(self) -> tuple[int, ...]:
        return tuple(bits(self.c_mask))

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(bits(self.b_mask))

    @property
    def center(self) -> tuple[int, ...]:
        return tuple(bits(self.center_mask))

    @property
    def anchor(self) -> int:
        m = self.center_mask
        return (m & -m).bit_length() - 1

    def skew(self, w: WeightFunction) -> tuple[Fraction, Fraction]:
        return w.of(self.a), w.of(self.b)


class DegenerateSeparation(ValueError):
    """N[X] swallowed the whole graph, leaving no component to act as B."""


def canonical_separation(g: Graph, w: WeightFunction, x: Iterable[int]) -> Separation:
    """B is the lexicographically minimum largest-weight component of
    g minus N[X]; the cut is X together with the neighborhood boundary of B;
    the anchor is the least vertex of X.

    X is checked as a mask: every vertex in range (else the least one out of
    range is named), no vertex twice (the mask has one bit per vertex), and
    connected, in that order."""
    xs = tuple(x)
    n = g.n
    x_mask = 0
    for v in xs:
        if not 0 <= v < n:
            least = min(u for u in xs if not 0 <= u < n)
            raise ValueError(f"vertex {least} out of range for n={n}")
        x_mask |= 1 << v
    if x_mask.bit_count() != len(xs):
        raise ValueError("duplicate vertices in set")
    if not g.is_connected_mask(x_mask):
        raise ValueError("center must be connected")
    around = g._adjacent(x_mask) & ~x_mask
    full = g.full_mask()
    outside = full & ~x_mask & ~around
    if outside == 0:
        raise DegenerateSeparation(f"N[{tuple(bits(x_mask))}] covers every vertex")
    comps = g.component_masks(outside)
    # the first heaviest, in component order
    b_mask = comps[0] if len(comps) == 1 else max(comps, key=w.numerator_of_mask)
    # B is a component of g - N[X], so its boundary lies in N(X): keep the
    # vertices of N(X) with a neighbour in B
    c_mask = x_mask
    nbrs = g._masks
    rest = around
    while rest:
        low = rest & -rest
        if nbrs[low.bit_length() - 1] & b_mask:
            c_mask |= low
        rest ^= low
    return Separation(full & ~b_mask & ~c_mask, c_mask, b_mask, x_mask)


def clique_separation(g: Graph, w: WeightFunction, k: Iterable[int]) -> Separation:
    """Separation at a clique cutset: the cut is the clique itself and B the
    lexicographically minimum heaviest component of g minus the clique."""
    ks = lex_key(k)
    if not g.is_clique(ks):
        raise ValueError("cut must be a clique")
    c_mask = mask_of(ks)
    outside = g.full_mask() & ~c_mask
    comps = g.component_masks(outside)
    if len(comps) < 2:
        raise ValueError("clique is not a cutset")
    b_mask = max(comps, key=w.numerator_of_mask)  # the first heaviest, in component order
    return Separation(outside & ~b_mask, c_mask, b_mask, c_mask)


# -- pairwise relations -----------------------------------------------------------


def is_laminar(seps: Sequence[Separation]) -> bool:
    """Every pair is non-crossing: some side of the one and some side of the
    other, each side A or B, are disjoint and each misses the other's cut."""
    return all(
        any(
            not (x1 & s2.c_mask or x2 & s1.c_mask or x1 & x2)
            for x1 in (s1.a_mask, s1.b_mask)
            for x2 in (s2.a_mask, s2.b_mask)
        )
        for s1, s2 in combinations(seps, 2)
    )


def is_a_laminar(seps: Sequence[Separation]) -> bool:
    """Every pair is A-non-crossing: as non-crossing, with the stored skew
    kept, so the sides are the two A sides."""
    return all(
        not (s1.a_mask & (s2.c_mask | s2.a_mask) or s2.a_mask & s1.c_mask)
        for s1, s2 in combinations(seps, 2)
    )


def is_shield(s1: Separation, s2: Separation) -> bool:
    """s1 shields s2 when B(s1) together with C(s1) fits inside B(s2) + C(s2);
    a shielded separation contributes nothing to the central bag."""
    return not (s1.b_mask | s1.c_mask) & ~(s2.b_mask | s2.c_mask)


# -- sequences ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationSequence:
    """An ordered sequence of separations; the order matters for weights.
    `skipped` holds the pattern copies left out as degenerate."""

    separations: tuple[Separation, ...]
    skipped: tuple[tuple[int, ...], ...] = ()

    def goodness(self, g: Graph) -> tuple[int, int]:
        """Measured (a, t): max separations anchored at one vertex and max
        cut diameter in the whole graph, from one `bfs_distances` row per
        cut vertex."""
        counts: dict[int, int] = {}
        rows: dict[int, list[int]] = {}
        t = 0
        for s in self.separations:
            counts[s.anchor] = counts.get(s.anchor, 0) + 1
            cut = tuple(bits(s.c_mask))
            for u in cut:
                if u not in rows:
                    rows[u] = g.bfs_distances(u, g.full_mask())
            far = [rows[u][v] for u in cut for v in cut]
            if min(far, default=0) < 0:
                raise ValueError("set spans disconnected parts of the graph")
            t = max([t, *far])
        return (max(counts.values(), default=0), t)


def make_primordial(bc: Sequence[int]) -> list[tuple[int, int]]:
    """Reduce separations, given as their B+C masks in sequence order, to
    the earliest separation for each inclusion-minimal B+C value.

    Returns a (dropped index, shielding kept index) pair for every dropped
    separation, in index order; the members no pair drops are kept.  An
    already primordial list loses none, so the reduction is idempotent.
    """
    kept: list[int] = []
    for i, m in enumerate(bc):
        # no B+C strictly inside this one, and none equal to it kept earlier
        if any(o != m and not o & ~m for o in bc):
            continue
        if any(bc[j] == m for j in kept):
            continue
        kept.append(i)
    kept_set = set(kept)
    return [
        (i, next(j for j in kept if not bc[j] & ~m))
        for i, m in enumerate(bc)
        if i not in kept_set
    ]


def covering_sequence(
    g: Graph, w: WeightFunction, pattern: Graph, budget: Budget
) -> SeparationSequence:
    """Canonical separations at every induced copy of the pattern, in
    lexicographic order of the copies; degenerate copies (whose closed
    neighborhood is everything) are skipped and listed in `skipped`.

    Each copy goes through `canonical_separation`, so every center is checked
    the same way a caller's is, and each copy is the center of its
    separation.  The partition, the central bag and the audit read only the
    masks; the vertex tuples are built when the `centralbag` output reads
    them."""
    seps: list[Separation] = []
    skips: list[tuple[int, ...]] = []
    for copy in induced_copies(g, pattern, budget):
        try:
            seps.append(canonical_separation(g, w, copy))
        except DegenerateSeparation:
            skips.append(copy)
    return SeparationSequence(separations=tuple(seps), skipped=tuple(skips))


# -- dimension partitioning -----------------------------------------------------------


def dimension_partition(seq: SeparationSequence) -> tuple[tuple[int, ...], ...]:
    """Greedy colouring of the cut-intersection graph, in sequence order;
    returns the colour classes as ascending index tuples into the sequence.

    Each separation takes the least colour none of whose earlier cuts meets
    its own.  A colour keeps the union mask of its cuts, so that test is one
    AND per colour.  Cuts in one colour class are pairwise disjoint, so each
    class is strongly laminar; the class count is at most a * gamma(2t) + 1,
    where (a, t) is `seq.goodness(g)` and gamma counts a degree-Delta ball.
    """
    unions: list[int] = []
    classes: list[list[int]] = []
    for i, s in enumerate(seq.separations):
        m = s.c_mask
        for c, union in enumerate(unions):
            if not union & m:
                unions[c] = union | m
                classes[c].append(i)
                break
        else:
            unions.append(m)
            classes.append([i])
    return tuple(tuple(cls) for cls in classes)


# -- the central bag engine ------------------------------------------------------------


@dataclass(frozen=True)
class DropRecord:
    index: int  # position in the input sequence
    reason: str  # "shield" or "center_hit"
    witness: int  # index of the justifying kept separation


@dataclass(frozen=True)
class LevelRecord:
    """One class applied to the current bag: the four measured conclusions
    of the one-level bag algebra.  The class's kept members are its entry in
    `CentralBagResult.generator`, and its drops are in `CentralBagResult.drops`.
    """

    restricted_a_loosely_laminar: bool  # kept members, cut to the previous bag
    cut_in_bag: bool  # C(S) cap previous bag lands inside the new bag
    bag_connected: bool
    weight_total_one: bool


@dataclass(frozen=True)
class CentralBagResult:
    bag: tuple[int, ...]
    weights: dict[int, Fraction]
    generator: tuple[tuple[int, ...], ...]  # kept indices per class
    levels: tuple[LevelRecord, ...]
    drops: tuple[DropRecord, ...]
    escaped_weight: Fraction

    @property
    def algebra_holds(self) -> bool:
        return all(
            lvl.cut_in_bag and lvl.bag_connected and lvl.weight_total_one
            for lvl in self.levels
        )

    def recompute_bag(self, g: Graph, seq: SeparationSequence) -> tuple[int, ...]:
        cur = g.full_mask()
        for cls in self.generator:
            for i in cls:
                cur &= seq.separations[i].b_mask | seq.separations[i].c_mask
        return tuple(bits(cur))


def _require_connected_and_normal(g: Graph, w: WeightFunction) -> None:
    if not g.is_connected():
        raise ValueError("graph must be connected")
    _require_normal(g, w)


def central_bag(
    g: Graph,
    w: WeightFunction,
    seq: SeparationSequence,
    classes: Sequence[Sequence[int]],
) -> CentralBagResult:
    """Intersect the kept separations class by class, propagating weights
    through the anchors.  `classes` are ascending index tuples into `seq`,
    applied in order: `dimension_partition(seq)`, or one class of the whole
    sequence.

    Per class: members whose center left the current bag are dropped with a
    center-hit witness, the rest reduce to earliest inclusion-minimal B+C
    representatives, and the level weight rule charges each kept member's
    anchor, the least vertex of its center, with the fresh part of its A
    side.  Only the separations' masks are read.  Each level records four
    measured flags: the kept members, restricted to the previous bag, are
    pairwise A-loosely non-crossing; their cuts inside the previous bag stay
    in the new bag; the new bag is connected; its weights sum to one.  An
    empty sequence leaves the whole graph.

    The weights are integer numerators over `w.denominator` in one list
    indexed by vertex, updated in place: a level reads every charge from the
    previous bag's weights, then zeroes the vertices that left the bag and
    adds the charges to the anchors that stayed.  So the list sums to the
    bag's weight.
    """
    _require_connected_and_normal(g, w)
    members = seq.separations
    bag = g.full_mask()
    den = w.denominator
    weights = list(w.numerators)
    escaped = 0
    levels: list[LevelRecord] = []
    all_drops: list[DropRecord] = []
    generator: list[tuple[int, ...]] = []
    kept_so_far: list[int] = []
    connected = True  # the whole graph, checked above

    for cls in classes:
        admitted: list[int] = []
        drops: list[DropRecord] = []
        for i in cls:
            center_mask = members[i].center_mask
            if not center_mask & ~bag:
                admitted.append(i)
            else:
                witness = next(j for j in kept_so_far if center_mask & members[j].a_mask)
                drops.append(DropRecord(index=i, reason="center_hit", witness=witness))
        kept = admitted  # one member is its own primordial reduction
        if len(admitted) > 1:
            shields = make_primordial(
                [members[i].b_mask | members[i].c_mask for i in admitted]
            )
            shielded = {admitted[i] for i, _ in shields}
            kept = [i for i in admitted if i not in shielded]
            drops.extend(
                DropRecord(index=admitted[i], reason="shield", witness=admitted[j])
                for i, j in shields
            )
        drops.sort(key=lambda d: d.index)

        prev_bag = bag
        for i in kept:
            bag &= members[i].b_mask | members[i].c_mask
        # order-dependent weight rule, read from the previous bag's weights
        charges: list[tuple[int, int]] = []
        seen_a = 0
        for i in kept:
            a_prev = members[i].a_mask & prev_bag
            fresh = numerator_sum(weights, a_prev & ~seen_a)
            charges.append((members[i].anchor, fresh))
            seen_a |= a_prev
        # weight lost to cut vertices that fell out of the bag
        escaped += numerator_sum(weights, prev_bag & ~bag & ~seen_a)
        gone = prev_bag & ~bag
        while gone:
            low = gone & -gone
            weights[low.bit_length() - 1] = 0
            gone ^= low
        for anchor, fresh in charges:
            if bag >> anchor & 1:
                weights[anchor] += fresh
            else:
                escaped += fresh

        # A-loose laminarity of the kept members restricted to prev_bag
        a_loose = all(
            not (s1.a_mask & s2.c_mask | s2.a_mask & s1.c_mask) & prev_bag
            for s1, s2 in combinations([members[i] for i in kept], 2)
        )
        cut_ok = all(not members[i].c_mask & prev_bag & ~bag for i in kept)
        if bag != prev_bag:
            connected = g.is_connected_mask(bag)
        levels.append(
            LevelRecord(
                restricted_a_loosely_laminar=a_loose,
                cut_in_bag=cut_ok,
                bag_connected=connected,
                weight_total_one=(sum(weights) == den),
            )
        )
        generator.append(tuple(kept))
        kept_so_far.extend(kept)
        all_drops.extend(drops)

    return CentralBagResult(
        bag=tuple(bits(bag)),
        weights={v: Fraction(weights[v], den) for v in bits(bag)},
        generator=tuple(generator),
        levels=tuple(levels),
        drops=tuple(all_drops),
        escaped_weight=Fraction(escaped, den),
    )


def audit_is_complete(seq: SeparationSequence, result: CentralBagResult) -> bool:
    """Re-validate every drop: a shield witness must actually shield, and a
    center-hit witness's A side must actually meet the dropped center."""
    members = seq.separations
    kept = {i for cls in result.generator for i in cls}
    indexed = {d.index for d in result.drops}
    if kept | indexed != set(range(len(members))) or kept & indexed:
        return False
    for d in result.drops:
        if d.witness not in kept:
            return False
        if d.reason == "shield":
            if not is_shield(members[d.witness], members[d.index]):
                return False
        elif d.reason == "center_hit":
            if not members[d.index].center_mask & members[d.witness].a_mask:
                return False
        else:
            return False
    return True


# -- conditional claim checks -------------------------------------------------------


@dataclass(frozen=True)
class ConditionalCheck:
    claim: str
    hypothesis_met: bool
    conclusion_holds: Optional[bool]

    @property
    def status(self) -> str:
        """`check.status_of`: an unmeasured conclusion (None) under a met
        hypothesis is a fail."""
        return status_of(self.conclusion_holds, self.hypothesis_met)


def _bag_has_no_small_separator(
    g: Graph, result: CentralBagResult, c: Fraction, limit: int
) -> Optional[bool]:
    """Whether the bag, under its propagated weights, has no balanced
    separator of size <= limit; None when the bag is empty or its weights do
    not sum to one."""
    if not result.bag or sum(result.weights.values(), Fraction(0)) != 1:
        return None
    sub, sub_vs = g.induced_subgraph(result.bag)
    w_bag = WeightFunction.from_values([result.weights[v] for v in sub_vs])
    return min_balanced_separator(sub, w_bag, c, max_size=limit) is None


def no_small_separator(g: Graph, w: WeightFunction, c: Fraction, d: int) -> bool:
    """The hypothesis every conditional claim shares: g has no c-balanced
    separator of size at most d under w.  The search is exhaustive, so it is
    capped at n = 12."""
    check_balance_parameter(c)
    if g.n > 12:
        raise CapExceeded("transfer checks are exhaustive; capped at n=12")
    return min_balanced_separator(g, w, c, max_size=d) is None


def check_bag_separator_transfer(
    g: Graph,
    w: WeightFunction,
    c: Fraction,
    d: int,
    seq: SeparationSequence,
    classes: Sequence[Sequence[int]],
    t: int,
    result: CentralBagResult,
    no_sep: bool,
) -> list[ConditionalCheck]:
    """Measure the conditional conclusions on a small instance.

    `no_sep` is the shared hypothesis, `no_small_separator(g, w, c, d)`;
    each conclusion additionally needs its own arithmetic side conditions on
    d and the measured t, which are part of its `hypothesis_met`.  Unmet
    hypotheses are reported as such, never as pass or fail.  `classes` is
    `dimension_partition(seq)` and `t` the measured cut diameter, the second
    entry of `seq.goodness(g)`; the bounds use both.
    """
    check_balance_parameter(c)
    delta = g.max_degree()
    members = seq.separations
    gamma_t1 = geometric_ball_bound(delta, t + 1)
    gamma_t = geometric_ball_bound(delta, t)
    checks: list[ConditionalCheck] = []

    # heavy-side conclusion: every canonical separation has w(B) > c
    hyp = no_sep and d >= gamma_t1
    concl = all(w.of_mask(s.b_mask) > c for s in members) if members else True
    checks.append(
        ConditionalCheck(
            claim="canonical separations have heavy B side",
            hypothesis_met=hyp,
            conclusion_holds=concl,
        )
    )

    # strongly laminar classes are laminar
    hyp = (
        no_sep
        and d >= gamma_t1
        and all(
            g.is_connected_mask(s.c_mask) and s.c_mask.bit_count() <= d
            for s in members
        )
    )
    concl = all(is_laminar([members[i] for i in cls]) for cls in classes)
    checks.append(
        ConditionalCheck(
            claim="strongly laminar classes are laminar",
            hypothesis_met=hyp,
            conclusion_holds=concl,
        )
    )

    # primordial laminar classes are A-laminar (checked on the kept members)
    kept = [[members[i] for i in cls] for cls in result.generator]
    hyp = (
        no_sep
        and d >= gamma_t1
        and all(is_laminar(cls) for cls in kept)
    )
    concl = all(is_a_laminar(cls) for cls in kept)
    checks.append(
        ConditionalCheck(
            claim="primordial laminar classes are A-laminar",
            hypothesis_met=hyp,
            conclusion_holds=concl,
        )
    )

    # the bag admits no small balanced separator for the propagated weights
    k = len(classes)
    needed_d = gamma_t1 * gamma_t**k
    hyp = (
        no_sep
        and d >= needed_d
        and result.algebra_holds
        and all(lvl.restricted_a_loosely_laminar for lvl in result.levels)
    )
    limit = int(Fraction(d, gamma_t**k))
    checks.append(
        ConditionalCheck(
            claim="no small balanced separator survives in the bag",
            hypothesis_met=hyp,
            conclusion_holds=_bag_has_no_small_separator(g, result, c, limit),
        )
    )
    return checks


def forcer_elimination_check(
    g: Graph, pattern: Graph, forcer: Graph, result: CentralBagResult, budget: Budget
) -> ConditionalCheck:
    """After bag construction at a pattern's covering sequence, the bag should
    carry no copy of any verified forcer for that pattern.  The hypothesis is
    the forcer premise; only when it holds is the bag searched."""
    premise = verify_forcer(g, forcer, pattern, budget).holds
    clean: Optional[bool] = None
    if premise:
        sub, _ = g.induced_subgraph(result.bag)
        clean = not result.bag or find_induced(sub, forcer, budget) is None
    return ConditionalCheck("verified forcer absent from the bag", premise, clean)


# -- clique coverings ------------------------------------------------------------------


def clique_cutsets(g: Graph) -> list[tuple[int, ...]]:
    """All clique cutsets, in lexicographic order of their sorted tuples."""
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], cand: int) -> None:
        if clique:
            ks = tuple(clique)
            outside = g.full_mask() & ~mask_of(ks)
            if len(g.component_masks(outside)) >= 2:
                out.append(ks)
        for v in bits(cand):
            extend(clique + [v], cand & g.neighbor_mask(v) & ~((1 << (v + 1)) - 1))

    extend([], g.full_mask())
    return out


def clique_central_bag(
    g: Graph, w: WeightFunction, c: Fraction, d: int, no_sep: bool
) -> tuple[ConditionalCheck, ConditionalCheck]:
    """The two conditional claims on the single-level central bag over the
    clique separations: under its propagated weights the bag has no balanced
    separator of size at most d / (1 + Delta), and it has no clique cutset.
    Both need `no_sep`, which is `no_small_separator(g, w, c, d)`, and
    d > Delta.  The bag's primordial reduction keeps the clique covering:
    the earliest separation for each inclusion-minimal B+C."""
    seps = tuple(clique_separation(g, w, k) for k in clique_cutsets(g))
    seq = SeparationSequence(separations=seps)
    result = central_bag(g, w, seq, (range(len(seps)),))
    sub, _ = g.induced_subgraph(result.bag)
    delta = g.max_degree()
    hyp = no_sep and d > delta
    limit = int(Fraction(d, 1 + delta))
    return (
        ConditionalCheck(
            claim="clique bag keeps no small balanced separator",
            hypothesis_met=hyp,
            conclusion_holds=_bag_has_no_small_separator(g, result, c, limit),
        ),
        ConditionalCheck(
            claim="clique bag has no clique cutset",
            hypothesis_met=hyp,
            conclusion_holds=not clique_cutsets(sub),
        ),
    )


# -- the master pipeline ----------------------------------------------------------------


def leq_power_bound(value: int, coeff: int, base: int, exponent: int) -> bool:
    """Decide value <= coeff * base**exponent without building huge powers."""
    if value <= coeff:
        return True
    if base <= 1 or exponent <= 0:
        return value <= coeff
    acc = 1
    for _ in range(exponent):
        acc *= base
        if coeff * acc >= value:
            return True
    return False


@dataclass(frozen=True)
class PipelineReport:
    dimension_bound_holds: bool
    anchor_bound_holds: bool
    audit_complete: bool
    forcer_checks: tuple[ConditionalCheck, ...]
    bag_treewidth: Optional[int]
    symbolic_bound: str  # "2*N*gamma(t+1)^e" with the instantiated numbers
    treewidth_within_symbolic_bound: Optional[bool]
    transfer_checks: tuple[ConditionalCheck, ...]
    sequence: SeparationSequence
    classes: tuple[tuple[int, ...], ...]  # dimension_partition(sequence)
    goodness: tuple[int, int]  # sequence.goodness(g): (a, t)
    result: CentralBagResult


def run_master_pipeline(
    g: Graph,
    pattern: Graph,
    forcers: Sequence[Graph],
    c: Fraction,
    d: int,
    tw_cap: int,
    budget: Budget,
    w: Optional[WeightFunction] = None,
) -> PipelineReport:
    """Covering sequence, goodness, partition, central bag, forcer freeness,
    and the symbolic width bound, chained into one machine-checkable record.

    The symbolic bound instantiates 2*N*gamma(t+1)**(Delta**(t*t)*gamma(2t)+1)
    with N one more than the bag's measured treewidth and t one more than the
    pattern size, which keeps the pattern smaller than t.  Usage errors, then
    the n = 12 cap of `no_small_separator`, are raised before any stage runs.
    The covering sequence and every forcer check charge `budget`.
    """
    if w is None:
        w = WeightFunction.uniform(g)
    if not pattern.is_connected():
        raise ValueError("pattern must be connected")
    _require_connected_and_normal(g, w)
    no_sep = no_small_separator(g, w, c, d)
    seq = covering_sequence(g, w, pattern, budget)
    classes = dimension_partition(seq)
    result = central_bag(g, w, seq, classes)
    delta = g.max_degree()
    t_param = pattern.n + 1
    a_bound = delta ** (t_param * t_param)
    dim_bound = a_bound * geometric_ball_bound(delta, 2 * t_param) + 1
    forcer_checks = [
        forcer_elimination_check(g, pattern, f, result, budget) for f in forcers
    ]
    bag_tw: Optional[int] = None
    within: Optional[bool] = None
    symbolic = ""
    if result.bag:
        sub, _ = g.induced_subgraph(result.bag)
        bounds = treewidth_or_bounds(sub, cap=tw_cap)
        bag_tw = bounds.exact
        if bag_tw is not None:
            n_big = bag_tw + 1
            gamma_t1 = geometric_ball_bound(delta, t_param + 1)
            symbolic = f"2*{n_big}*{gamma_t1}^{dim_bound}"
            host = treewidth_or_bounds(g, cap=tw_cap)
            if host.exact is not None:
                within = leq_power_bound(host.exact, 2 * n_big, gamma_t1, dim_bound)
    a_meas, t_meas = seq.goodness(g)
    checks = check_bag_separator_transfer(
        g, w, c, d, seq, classes, t_meas, result, no_sep
    )
    return PipelineReport(
        dimension_bound_holds=len(classes) <= dim_bound,
        anchor_bound_holds=a_meas <= a_bound,
        audit_complete=audit_is_complete(seq, result),
        forcer_checks=tuple(forcer_checks),
        bag_treewidth=bag_tw,
        symbolic_bound=symbolic,
        treewidth_within_symbolic_bound=within,
        transfer_checks=tuple(checks),
        sequence=seq,
        classes=classes,
        goodness=(a_meas, t_meas),
        result=result,
    )
