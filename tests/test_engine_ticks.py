"""The engine against two references: the per-candidate loop of the first
engine, and the recursive bitmask engine that the one-loop engine replaced.
Each reference ticks once when it computes a search-tree node's
candidates, as the engine charges.  Both must give the same mappings
in the same order, the same budget ticks, and the same prefix of mappings
before `BudgetExhausted` under every limit; the recursive one also the same
`Budget.used` at every yield, and the same outcome when the caller ticks
the budget between yields."""

from typing import Iterator, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert.config import Budget
from twcert.detect import iter_induced_maps
from twcert.graphs import BudgetExhausted, Graph


def reference_maps(g: Graph, pattern: Graph, bud: Budget) -> Iterator[tuple[int, ...]]:
    """The engine as it was before bitmask candidates: every pattern vertex
    tries every host vertex in id order, after ticking once for the node."""
    k = pattern.n
    if k > g.n:
        return
    assigned: list[int] = []
    used = 0

    def place(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        if i == k:
            yield tuple(assigned)
            return
        bud.tick()
        pdeg = pattern.degree(i)
        pmask = pattern.neighbor_mask(i)
        for cand in g.vertices:
            if used >> cand & 1 or g.degree(cand) < pdeg:
                continue
            ok = True
            for j in range(i):
                if bool(pmask >> j & 1) != g.has_edge(assigned[j], cand):
                    ok = False
                    break
            if not ok:
                continue
            assigned.append(cand)
            used |= 1 << cand
            yield from place(i + 1)
            assigned.pop()
            used &= ~(1 << cand)

    yield from place(0)


class Ledger(Budget):
    """A budget that never runs out and logs, after every tick, the running
    total and how many mappings had been yielded before that tick."""

    def __init__(self) -> None:
        super().__init__(10**12)
        self.yielded = 0
        self.log: list[tuple[int, int]] = []

    def tick(self, amount: int = 1) -> None:
        super().tick(amount)
        self.log.append((self.used, self.yielded))


def _run(engine, g: Graph, pattern: Graph) -> tuple[list[tuple[int, ...]], Ledger]:
    ledger = Ledger()
    maps = []
    for mapping in engine(g, pattern, ledger):
        maps.append(mapping)
        ledger.yielded += 1
    return maps, ledger


def _prefix_lengths(ledger: Ledger) -> list[int]:
    """Entry L: how many mappings come out under `Budget(L)` before it
    raises, which is how many were yielded before the first tick that took
    the total past L.  One entry per limit below the final total."""
    out: list[int] = []
    for used, yielded in ledger.log:
        out.extend([yielded] * (used - len(out)))
    return out


def _until_exhausted(
    engine, g: Graph, pattern: Graph, limit: int
) -> list[tuple[int, ...]]:
    got = []
    try:
        for mapping in engine(g, pattern, Budget(limit)):
            got.append(mapping)
    except BudgetExhausted:
        return got
    raise AssertionError(f"Budget({limit}) was not exhausted")


@given(graphs(max_n=8), graphs(max_n=5), st.data())
@settings(max_examples=200, deadline=None)
def test_engine_ticks_match_reference(g, pattern, data):
    maps, ledger = _run(iter_induced_maps, g, pattern)
    ref_maps, ref_ledger = _run(reference_maps, g, pattern)
    assert maps == ref_maps
    assert ledger.used == ref_ledger.used
    assert _prefix_lengths(ledger) == _prefix_lengths(ref_ledger)
    if ledger.used:
        limit = data.draw(st.integers(0, ledger.used - 1), label="limit")
        cut = _prefix_lengths(ref_ledger)[limit]
        assert _until_exhausted(iter_induced_maps, g, pattern, limit) == maps[:cut]
        assert _until_exhausted(reference_maps, g, pattern, limit) == maps[:cut]


def recursive_maps(
    g: Graph, pattern: Graph, budget: Optional[Budget] = None
) -> Iterator[tuple[int, ...]]:
    """The bitmask engine as it was before the one-loop rewrite: a chain of
    recursive generators, each ticking once before it computes its
    candidates."""
    bud = budget or Budget()
    n, k = g.n, pattern.n
    if k > n:
        return
    nbr = [g.neighbor_mask(v) for v in g.vertices]
    # at_least[d]: host vertices of degree >= d, for every pattern degree d
    at_least = [0] * (max(g.max_degree(), pattern.max_degree()) + 1)
    for v in g.vertices:
        at_least[g.degree(v)] |= 1 << v
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    base = [at_least[pattern.degree(i)] for i in range(k)]
    earlier_adj = [[j for j in range(i) if pattern.has_edge(i, j)] for i in range(k)]
    earlier_non = [
        [j for j in range(i) if not pattern.has_edge(i, j)] for i in range(k)
    ]
    # assigned[i] stays -1 until some branch places pattern vertex i
    assigned = [-1] * k

    def place(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(assigned)
            return
        bud.tick()
        cand = base[i] & ~used
        for j in earlier_adj[i]:
            cand &= nbr[assigned[j]]
        for j in earlier_non[i]:
            cand &= ~nbr[assigned[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            assigned[i] = low.bit_length() - 1
            yield from place(i + 1, used | low)

    yield from place(0, 0)


def _drive(engine, g: Graph, pattern: Graph, limit: int, extra=()):
    """Run the engine under `Budget(limit)`, ticking `extra[i]` after the
    i-th mapping (cycling).  Returns each mapping with `Budget.used` right
    after it came out, then how the run ended with `Budget.used` then:
    "returned", or `BudgetExhausted`."""
    budget = Budget(limit)
    maps = engine(g, pattern, budget)
    got = []
    try:
        while True:
            try:
                mapping = next(maps)
            except StopIteration:
                return got, "returned", budget.used
            got.append((mapping, budget.used))
            if extra:
                budget.tick(extra[(len(got) - 1) % len(extra)])
    except BudgetExhausted:
        return got, BudgetExhausted, budget.used


@given(graphs(max_n=7), graphs(min_n=0, max_n=5))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_engine_matches_recursive_reference_under_every_limit(g, pattern):
    full = _drive(iter_induced_maps, g, pattern, 10**9)
    assert full == _drive(recursive_maps, g, pattern, 10**9)
    for limit in range(full[2]):
        assert _drive(iter_induced_maps, g, pattern, limit) == _drive(
            recursive_maps, g, pattern, limit
        )


@given(
    graphs(max_n=8),
    graphs(min_n=0, max_n=5),
    st.lists(st.integers(0, 20), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_caller_ticks_between_yields_match_recursive_reference(
    g, pattern, extra, data
):
    full = _drive(iter_induced_maps, g, pattern, 10**9, extra)
    assert full == _drive(recursive_maps, g, pattern, 10**9, extra)
    limit = data.draw(st.integers(0, full[2]), label="limit")
    assert _drive(iter_induced_maps, g, pattern, limit, extra) == _drive(
        recursive_maps, g, pattern, limit, extra
    )
