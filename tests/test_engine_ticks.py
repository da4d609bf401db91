"""The bitmask engine against the per-candidate loop it replaced: the same
mappings in the same order, the same budget ticks, and the same prefix of
mappings before `BudgetExhausted` under every limit."""

from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from twcert.config import Budget
from twcert.detect import iter_induced_maps
from twcert.graphs import BudgetExhausted, Graph


def reference_maps(g: Graph, pattern: Graph, bud: Budget) -> Iterator[tuple[int, ...]]:
    """The engine as it was before bitmask candidates: every pattern vertex
    tries every host vertex in id order and ticks once for each."""
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
        pdeg = pattern.degree(i)
        pmask = pattern.neighbor_mask(i)
        for cand in g.vertices:
            bud.tick()
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
