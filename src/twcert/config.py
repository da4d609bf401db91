"""Run configuration: a treewidth cap, a search budget, a seed, and parameters.

One flat record of five keys.  `max_tw_n` caps the exact treewidth runs;
the searches of `detect` and `sep` take inputs of any size and stop when
`search_budget` runs out.  Values come from defaults, then an optional
key=value config file (path in the TWCERT_CONFIG environment variable or
--config), then CLI flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .graphs import BudgetExhausted
from .weights import check_balance_parameter, parse_fraction

ENV_CONFIG = "TWCERT_CONFIG"


# The integer keys and their least values.  seed and d may be 0
# (random.Random(0) is a seed, and d is a distance, as for centralbag --d);
# a negative seed is refused because random.Random(-s) equals
# random.Random(s).
_INT_KEYS = {"max_tw_n": 1, "search_budget": 1, "seed": 0, "d": 0}


@dataclass(frozen=True)
class RunConfig:
    max_tw_n: int = 14
    search_budget: int = 1_000_000  # ticks per search, deterministic (see Budget)
    seed: int = 7
    c: Fraction = Fraction(1, 2)
    d: int = 2

    def __post_init__(self) -> None:
        for name, least in _INT_KEYS.items():
            if getattr(self, name) < least:
                bound = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be {bound}")
        check_balance_parameter(self.c)


def parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _INT_KEYS and key != "c":
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                parsed = int(value) if key in _INT_KEYS else parse_fraction(value)
                RunConfig(**{key: parsed})  # RunConfig's range rules
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            out[key] = parsed
    return out


def load_config(path: str | None, **overrides: object) -> RunConfig:
    cfg = RunConfig()
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        cfg = replace(cfg, **parse_config_file(path))  # type: ignore[arg-type]
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **clean) if clean else cfg


class Budget:
    """Deterministic search-node budget shared by one search invocation.

    ``limit`` defaults to ``RunConfig.search_budget``, the budget of every
    search started without one.

    Every induced-subgraph search of ``detect`` runs one loop
    (``detect._grow``), which ticks once per search-tree node it expands,
    that is, whose candidates it computes.  A family search
    (``detect._first_copy``) ticks k more per member of k vertices it
    offers, and a node shared by several members once.  The loop charges
    its ticks in batches, before every mapping it yields, at its end and as
    soon as they would exceed ``limit``, so ``used`` is exact at every
    yield, at the end and at exhaustion.  ``find_creature`` runs that loop
    too.  ``separators.separation_number`` ticks once per subset X it
    tests.
    Exceeding ``limit`` raises ``BudgetExhausted``.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = RunConfig.search_budget):
        self.limit = limit
        self.used = 0

    def tick(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExhausted(f"search budget of {self.limit} nodes exhausted")
