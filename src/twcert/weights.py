"""Exact-rational vertex weight functions.

All weight arithmetic in the toolkit is exact; strict inequalities such as
w(B) > c are meaningful and no tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import Graph, lex_key


@dataclass(frozen=True)
class WeightFunction:
    """Non-negative rational weights on a fixed vertex domain."""

    domain: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.values):
            raise ValueError("domain/value length mismatch")
        if any(v < 0 for v in self.values):
            raise ValueError("weights must be non-negative")

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Fraction]) -> "WeightFunction":
        dom = lex_key(mapping)
        return cls(dom, tuple(Fraction(mapping[v]) for v in dom))

    @classmethod
    def uniform(cls, g: Graph) -> "WeightFunction":
        """1/n on every vertex."""
        if not g.n:
            raise ValueError("uniform weight needs a non-empty graph")
        return cls(tuple(range(g.n)), (Fraction(1, g.n),) * g.n)

    def __getitem__(self, v: int) -> Fraction:
        try:
            i = self.domain.index(v)
        except ValueError:
            raise KeyError(f"vertex {v} outside weight domain") from None
        return self.values[i]

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.domain, self.values))

    def of(self, vs: Iterable[int]) -> Fraction:
        d = self.as_dict()
        return sum((d[v] for v in vs), Fraction(0))

    def of_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        for v, w in zip(self.domain, self.values):
            if mask >> v & 1:
                total += w
        return total

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def is_normal(self) -> bool:
        return self.total == 1

    @property
    def w_max(self) -> Fraction:
        return max(self.values, default=Fraction(0))

    def to_json(self) -> dict[str, str]:
        return {str(v): str(w) for v, w in zip(self.domain, self.values)}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "WeightFunction":
        return cls.from_mapping({int(k): parse_fraction(v) for k, v in data.items()})


def parse_fraction(text: str | float) -> Fraction:
    """Parse "num/den" (or an integer) into an exact Fraction.  A zero
    denominator or an infinite JSON number is a ValueError like any other
    malformed value."""
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a finite fraction") from None


def check_balance_parameter(c: Fraction) -> Fraction:
    if not Fraction(1, 2) <= c < 1:
        raise ValueError(f"balance parameter c must lie in [1/2, 1), got {c}")
    return c
