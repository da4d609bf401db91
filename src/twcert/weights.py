"""Exact-rational vertex weight functions.

A weight function on the vertices 0..n-1 is n integer numerators over one
shared denominator, so a sum of k weights costs k integer additions and one
reduced `Fraction`.  All weight arithmetic in the toolkit is exact; strict
inequalities such as w(B) > c are meaningful and no tolerance appears
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .graphs import Graph


@dataclass(frozen=True)
class WeightFunction:
    """Non-negative rational weights on the vertices 0..n-1: vertex v weighs
    `numerators[v] / denominator`.  `from_values` builds the canonical form,
    whose denominator is the lcm of the weights' reduced denominators, so
    equal weights compare and hash equal."""

    numerators: tuple[int, ...]
    denominator: int

    @classmethod
    def from_values(cls, weights: Sequence[Fraction]) -> "WeightFunction":
        """Vertex v weighs weights[v]; a negative weight is a ValueError."""
        if any(x < 0 for x in weights):
            raise ValueError("weights must be non-negative")
        den = lcm(*(x.denominator for x in weights))
        return cls(tuple(x.numerator * (den // x.denominator) for x in weights), den)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Fraction]) -> "WeightFunction":
        """Weights keyed by vertex; the keys must be exactly 0..n-1."""
        n = len(mapping)
        if set(mapping) != set(range(n)):
            raise ValueError(f"weights must name each vertex 0..{n - 1} once")
        return cls.from_values([mapping[v] for v in range(n)])

    @classmethod
    def uniform(cls, g: Graph) -> "WeightFunction":
        """1/n on every vertex."""
        if not g.n:
            raise ValueError("uniform weight needs a non-empty graph")
        return cls.from_values([Fraction(1, g.n)] * g.n)

    def __getitem__(self, v: int) -> Fraction:
        return Fraction(self.numerators[v], self.denominator)

    def as_dict(self) -> dict[int, Fraction]:
        den = self.denominator
        return {v: Fraction(x, den) for v, x in enumerate(self.numerators)}

    def of(self, vs: Iterable[int]) -> Fraction:
        """w(vs), counting a repeated vertex each time."""
        nums = self.numerators
        return Fraction(sum(nums[v] for v in vs), self.denominator)

    def numerator_of_mask(self, mask: int) -> int:
        """w of the vertices whose bits are set, times `denominator`.  Every
        weight shares the one denominator, so these integers order masks as
        their weights do."""
        return numerator_sum(self.numerators, mask)

    def of_mask(self, mask: int) -> Fraction:
        """w of the vertices whose bits are set."""
        return Fraction(self.numerator_of_mask(mask), self.denominator)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    def is_normal(self) -> bool:
        return sum(self.numerators) == self.denominator

    @property
    def w_max(self) -> Fraction:
        return Fraction(max(self.numerators, default=0), self.denominator)

    def to_json(self) -> dict[str, str]:
        return {str(v): str(x) for v, x in self.as_dict().items()}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "WeightFunction":
        return cls.from_mapping({int(k): parse_fraction(v) for k, v in data.items()})


def numerator_sum(numerators: Sequence[int], mask: int) -> int:
    """The sum of `numerators[v]` over the set bits v of `mask`, each of
    which must index `numerators`: a vertex-indexed sequence such as
    `WeightFunction.numerators`."""
    total = 0
    while mask:
        low = mask & -mask
        total += numerators[low.bit_length() - 1]
        mask ^= low
    return total


def parse_fraction(text: str | float) -> Fraction:
    """Parse "num/den" (or an integer) into an exact Fraction.  A zero
    denominator, an infinite JSON number or a boolean is a ValueError like
    any other malformed value."""
    if isinstance(text, bool):  # Fraction(True) would be 1
        raise ValueError(f"{text!r} is not a finite fraction")
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a finite fraction") from None


def check_balance_parameter(c: Fraction) -> Fraction:
    if not Fraction(1, 2) <= c < 1:
        raise ValueError(f"balance parameter c must lie in [1/2, 1), got {c}")
    return c
