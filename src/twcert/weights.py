"""Exact-rational vertex weight functions.

All weight arithmetic in the toolkit is exact; strict inequalities such as
w(B) > c are meaningful and no tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, lex_key


@dataclass(frozen=True)
class WeightFunction:
    """Non-negative rational weights on a fixed vertex domain.

    `__post_init__` also stores each weight as an integer numerator over one
    shared denominator: `numerators` maps each vertex (in domain order) to its
    numerator, `denominator` is the lcm of the weights' denominators, and
    `numerator_total` is the numerators' sum.  A sum of k weights then costs k
    integer additions and one reduced `Fraction`, instead of k `Fraction`
    additions with a gcd each, and returns the same reduced `Fraction`.
    `numerator_list` holds the same numerators indexed by vertex, 0 up to
    the largest domain vertex, with 0 at every vertex outside the domain:
    mask sums read it by bit position, with no dict lookup per vertex.
    These attributes are not dataclass fields, so equality, hashing and
    `repr` still see only `domain` and `values`; callers must not mutate
    `numerators` or `numerator_list`.
    """

    domain: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.values):
            raise ValueError("domain/value length mismatch")
        if any(v.numerator < 0 for v in self.values):
            raise ValueError("weights must be non-negative")
        den = lcm(*(v.denominator for v in self.values))
        nums = {
            u: v.numerator * (den // v.denominator)
            for u, v in zip(self.domain, self.values)
        }
        if len(nums) != len(self.domain):
            raise ValueError("domain lists a vertex twice")
        by_vertex = [0] * (max(self.domain, default=-1) + 1)
        for u, x in nums.items():
            if u >= 0:  # no mask holds a negative vertex
                by_vertex[u] = x
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "numerator_list", by_vertex)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "numerator_total", sum(nums.values()))

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
            return Fraction(self.numerators[v], self.denominator)
        except KeyError:
            raise KeyError(f"vertex {v} outside weight domain") from None

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.domain, self.values))

    def of(self, vs: Iterable[int]) -> Fraction:
        """w(vs), counting a repeated vertex each time; a vertex outside the
        domain raises KeyError."""
        nums = self.numerators
        return Fraction(sum(nums[v] for v in vs), self.denominator)

    def numerator_of_mask(self, mask: int) -> int:
        """w of the vertices whose bits are set, times `denominator`; bits
        outside the domain are ignored.  Every weight shares the one
        denominator, so these integers order masks as their weights do."""
        nums = self.numerator_list
        return numerator_sum(nums, mask & ((1 << len(nums)) - 1))

    def of_mask(self, mask: int) -> Fraction:
        """w of the vertices whose bits are set; bits outside the domain are
        ignored."""
        return Fraction(self.numerator_of_mask(mask), self.denominator)

    @property
    def total(self) -> Fraction:
        return Fraction(self.numerator_total, self.denominator)

    def is_normal(self) -> bool:
        return self.numerator_total == self.denominator

    @property
    def w_max(self) -> Fraction:
        return max(self.values, default=Fraction(0))

    def to_json(self) -> dict[str, str]:
        return {str(v): str(w) for v, w in zip(self.domain, self.values)}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "WeightFunction":
        return cls.from_mapping({int(k): parse_fraction(v) for k, v in data.items()})


def numerator_sum(numerators: Sequence[int], mask: int) -> int:
    """The sum of `numerators[v]` over the set bits v of `mask`, each of
    which must index `numerators`: a vertex-indexed list such as
    `WeightFunction.numerator_list`."""
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
