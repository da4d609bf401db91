from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcert.generators import path_graph
from twcert.graphs import Graph, lex_key
from twcert.weights import (
    WeightFunction,
    check_balance_parameter,
    numerator_sum,
    parse_fraction,
)


def test_uniform_is_normal():
    g = path_graph(5)
    w = WeightFunction.uniform(g)
    assert w.is_normal()
    assert w.w_max == Fraction(1, 5)
    assert w.of([0, 1]) == Fraction(2, 5)


def test_uniform_rejects_empty_graph():
    with pytest.raises(ValueError):
        WeightFunction.uniform(Graph(0, []))


def test_json_roundtrip():
    g = path_graph(3)
    w = WeightFunction.from_mapping(
        {0: Fraction(1, 7), 1: Fraction(2, 7), 2: Fraction(4, 7)}
    )
    again = WeightFunction.from_json(w.to_json())
    assert again == w and again.is_normal()


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        WeightFunction.from_values([Fraction(-1)])


def test_balance_parameter_interval():
    assert check_balance_parameter(Fraction(1, 2)) == Fraction(1, 2)
    assert check_balance_parameter(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        check_balance_parameter(Fraction(1, 3))
    with pytest.raises(ValueError):
        check_balance_parameter(Fraction(1))
    assert parse_fraction(" 2/3 ") == Fraction(2, 3)


@dataclass(frozen=True)
class RefWeightFunction:
    """The earlier `WeightFunction`, verbatim but for its name and this
    docstring: `domain` and `values` fields, plus a numerator dict, a
    vertex-indexed numerator list and a numerator total derived from them."""

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
    def from_mapping(cls, mapping: Mapping[int, Fraction]) -> "RefWeightFunction":
        dom = lex_key(mapping)
        return cls(dom, tuple(Fraction(mapping[v]) for v in dom))

    @classmethod
    def uniform(cls, g: Graph) -> "RefWeightFunction":
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
    def from_json(cls, data: Mapping[str, str]) -> "RefWeightFunction":
        return cls.from_mapping({int(k): parse_fraction(v) for k, v in data.items()})


@st.composite
def dense_weights(draw, max_n=9):
    """Weights on 0..n-1 (normal half the time), a mask within 0..n-1, a
    vertex list with repeats, and a factor to respell each weight with."""
    n = draw(st.integers(0, max_n))
    values = [
        draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
        for _ in range(n)
    ]
    if draw(st.booleans()) and sum(values):
        total = sum(values)
        values = [x / total for x in values]
    mask = draw(st.integers(0, (1 << n) - 1))
    vs = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return values, mask, vs, draw(st.integers(2, 5))


def same(got, want):
    return type(got) is type(want) and got == want and str(got) == str(want)


@settings(max_examples=300, deadline=None)
@given(dense_weights())
def test_weight_function_matches_fraction_storing_reference(case):
    values, mask, vs, k = case
    n = len(values)
    w = WeightFunction.from_values(values)
    ref = RefWeightFunction(tuple(range(n)), tuple(values))
    assert w.denominator == ref.denominator
    assert same(w.of(vs), ref.of(vs))
    assert same(w.of_mask(mask), ref.of_mask(mask))
    assert same(w.numerator_of_mask(mask), ref.numerator_of_mask(mask))
    assert same(w.total, ref.total)
    assert same(w.is_normal(), ref.is_normal())
    assert same(w.w_max, ref.w_max)
    assert same(w.as_dict(), ref.as_dict())
    assert same(w.to_json(), ref.to_json())
    for v in range(n):
        assert same(w[v], ref[v])
    assert WeightFunction.from_json(w.to_json()) == w
    assert RefWeightFunction.from_json(w.to_json()) == ref
    # the same weights spelled unreduced, in reverse key order, or as ints
    respelled = [
        WeightFunction.from_json(
            {str(v): f"{x.numerator * k}/{x.denominator * k}" for v, x in enumerate(values)}
        ),
        WeightFunction.from_mapping({v: values[v] for v in reversed(range(n))}),
        WeightFunction.from_values([int(x) if x.denominator == 1 else x for x in values]),
    ]
    for other in respelled:
        assert other == w and hash(other) == hash(w)
    if n:
        g = path_graph(n)
        assert WeightFunction.uniform(g).to_json() == RefWeightFunction.uniform(g).to_json()
