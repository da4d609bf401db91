from fractions import Fraction

import pytest

from twcert.generators import path_graph
from twcert.graphs import Graph
from twcert.weights import WeightFunction, check_balance_parameter, parse_fraction


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
        WeightFunction((0,), (Fraction(-1),))


def test_balance_parameter_interval():
    assert check_balance_parameter(Fraction(1, 2)) == Fraction(1, 2)
    assert check_balance_parameter(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        check_balance_parameter(Fraction(1, 3))
    with pytest.raises(ValueError):
        check_balance_parameter(Fraction(1))
    assert parse_fraction(" 2/3 ") == Fraction(2, 3)
