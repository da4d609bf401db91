"""Desk-scale treewidth certification toolkit.

Exact combinatorial machinery for bounding treewidth through weighted
balanced separators and central bags, with pattern generators, induced
subgraph detectors, constructive tree decompositions, and a certificate
format that makes every verdict re-checkable.
"""

from .graphs import BudgetExhausted, CapExceeded, Graph
from .weights import WeightFunction

__all__ = [
    "BudgetExhausted",
    "CapExceeded",
    "Graph",
    "WeightFunction",
]
