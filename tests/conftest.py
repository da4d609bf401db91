from itertools import combinations

from hypothesis import strategies as st

from twcert.centralbag import Separation
from twcert.decompose import (
    TreeDecomposition,
    along,
    eliminate,
    maximum_cardinality_search,
)
from twcert.graphs import Graph, mask_of


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), 2))
    if pool:
        edges = draw(
            st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))
        )
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), 2))
    spanning = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, spanning + extra)


# -- helpers only tests need, so the package does not ship them -------------


def is_chordal(g: Graph) -> bool:
    """Chordal exactly when the MCS order is a perfect elimination ordering,
    i.e. eliminating along it adds no fill edge."""
    return not eliminate(g, along(maximum_cardinality_search(g)))[1]


def single_bag_td(g: Graph) -> TreeDecomposition:
    return TreeDecomposition(bags=(tuple(range(g.n)),), tree_edges=())


def anticomplete(g: Graph, x, y) -> bool:
    """No edge of g joins a vertex of x to a vertex of y."""
    my = mask_of(y)
    return all(not g.neighbor_mask(v) & my for v in x)


def bc_union(s: Separation) -> tuple[int, ...]:
    return tuple(sorted(s.b + s.c))


def restricted(s: Separation, domain: set[int]) -> Separation:
    """s with each side cut down to `domain`; center and anchor kept."""
    return Separation(
        a=tuple(v for v in s.a if v in domain),
        c=tuple(v for v in s.c if v in domain),
        b=tuple(v for v in s.b if v in domain),
        center=s.center,
        anchor=s.anchor,
    )
