"""The `pattern-found` validator on real detector output.

A witness is the host, the image of a match and the shape the match
subdivides, each shape edge `[u, v, lo, hi]` with hi null when unbounded.
The shapes are written out here from the detectors' contracts: a t-theta's
three paths have length >= t; a t-pyramid's apex paths have length >= t, at
most one of them a single edge; a claw's legs have exactly the asked
lengths.  `recheck` must confirm every witness built from a match of
`find_t_theta` (relabeled walls 3x4-6x6), `find_t_pyramid` and
`find_subdivided_claw` (seeded random graphs with 7-14 vertices), and reject
each one tampered: a chord added inside the image, a path one shorter than
its floor, a pyramid whose triangle is a path, a repeated image vertex, and
a shape with a degree-2 base vertex.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from conftest import random_graph
from test_exact_dp import relabel
from twcert.certify import graph_witness
from twcert.check import recheck
from twcert.config import Budget
from twcert.detect import PatternMatch, find_subdivided_claw, find_t_pyramid, find_t_theta
from twcert.generators import wall
from twcert.graphs import Graph

CLAW_LEGS = [(1, 1, 1), (2, 1, 1), (1, 2, 3), (0, 2, 1)]


def theta_shape(t: int) -> list[list]:
    return [[0, 1, t, None]] * 3


def pyramid_shape(t: int) -> list[list]:
    triangle = [[1, 2, 1, 1], [1, 3, 1, 1], [2, 3, 1, 1]]
    return triangle + [[0, 1, t, None], [0, 2, max(t, 2), None], [0, 3, max(t, 2), None]]


def claw_shape(legs: tuple[int, int, int]) -> list[list]:
    """K1,3 with legs of exactly these lengths; a path when the first is 0."""
    if legs[0] == 0:
        return [[0, 1, legs[1] + legs[2], legs[1] + legs[2]]]
    return [[0, leaf, t, t] for leaf, t in enumerate(legs, 1)]


@cache
def matches() -> list[tuple[str, Graph, PatternMatch, list[list], tuple[int, ...]]]:
    """(name, host, match, shape, sorted path floors) for every match; the
    floors are empty for claws, whose legs are exact."""
    out = []
    for rows in range(3, 7):
        for cols in range(max(rows, 4) if rows == 3 else rows, 7):
            g = relabel(wall(rows, cols), 10 * rows + cols)
            for t in (2, 3):
                m = find_t_theta(g, t, Budget(10**8))
                out.append((f"theta{t}-wall{rows}x{cols}", g, m, theta_shape(t), (t,) * 3))
    for seed in range(120):
        g = random_graph(7 + seed % 8, 0.35, seed)
        for t in (1, 2):
            m = find_t_pyramid(g, t)
            floors = (t, max(t, 2), max(t, 2))
            if m is not None:
                out.append((f"pyramid{t}-{seed}", g, m, pyramid_shape(t), floors))
        for legs in CLAW_LEGS:
            m = find_subdivided_claw(g, *legs)
            if m is not None:
                out.append((f"claw{''.join(map(str, legs))}-{seed}", g, m, claw_shape(legs), ()))
    return out


def confirmed(g: Graph, image, shape) -> tuple[int, int, list[str]]:
    witness = {"kind": "pattern-found", "graph": graph_witness(g),
               "image": list(image), "shape": shape}
    return recheck({"assertions": [{"check": "x", "status": "pass", "witness": witness}]})


def with_edges(g: Graph, add=(), drop=()) -> Graph:
    return Graph(g.n, [e for e in g.edges if e not in drop] + list(add))


def test_every_detector_match_is_confirmed():
    families = Counter(name.split("-")[0].rstrip("0123456789") for name, *_ in matches())
    assert families["theta"] == 18 and families["pyramid"] >= 40 and families["claw"] >= 100
    for name, g, m, shape, _ in matches():
        assert m is not None, name
        assert confirmed(g, m.image, shape) == (1, 1, []), name


def test_a_chord_inside_the_image_is_rejected():
    for name, g, m, shape, _ in matches():
        chord = next(
            (u, v) for i, u in enumerate(m.image) for v in m.image[i + 1 :]
            if not g.has_edge(u, v)
        )
        assert confirmed(with_edges(g, add=[chord]), m.image, shape)[1] == 0, name


def test_a_path_one_shorter_than_its_floor_is_rejected():
    """Sorted path lengths L against the sorted floors F: shortening the
    first path of its length, where L[i] == F[i] >= 2, leaves fewer paths of
    length >= F[i] than the floors from F[i] on ask for.  Its interior vertex
    next to the start leaves the image and its two neighbours become
    adjacent."""
    shortened = 0
    for name, g, m, shape, floors in matches():
        paths = sorted((p for role, p in m.roles if role.startswith("path")), key=len)
        lengths = [len(p) - 1 for p in paths]
        for i, (p, floor) in enumerate(zip(paths, floors)):
            if lengths[i] == floor >= 2 and (i == 0 or lengths[i - 1] < floor):
                image = [v for v in m.image if v != p[1]]
                host = with_edges(g, add=[(p[0], p[2])])
                assert confirmed(host, image, shape)[1] == 0, name
                shortened += 1
                break
        else:
            assert not name.startswith("theta"), name  # every theta is at its floor
    assert shortened >= 50


def test_a_pyramid_whose_triangle_is_a_path_is_rejected():
    for name, g, m, shape, _ in matches():
        if name.startswith("pyramid"):
            a, b, _ = dict(m.roles)["triangle"]
            host = with_edges(g, drop=[tuple(sorted((a, b)))])
            assert confirmed(host, m.image, shape)[1] == 0, name


def test_a_repeated_image_vertex_is_rejected():
    for name, g, m, shape, _ in matches():
        image = [*m.image, m.image[0]]
        assert confirmed(g, image, shape) == (
            1, 0, ["x: stored status pass but witness rechecks as fail"]
        ), name


def test_a_shape_with_a_degree_2_base_vertex_is_rejected():
    """The shape's first edge u-v runs through a new base vertex of degree
    2, which the classifier could never see as a branch vertex."""
    for name, g, m, shape, _ in matches():
        (u, v, lo, hi), *rest = shape
        k = 1 + max(x for e in shape for x in e[:2])
        bent = [[u, k, 1, None], [v, k, 1, None], *rest]
        checked, ok, problems = confirmed(g, m.image, bent)
        assert (checked, ok) == (1, 0), name
        assert problems[0].startswith("x: recheck error malformed shape"), name


@pytest.mark.parametrize(
    "shape",
    [
        [],
        [[0, leaf, 1, 1] for leaf in range(1, 5)],  # five base vertices: K1,4
        [[0, 1, 2, None], [0, 1, 3, None], [0, 1, 2, None]],  # parallel, two ranges
        [[0, 2, 2, 2]],  # base vertex 1 missing
        [[1, 0, 2, 2]],  # lower end second
        [[0, 0, 2, 2]],
    ],
    ids=["empty", "five-vertices", "parallel-ranges", "gap", "reversed", "loop"],
)
def test_malformed_shapes_are_recheck_errors(shape):
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    checked, ok, problems = confirmed(g, range(4), shape)
    assert (checked, ok) == (1, 0)
    assert problems == [f"x: recheck error malformed shape {shape!r}"]


@pytest.mark.parametrize(
    "shape, message",
    [
        ([[0, 1, 3, 3.0]], "shape entry must be an integer, got 3.0"),
        ([[0, 1, True, None]], "shape entry must be an integer, got True"),
        ([[0, 1, 3]], "not enough values to unpack (expected 4, got 3)"),
        ({"0": 1}, "not enough values to unpack (expected 4, got 1)"),
    ],
    ids=["float-hi", "bool-lo", "three-entries", "object"],
)
def test_non_integer_shape_entries_are_recheck_errors(shape, message):
    checked, ok, problems = confirmed(Graph(4, [(0, 1), (1, 2), (2, 3)]), range(4), shape)
    assert (checked, ok, problems) == (1, 0, [f"x: recheck error {message}"])


def test_an_unbounded_edge_reads_null_and_a_bounded_one_its_integer():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert confirmed(path, range(4), [[0, 1, 3, None]])[:2] == (1, 1)
    assert confirmed(path, range(4), [[0, 1, 1, 3]])[:2] == (1, 1)
    assert confirmed(path, range(4), [[0, 1, 1, 2]])[:2] == (1, 0)
