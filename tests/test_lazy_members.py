"""Work counts of the family detectors: how many members a family offers,
how many witness graphs it builds and how many members it searches.  A member
whose search an earlier member has already failed is charged and skipped
without its graph being built, so only the searched members are built."""

from collections import Counter
from unittest import mock

import pytest

from twcert import detect
from twcert.config import Budget
from twcert.detect import find_t_pyramid, find_t_theta
from twcert.generators import wall

CASES = {
    # name: (search, members offered, graphs built = members searched)
    "pyramid-t1-wall44": (lambda b: find_t_pyramid(wall(4, 4), 1, b), 337, 2),
    "theta-t2-wall45": (lambda b: find_t_theta(wall(4, 5), 2, b), 33, 21),
    "theta-t3-wall44": (lambda b: find_t_theta(wall(4, 4), 3, b), 32, 17),
}


def counted(name, fn, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(CASES))
def test_members_are_built_only_when_searched(name):
    search, members, built = CASES[name]
    counts: Counter[str] = Counter()
    first_copy = detect._first_copy

    def members_of(family):
        for member in family:
            counts["members"] += 1
            yield member

    with mock.patch.multiple(
        detect,
        _first_copy=lambda g, family, budget: first_copy(
            g, members_of(family), budget
        ),
        theta=counted("built", detect.theta, counts),
        pyramid=counted("built", detect.pyramid, counts),
        iter_induced_maps=counted("searched", detect.iter_induced_maps, counts),
    ):
        search(Budget(10**7))
    assert dict(counts) == {"members": members, "built": built, "searched": built}
