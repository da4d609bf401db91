"""`detect` answers in one record: every search returns a `PatternMatch`,
and every found payload is its status, image and roles."""

import inspect
import json
import typing
from typing import Optional

import pytest

from twcert import detect
from twcert.cli import DETECTORS, main
from twcert.detect import PatternMatch
from twcert.generators import path_graph, pyramid, wall
from twcert.io import write_graph_json

# pattern -> (its detect arguments, a host it is found on)
FOUND_ON = {
    "theta": (["--t", "2"], wall(3, 3)),
    "claw": (["--t1", "1", "--t2", "1", "--t3", "1"], wall(3, 3)),
    "creature": (["--k", "2", "--t", "1"], wall(3, 3)),
    "wall-line": (["--k", "2"], wall(3, 3)),
    "induced": (["--pattern-file", "{p4}"], wall(3, 3)),
    "pyramid": (["--t", "1"], pyramid(1, 2, 3).graph),
}


def _detect(tmp_path, pattern, host):
    """Run `detect --pattern pattern` on host; its exit code and payload."""
    paths = {name: tmp_path / f"{name}.json" for name in ("host", "p4", "out")}
    for name, g in (("host", host), ("p4", path_graph(4))):
        with open(paths[name], "w", encoding="utf-8") as fh:
            write_graph_json(g, fh)
    args, _ = FOUND_ON[pattern]
    argv = ["detect", "--pattern", pattern, "-i", str(paths["host"]),
            "-o", str(paths["out"]), *(a.format(**paths) for a in args)]
    code = main(argv)
    return code, json.loads(paths["out"].read_text())


def test_every_detector_is_covered():
    assert set(FOUND_ON) == set(DETECTORS)


@pytest.mark.parametrize("pattern", sorted(FOUND_ON))
def test_found_payload_is_status_image_roles(tmp_path, pattern):
    code, payload = _detect(tmp_path, pattern, FOUND_ON[pattern][1])
    assert code == 0
    assert set(payload) == {"status", "image", "roles"}
    assert payload["status"] == "found"
    union = set().union(*payload["roles"].values())
    assert payload["image"] == sorted(union)


@pytest.mark.parametrize("pattern", sorted(FOUND_ON))
def test_absent_payload_is_status_only(tmp_path, pattern):
    code, payload = _detect(tmp_path, pattern, path_graph(2))
    assert code == 1
    assert payload == {"status": "absent"}


def test_every_finder_returns_a_pattern_match():
    finders = [
        fn for name, fn in inspect.getmembers(detect, inspect.isfunction)
        if name.startswith("find_") and fn.__module__ == detect.__name__
    ]
    assert finders
    for fn in finders:
        hint = typing.get_type_hints(fn)["return"]
        assert hint == Optional[PatternMatch], fn.__name__
