"""The central-bag pipeline validates its inputs, then settles the n = 12 cap
and the shared no-small-separator hypothesis, before any stage runs."""

import json
import sys

from twcert import centralbag
from twcert.cli import USAGE_ERROR, main
from twcert.config import RunConfig
from twcert.suites import verify_suite

CAP_PAYLOAD = {
    "status": "budget",
    "detail": "transfer checks are exhaustive; capped at n=12",
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def _wall44(tmp_path):
    path = tmp_path / "wall4x4.json"
    assert main(["gen", "wall", "--n", "4", "--m", "4", "-o", str(path)]) == 0
    return str(path)


def _p3(tmp_path):
    return _write(tmp_path, "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})


def _centralbag(tmp_path, host, pattern, *extra):
    out = tmp_path / "out.json"
    code = main(["centralbag", "-i", host, "--pattern", pattern, *extra, "-o", str(out)])
    return code, out


def test_cap_is_raised_before_any_stage(tmp_path, monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("covering_sequence ran on a host above the cap")

    monkeypatch.setattr(centralbag, "covering_sequence", no_stage)
    code, out = _centralbag(tmp_path, _wall44(tmp_path), _p3(tmp_path))
    assert code == 2
    assert json.loads(out.read_text()) == CAP_PAYLOAD


def test_usage_errors_beat_the_cap(tmp_path):
    wall44 = _wall44(tmp_path)
    n = json.loads(open(wall44).read())["n"]
    assert n > 12  # above the cap
    two_paths = [[i, i + 1] for i in range(13) if i != 6]
    cases = [
        # a disconnected 14-vertex host
        (_write(tmp_path, "split14.json", {"n": 14, "edges": two_paths}), _p3(tmp_path)),
        # a disconnected pattern
        (wall44, _write(tmp_path, "two.json", {"n": 2, "edges": []})),
        # weights that sum to 3/4
        (wall44, _p3(tmp_path), "--weights",
         _write(tmp_path, "w.json", {str(v): "3/4" if v == 0 else "0" for v in range(n)})),
    ]
    for host, pattern, *extra in cases:
        code, out = _centralbag(tmp_path, host, pattern, *extra)
        assert code == USAGE_ERROR, (host, pattern, extra)
        assert not out.exists()


def test_conditional_bags_searches_once_per_instance(monkeypatch):
    real = centralbag.no_small_separator
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "no_small_separator", None)
        if name.startswith("twcert") and bound is real:
            monkeypatch.setattr(module, "no_small_separator", counted)
    verify_suite("conditional-bags", RunConfig())
    assert len(calls) == 9
