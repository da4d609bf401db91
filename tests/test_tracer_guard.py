"""The benchmark's per-layer tracer must still install on the package.

`perfbench/tracing.py` wraps functions by module and attribute name; a
renamed or deleted function makes `install` fail.  This runs the install and
the uninstall, and checks that uninstall puts every original back.
"""

import importlib.util
from pathlib import Path

from twcert import separators, suites, weights

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    before = (
        separators.min_balanced_separator,
        separators.component_weights,
        weights.WeightFunction.__dict__["of_mask"],
        dict(suites.SUITES),
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert separators.min_balanced_separator is not before[0]
    finally:
        tracer.uninstall()
    after = (
        separators.min_balanced_separator,
        separators.component_weights,
        weights.WeightFunction.__dict__["of_mask"],
        dict(suites.SUITES),
    )
    assert after == before
