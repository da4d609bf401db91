"""Per-layer tracing of twcert, installed from outside the package.

Each traced function is replaced by a wrapper on its defining module and on
every module that bound it by name (`from .detect import find_induced`), and
each suite in the `suites.SUITES` registry, which captured the function
objects at import time.  A timed wrapper records a span (id, parent, job,
name, start, end) in memory; self time is a span's duration minus the
durations of its direct child spans.  The graph kernels `reach_mask` and
`component_masks` run hundreds of thousands of times per job, so they are
counted and never timed.  Budget ticks are read from every `Budget` the
program constructs: the constructor registers the instance, and `tick` itself
is left alone because searches run to millions of ticks.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# (module, attribute path, metric): self time of the listed functions.
TIMED = [
    *(("twcert.detect", f, "detect.s") for f in (
        "find_t_theta", "find_t_pyramid", "find_subdivided_claw",
        "find_line_of_subdivided_wall", "find_creature", "find_induced",
        "induced_copies", "verify_forcer")),
    *(("twcert.weights", f"WeightFunction.{f}", "weights.s") for f in (
        "of", "of_mask", "uniform", "from_mapping", "from_json", "to_json",
        "as_dict", "is_normal", "__getitem__", "total", "w_max")),
    ("twcert.weights", "parse_fraction", "weights.s"),
    ("twcert.separators", "exact_treewidth", "separators.exact_treewidth.s"),
    ("twcert.separators", "treewidth_bounds", "separators.treewidth_bounds.s"),
    ("twcert.separators", "min_balanced_separator", "separators.min_balanced_separator.s"),
    ("twcert.separators", "separation_number", "separators.separation_number.s"),
    ("twcert.centralbag", "covering_sequence", "centralbag.covering_sequence.s"),
    ("twcert.centralbag", "dimension_partition", "centralbag.dimension_partition.s"),
    ("twcert.centralbag", "central_bag", "centralbag.central_bag.s"),
    ("twcert.centralbag", "audit_is_complete", "centralbag.audit.s"),
    ("twcert.centralbag", "check_bag_separator_transfer", "centralbag.transfer.s"),
    ("twcert.centralbag", "forcer_elimination_check", "centralbag.forcer.s"),
    ("twcert.decompose", "validate_td", "decompose.validate_td.s"),
    ("twcert.decompose", "chordal_td", "decompose.chordal_td.s"),
    ("twcert.decompose", "fuzzy_lci_td", "decompose.fuzzy_lci_td.s"),
    *(("twcert.certify", f, "certify.emit_s") for f in (
        "Certificate.add", "Certificate.record_input", "Certificate.to_json",
        "Certificate.dumps", "canonical_json", "sha256_of", "graph_witness",
        "weights_witness")),
    *(("twcert.io", f, "io.s") for f in (
        "graph_to_json", "graph_from_json", "write_graph_json",
        "read_graph_json", "write_gr", "read_gr", "write_td", "read_td")),
    ("twcert.cli", "main", "cli.s"),
]

# (module, attribute path, metric): call counts only.
COUNTED = [
    ("twcert.graphs", "Graph.reach_mask", "graphs.reach_mask.calls"),
    ("twcert.graphs", "Graph.component_masks", "graphs.component_masks.calls"),
    ("twcert.weights", "WeightFunction.of_mask", "weights.of_mask.calls"),
    ("twcert.weights", "WeightFunction.of", "weights.of.calls"),
    ("twcert.separators", "component_weights", "separators.subsets_tested"),
]


def _on_induced_copies(tr: "Tracer", result: Any, args: tuple) -> None:
    tr.counts["detect.copies"] += len(result)


def _on_covering_sequence(tr: "Tracer", result: Any, args: tuple) -> None:
    tr.counts["centralbag.separations"] += len(result.separations)


def _on_central_bag(tr: "Tracer", result: Any, args: tuple) -> None:
    seq = args[2]
    tr.counts["centralbag.kept"] += sum(len(cls) for cls in result.generator)
    tr.counts["centralbag.members"] += len(seq.separations)


RESULT_HOOKS: dict[str, Callable[["Tracer", Any, tuple], None]] = {
    "twcert.detect.induced_copies": _on_induced_copies,
    "twcert.centralbag.covering_sequence": _on_covering_sequence,
    "twcert.centralbag.central_bag": _on_central_bag,
}


def _resolve(modname: str, path: str) -> tuple[Any, str]:
    owner: Any = sys.modules[modname]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _generator_functions() -> list[tuple[str, str, str]]:
    """Every public module-level function of twcert.generators."""
    from twcert import generators

    return [
        ("twcert.generators", name, "generators.s")
        for name, obj in vars(generators).items()
        if inspect.isfunction(obj)
        and obj.__module__ == generators.__name__
        and not name.startswith("_")
    ]


class Tracer:
    """Spans, self times and counts of one traced stretch of jobs."""

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.stack: list[list] = []  # open spans: [id, start, child time]
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.budgets: list[tuple[Optional[str], Any]] = []
        self._restore: list[Callable[[], None]] = []

    # -- wrappers --------------------------------------------------------------

    def timed(self, fn: Callable, metric: str, hook: Optional[Callable] = None) -> Callable:
        stack, spans, self_s, incl_s = self.stack, self.spans, self.self_s, self.incl_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans) + len(stack), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self_s[metric] += dur - frame[2]
                incl_s[metric] += dur
                spans.append((frame[0], parent, tracer.job, metric, frame[1], end))

        return wrapper

    def counted(self, fn: Callable, metric: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pause(self, seconds: float) -> None:
        """Leave an interruption of the given length out of every open span."""
        for frame in self.stack:
            frame[1] += seconds

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, property):
            new: Any = property(make(raw.fget))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        if isinstance(owner, type):
            setattr(owner, name, new)
            self._restore.append(lambda: setattr(owner, name, raw))
            return
        # a module-level function: rebind it everywhere it was imported by name
        for mod in [m for k, m in sys.modules.items() if k.startswith("twcert")]:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, new)
                    self._restore.append(functools.partial(setattr, mod, key, raw))

    def install(self) -> None:
        import twcert.cli  # noqa: F401  (imports every traced module)
        from twcert import config, suites

        # counted wrappers go on first, so a method both counted and timed
        # (of, of_mask) is timed around its counter
        for modname, path, metric in COUNTED:
            owner, name = _resolve(modname, path)
            self._patch(owner, name, lambda f, m=metric: self.counted(f, m))
        for modname, path, metric in TIMED + _generator_functions():
            owner, name = _resolve(modname, path)
            hook = RESULT_HOOKS.get(f"{modname}.{path}")
            self._patch(owner, name, lambda f, m=metric, h=hook: self.timed(f, m, h))
        for suite, fn in list(suites.SUITES.items()):
            suites.SUITES[suite] = self.timed(fn, f"suites.{suite}.s")
            self._restore.append(functools.partial(suites.SUITES.__setitem__, suite, fn))
        init = config.Budget.__init__
        tracer = self

        def register(budget, *args, **kwargs):
            init(budget, *args, **kwargs)
            tracer.budgets.append((tracer.job, budget))

        config.Budget.__init__ = register
        self._restore.append(lambda: setattr(config.Budget, "__init__", init))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------------

    def ticks(self, job: Optional[str] = None) -> int:
        return sum(b.used for j, b in self.budgets if job is None or j == job)

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
