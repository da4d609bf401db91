"""Command-line entry point.

Subcommands: gen, detect, tw, sep, centralbag, decompose, verify, recheck.
Exit codes: 0 all-pass / found, 1 any-fail / absent, 2 budget or hypothesis
unmet, 64 usage error (a malformed input, or a path that cannot be opened,
read or written).  Every run that produces verdicts can write a
certificate JSON; `recheck` re-derives each entry whose witness names a kind.

Each command imports the modules it runs when it runs, so a one-shot process
loads only those: `tw` adds `separators` alone, and only `verify` loads
`suites`, which imports every module.  At import this module loads what `main`
and the shared readers and writers need: `config`, `graphs`, `io`, `weights`,
and `certify` with the `check` it imports.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, TextIO, TypeVar

from .certify import canonical_json
from .config import Budget, RunConfig, load_config
from .graphs import BudgetExhausted, CapExceeded, Graph
from .io import graph_from_json, read_gr
from .weights import parse_fraction

if TYPE_CHECKING:
    from .generators import Instance, LciThickening, StripStructure
    from .weights import WeightFunction

USAGE_ERROR = 64

T = TypeVar("T")


def _load_file(path: str, parse: Callable[[TextIO], T]) -> T:
    """Parse an input file.  A file of the wrong shape is a usage error that
    names the file (exit 64), never a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed input: {exc!r}") from exc


def _load_json(path: str, build: Callable[[Any], T], **load_kw: Any) -> T:
    return _load_file(path, lambda fh: build(json.load(fh, **load_kw)))


def _load_graph(path: str) -> Graph:
    if path.endswith(".gr"):
        return _load_file(path, read_gr)
    return _load_json(path, graph_from_json)


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The file to write an output to; no path, or "-", is standard output."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _save_graph(g: Graph, path: str) -> None:
    from .io import write_gr, write_graph_json

    with _output(path) as fh:
        if path.endswith(".gr"):
            write_gr(g, fh)
        else:
            write_graph_json(g, fh)


def _load_weights(path: Optional[str], g: Graph) -> WeightFunction:
    from .weights import WeightFunction

    if path is None:
        return WeightFunction.uniform(g)

    def build(pairs: Any) -> WeightFunction:
        keys = sorted(k for k, _ in pairs) if isinstance(pairs, tuple) else None
        if keys != sorted(str(v) for v in g.vertices):
            raise ValueError(f"weights must name each vertex 0..{g.n - 1} once")
        return WeightFunction.from_json(dict(pairs))

    # object_pairs_hook keeps repeated keys; parse_float reads a JSON number
    # such as 0.1 from its decimal text, as the string "0.1" is read
    return _load_json(path, build, object_pairs_hook=tuple, parse_float=parse_fraction)


def _dump_json(payload: Any, path: Optional[str]) -> None:
    text = canonical_json(payload)
    with _output(path) as fh:
        fh.write(text)


# -- gen ------------------------------------------------------------------------


Generated = tuple[Graph, dict[str, Any]]


def _roles(instance: Instance) -> Generated:
    """A pattern instance's graph, with its roles as the witness fields."""
    return instance.graph, dict(instance.roles)


def _caterpillar(gen: Any, args: argparse.Namespace) -> Generated:
    legs = tuple(
        tuple(int(x) for x in part.split(",") if x)
        for part in (args.legs.split(";") if args.legs else [])
    )
    return _roles(gen.caterpillar(gen.CaterpillarSpec(args.spine, legs)))


def _cycle_lci(gen: Any, args: argparse.Namespace) -> Generated:
    model = gen.cycle_interval_model(4 if args.k is None else args.k)
    base = gen.circular_interval_graph(model)
    sizes = (args.size,) * len(model.points)
    lci = gen.LciThickening(model, gen.ThickeningSpec(base=base, sizes=sizes))
    return lci.graph, {"points": [str(p) for p in model.points]}


def _strip(gen: Any, args: argparse.Namespace) -> Generated:
    ss = gen.strip_structure_instance(args.kind)
    return ss.host, {
        "pattern_n": ss.pattern_n,
        "pattern_edges": ss.pattern_edges,
        "eta": ss.eta,
        "eta_end": ss.eta_end,
    }


# family -> the graph and its witness fields, read from the `generators`
# module it is given; a pattern family's fields are its instance's roles
GENERATORS: dict[str, Callable[[Any, argparse.Namespace], Generated]] = {
    "wall": lambda gen, a: (gen.wall(a.n, a.m), {}),
    "claw": lambda gen, a: _roles(gen.subdivided_claw(a.t1, a.t2, a.t3)),
    "theta": lambda gen, a: _roles(gen.theta(a.l1, a.l2, a.l3)),
    "pyramid": lambda gen, a: _roles(gen.pyramid(a.l1, a.l2, a.l3)),
    "caterpillar": _caterpillar,
    "creature": lambda gen, a: _roles(
        gen.creature(3 if a.k is None else a.k, a.t, a.spacing)
    ),
    "cycle-lci": _cycle_lci,
    "strip": _strip,
}


def cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    from . import generators

    g, fields = GENERATORS[args.family](generators, args)
    _save_graph(g, args.output)
    if args.witness:
        _dump_json({"family": args.family, **fields}, args.witness)
    return 0


# -- detect ---------------------------------------------------------------------


# pattern -> exact search, read from the `detect` module it is given; every
# search runs under the configured budget
DETECTORS: dict[str, Callable[[Any, Graph, argparse.Namespace, Budget], Any]] = {
    "theta": lambda d, g, a, bud: d.find_t_theta(g, a.t, bud),
    "pyramid": lambda d, g, a, bud: d.find_t_pyramid(g, a.t, bud),
    "claw": lambda d, g, a, bud: d.find_subdivided_claw(g, a.t1, a.t2, a.t3, bud),
    "creature": lambda d, g, a, bud: d.find_creature(g, a.k, a.t, bud),
    "wall-line": lambda d, g, a, bud: d.find_line_of_subdivided_wall(g, a.k, bud),
    "induced": lambda d, g, a, bud: d.find_induced(g, _load_graph(a.pattern_file), bud),
}


def cmd_detect(args: argparse.Namespace, cfg: RunConfig) -> int:
    from . import detect

    g = _load_graph(args.input)
    if args.pattern == "induced" and not args.pattern_file:
        print("--pattern-file required for induced", file=sys.stderr)
        return USAGE_ERROR
    match = DETECTORS[args.pattern](detect, g, args, Budget(cfg.search_budget))
    if match is None:
        _dump_json({"status": "absent"}, args.output)
        return 1
    payload = {
        "status": "found",
        "image": match.image,
        "roles": dict(match.roles),
    }
    _dump_json(payload, args.output)
    return 0


# -- tw / sep ---------------------------------------------------------------------


def cmd_tw(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .certify import Certificate, graph_witness, td_witness
    from .check import validate_td
    from .io import write_td
    from .separators import treewidth_or_bounds

    g = _load_graph(args.input)
    bounds = treewidth_or_bounds(g, cap=cfg.max_tw_n)
    if args.td:
        with _output(args.td) as fh:
            write_td(bounds.td, g.n, fh)
    cert = Certificate(command=["tw", args.input], seed=cfg.seed)
    cert.record_input("graph", graph_witness(g))
    cert.add(
        "tw.witness",
        f"witness decomposition of width {bounds.upper} validates",
        validate_td(g, bounds.td).ok,
        td_witness(g, bounds.td, bounds.upper),
    )
    payload = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact": bounds.exact,
        "certificate": cert.to_json(),
    }
    _dump_json(payload, args.output)
    return cert.exit_code() if bounds.exact is not None else 2


def cmd_sep(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .separators import separation_number

    g = _load_graph(args.input)
    value = separation_number(g, cfg.c, Budget(cfg.search_budget))
    _dump_json({"separation_number": value, "c": str(cfg.c)}, args.output)
    return 0


# -- centralbag ---------------------------------------------------------------------


def cmd_centralbag(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .centralbag import run_master_pipeline
    from .certify import Certificate, graph_witness, weights_witness

    g = _load_graph(args.input)
    pattern = _load_graph(args.pattern)
    forcers = [_load_graph(p) for p in args.forcer or []]
    w = _load_weights(args.weights, g)
    rep = run_master_pipeline(
        g, pattern, forcers, c=cfg.c, d=cfg.d, w=w, tw_cap=cfg.max_tw_n,
        budget=Budget(cfg.search_budget),
    )
    cert = Certificate(command=["centralbag", args.input], seed=cfg.seed)
    cert.record_input("graph", graph_witness(g))
    cert.record_input("pattern", graph_witness(pattern))
    result = rep.result
    cert.expect("bag.algebra", "per-level bag algebra holds", result.algebra_holds, True)
    cert.expect(
        "bag.audit", "every dropped separation is justified", rep.audit_complete, True
    )
    cert.expect(
        "bag.dimension",
        "class count stays within the ball bound",
        rep.dimension_bound_holds,
        True,
    )
    checks = [(f"bag.forcer.{i}", chk) for i, chk in enumerate(rep.forcer_checks)]
    checks += [("bag.transfer", chk) for chk in rep.transfer_checks]
    for check_id, chk in checks:
        cert.expect(
            check_id,
            chk.claim,
            chk.conclusion_holds,
            True,
            hypothesis_met=chk.hypothesis_met,
        )
    payload = {
        "bag": result.bag,
        "bag_weights": weights_witness(result.weights),
        "bag_treewidth": rep.bag_treewidth,
        "sequence": [
            {
                "a": s.a,
                "c": s.c,
                "b": s.b,
                "center": s.center,
                "anchor": s.anchor,
                "skew": [str(x) for x in s.skew(w)],
            }
            for s in rep.sequence.separations
        ],
        "skipped_copies": rep.sequence.skipped,
        "partition": rep.classes,
        "generator": result.generator,
        "drops": [
            {"index": d.index, "reason": d.reason, "witness": d.witness}
            for d in result.drops
        ],
        "classes": len(rep.classes),
        "goodness": rep.goodness,
        "symbolic_bound": rep.symbolic_bound,
        "certificate": cert.to_json(),
    }
    _dump_json(payload, args.output)
    return cert.exit_code()


# -- decompose ---------------------------------------------------------------------


def _lci_from_json(data: dict[str, Any]) -> LciThickening:
    from .generators import (
        CircularIntervalModel,
        LciThickening,
        ThickeningSpec,
        circular_interval_graph,
    )
    from .io import integers

    model = CircularIntervalModel(
        points=tuple(parse_fraction(p) for p in data["points"]),
        arcs=tuple((parse_fraction(s), parse_fraction(e)) for s, e in data["arcs"]),
    )
    base = graph_from_json(data["base"]) if "base" in data else None
    sizes = data.get("sizes", [1] * len(model.points))
    spec = ThickeningSpec(
        base=base if base is not None else circular_interval_graph(model),
        sizes=integers(sizes, "size"),
        fuzz=tuple(integers(p, "fuzz vertex") for p in data.get("fuzz", [])),
        patterns=tuple(
            tuple(integers(c, "pattern cell index") for c in pat)
            for pat in data.get("patterns", [])
        ),
    )
    return LciThickening(model, spec)


def _strip_structure_from_json(data: dict[str, Any]) -> StripStructure:
    from .generators import StripStructure
    from .io import integer, integers

    return StripStructure(
        host=graph_from_json(data["host"]),
        pattern_n=integer(data["pattern_n"], "pattern_n"),
        pattern_edges=tuple(
            integers(e, "pattern edge end") for e in data["pattern_edges"]
        ),
        eta=tuple(integers(s, "strip vertex") for s in data["eta"]),
        eta_end=tuple(
            (integers(l, "end-set vertex"), integers(r, "end-set vertex"))
            for l, r in data["eta_end"]
        ),
    )


def cmd_decompose(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .check import validate_td
    from .decompose import (
        NotChordal,
        chordal_td,
        decompose_strip_structure,
        fuzzy_lci_td,
    )
    from .io import write_td

    try:
        if args.method == "chordal":
            host = _load_graph(args.input)
            td = chordal_td(host)
        elif args.method == "lci":
            lci = _load_json(args.input, _lci_from_json)
            host = lci.graph
            td = fuzzy_lci_td(lci).td
        elif args.method == "strip":
            ss = _load_json(args.input, _strip_structure_from_json)
            host = ss.host
            td = decompose_strip_structure(ss, cap=cfg.max_tw_n).td
    except NotChordal as exc:  # chordal_td or fuzzy_lci_td met a hole
        _dump_json({"status": "fail", "hole": exc.hole}, args.output)
        return 1
    check = validate_td(host, td)
    if args.td:
        with _output(args.td) as fh:
            write_td(td, host.n, fh)
    _dump_json(
        {"status": "ok" if check.ok else "fail", "width": check.width,
         "violations": check.violations},
        args.output,
    )
    return 0 if check.ok else 1


# -- verify / recheck -----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .suites import SUITES, verify_suite

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    worst = 0
    for name in names:
        try:
            cert = verify_suite(name, cfg)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return USAGE_ERROR
        out = None
        if args.output and args.output != "-":  # "-" is standard output
            out = args.output if len(names) == 1 else f"{args.output}.{name}.json"
        _dump_json(cert.to_json(), out)
        worst = max(worst, cert.exit_code())
    return worst


def _certificate_from_json(data: Any) -> dict[str, Any]:
    """A certificate, bare or under a command output's `certificate` key."""
    cert = data.get("certificate", data)
    if not isinstance(cert, dict) or not isinstance(cert.get("assertions"), list):
        raise ValueError("not a certificate: no 'assertions' list")
    return cert


def cmd_recheck(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .check import recheck

    cert = _load_json(args.input, _certificate_from_json)
    checked, confirmed, problems = recheck(cert)
    _dump_json(
        {"checked": checked, "confirmed": confirmed, "problems": problems},
        args.output,
    )
    return 0 if not problems else 1


# -- parser ---------------------------------------------------------------------------


COMMANDS: dict[str, Callable[[argparse.Namespace, RunConfig], int]] = {
    "gen": cmd_gen,
    "detect": cmd_detect,
    "tw": cmd_tw,
    "sep": cmd_sep,
    "centralbag": cmd_centralbag,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "recheck": cmd_recheck,
}


# Built once, at import: building the argparse tree takes about 25 times as long
# as parsing one argument list, and `main` may run many times in one process.
# Parsing leaves the parser unchanged; each call gets a fresh namespace.
_PARSER = argparse.ArgumentParser(
    prog="twcert",
    description="treewidth certification toolkit: generators, detectors, "
    "separators, central bags, and tree decompositions",
)
_PARSER.add_argument("--config", help="key=value config file (env TWCERT_CONFIG)")
_PARSER.add_argument("--seed", type=int, help="seed for seeded corpora")
_sub = _PARSER.add_subparsers(dest="command", required=True)

_cmd = _sub.add_parser("gen", help="emit a graph family instance")
_cmd.add_argument("family", choices=list(GENERATORS))
_cmd.add_argument("--n", type=int, default=3)
_cmd.add_argument("--m", type=int, default=3)
_cmd.add_argument("--t1", type=int, default=1)
_cmd.add_argument("--t2", type=int, default=1)
_cmd.add_argument("--t3", type=int, default=1)
_cmd.add_argument("--l1", type=int, default=2)
_cmd.add_argument("--l2", type=int, default=2)
_cmd.add_argument("--l3", type=int, default=2)
_cmd.add_argument("--spine", type=int, default=2)
_cmd.add_argument("--legs", default="", help='per spine vertex, e.g. "1;2,1;"')
_cmd.add_argument(
    "--k", type=int, help="creature paths (default 3); cycle-lci points (default 4)"
)
_cmd.add_argument("--t", type=int, default=1)
_cmd.add_argument("--spacing", type=int, default=2)
_cmd.add_argument("--size", type=int, default=1)
_cmd.add_argument("--kind", default="trivial_single_edge")
_cmd.add_argument("-o", "--output", required=True)
_cmd.add_argument("--witness")

_cmd = _sub.add_parser("detect", help="exact induced pattern detection")
_cmd.add_argument("--pattern", required=True, choices=list(DETECTORS))
_cmd.add_argument("--pattern-file")
_cmd.add_argument("--t", type=int, default=2)
_cmd.add_argument("--t1", type=int, default=1)
_cmd.add_argument("--t2", type=int, default=1)
_cmd.add_argument("--t3", type=int, default=1)
_cmd.add_argument("--k", type=int, default=3)
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("-o", "--output")

_cmd = _sub.add_parser("tw", help="exact treewidth or certified bounds")
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("-o", "--output")
_cmd.add_argument("--td", help="write the witness decomposition (.td)")

_cmd = _sub.add_parser("sep", help="exact separation number")
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("--c", help="balance parameter (config key c)")
_cmd.add_argument("-o", "--output")

_cmd = _sub.add_parser("centralbag", help="run the central-bag pipeline")
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("--pattern", required=True, help="pattern graph file")
_cmd.add_argument("--forcer", action="append", help="forcer graph file; repeatable")
_cmd.add_argument("--weights", help='vertex weights JSON {"0": "1/7", ...}')
_cmd.add_argument("--c", help="balance parameter (config key c)")
_cmd.add_argument("--d", type=int, help="separator size bound (config key d)")
_cmd.add_argument("-o", "--output")

_cmd = _sub.add_parser("decompose", help="constructive tree decompositions")
_cmd.add_argument("--method", required=True, choices=["chordal", "lci", "strip"])
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("--td", help="write the decomposition (.td)")
_cmd.add_argument("-o", "--output")

_cmd = _sub.add_parser("verify", help="run a named verification battery")
_cmd.add_argument("suite", help='a suite name, or "all"')
_cmd.add_argument("-o", "--output")
_cmd.add_argument("--c", help="balance parameter (config key c)")

_cmd = _sub.add_parser("recheck", help="re-validate a certificate from witnesses")
_cmd.add_argument("-i", "--input", required=True)
_cmd.add_argument("-o", "--output")
del _sub, _cmd


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    c = getattr(args, "c", None)
    try:
        cfg = load_config(
            args.config,
            seed=args.seed,
            c=None if c is None else parse_fraction(c),
            d=getattr(args, "d", None),
        )
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        try:
            return COMMANDS[args.command](args, cfg)
        except (BudgetExhausted, CapExceeded) as exc:
            _dump_json({"status": "budget", "detail": str(exc)}, args.output)
            return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"file error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
