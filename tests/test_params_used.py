"""Every parameter of the package's functions is read, every default is both
overridden and used by some caller, and no argument is always the same
literal.

`src/twcert` is parsed with `ast`.  For every named function and method:

- each parameter must be read in the function's body; a nested function or
  lambda that reads it counts.  The first parameter of a method (`self`,
  `cls`) is left out.
- each parameter with a default must be passed something other than that
  default by at least one call in the package ("never set").  A value is
  the default when its `ast.dump` equals the default's.  A closure-capture
  default (`def clean(g, b=b)`) binds a value, not an option, and is left
  out of this rule and the next.
- each parameter with a default must be omitted by at least one call in the
  package ("default never used"): a default that every call overrides is a
  value only tests rely on, so the parameter is required.
- a required parameter that every call passes the same literal (anything
  `ast.literal_eval` accepts: `5`, `-1`, `(0, 1)`) is a constant in the
  function's body ("always ...").

A call through `*args` or `**kwargs` counts as passing every value to
every parameter it could reach: it sets and uses every default and varies
every required parameter.

Every field of a dataclass is held to the same three rules, with the
constructor calls `C(...)` as its callers: a field with a default (a value,
`field(default=...)` or `field(default_factory=...)`) must be both passed
and omitted by some construction, and a required field must not be passed
the same literal by every construction.  A field no construction should
pass is `field(init=False)`, which takes it out of these rules.

Otherwise the parameter must be on `ALLOWED` with its reason.  Tests and
`perfbench/` are not callers: a value that only they set is a constant in
the function's body.

A call is matched to a function by its name alone (`f(...)`, `x.f(...)`;
`C(...)` for `C.__init__`), whatever it belongs to.  So a default that some
other function of the same name is passed, or omits, passes this test and
is caught only by review (`set.add`'s calls used to hide
`Certificate.add`'s unused `witness` default).  A call through a stored
reference (`COMMANDS[name](...)`) matches nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

from conftest import last_name

SRC = Path(__file__).resolve().parent.parent / "src" / "twcert"

DISPATCH = "the signature every `COMMANDS` entry is called with"
ORACLE = (
    "reference oracle the `detectors` suite checks the detectors against; it "
    "states the definition for every t, although the suite checks one t"
)

# "module.qualname.parameter" -> why it may break a rule
ALLOWED = {
    "cli.main.argv": "the console-script entry point calls main() with no arguments",
    "cli.cmd_gen.cfg": DISPATCH,
    "cli.cmd_recheck.cfg": DISPATCH,
    "suites.is_theta_set.t": ORACLE,
    "suites.is_pyramid_set.t": ORACLE,
}

Function = ast.FunctionDef | ast.AsyncFunctionDef


def _is_static(fn: Function) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _functions(tree: ast.Module, module: str):
    """(qualname key, function, is_method, class name) for every named
    function, method and nested function."""
    todo: list[tuple[ast.AST, str, bool]] = [(tree, module, False)]
    while todo:
        node, prefix, in_class = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}.{child.name}", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{prefix}.{child.name}"
                owner = prefix.rsplit(".", 1)[-1] if in_class else None
                yield key, child, in_class and not _is_static(child), owner
                todo.append((child, key, False))
            else:
                todo.append((child, prefix, in_class))


def _dataclasses(tree: ast.Module, module: str):
    """("module.Class", class name, init fields in order, defaults) for every
    dataclass; a `field(default_factory=...)` default is its factory."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            last_name(d) == "dataclass" for d in cls.decorator_list
        ):
            continue
        names, defaults = [], {}
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                continue
            if last_name(node.annotation) == "ClassVar":
                continue
            value = node.value
            if isinstance(value, ast.Call) and last_name(value) == "field":
                kw = {k.arg: k.value for k in value.keywords}
                init = kw.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                value = kw.get("default", kw.get("default_factory"))
            names.append(node.target.id)
            if value is not None:
                defaults[node.target.id] = value
        yield f"{module}.{cls.name}", cls.name, names, defaults


def _defaults(fn: Function) -> dict[str, ast.expr]:
    """Parameter name -> default expression, for every defaulted parameter."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = dict(zip([p.arg for p in positional[len(positional) - len(a.defaults):]], a.defaults))
    out.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def _reads(fn: Function) -> set[str]:
    return {
        n.id
        for stmt in fn.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def _call_name(call: ast.Call) -> tuple[str, bool]:
    """The called name and whether it was reached through an attribute."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr, True
    return (call.func.id, False) if isinstance(call.func, ast.Name) else ("", False)


def _passed(call: ast.Call, positional: list[str], offset: int) -> dict[str, ast.expr] | None:
    """Parameter -> the expression this call passes it, or None for a call
    through `*args` or `**kwargs`."""
    out = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if 0 <= i + offset < len(positional):
            out[positional[i + offset]] = arg
    for kw in call.keywords:
        if kw.arg is None:
            return None
        out[kw.arg] = kw.value
    return out


def _literal(node: ast.expr) -> str | None:
    """The source of a literal argument (`5`, `-1`, `'a'`, `None`, `(0, 1)`),
    else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def _judge(key: str, required: list[str], defaults: dict[str, ast.expr],
           passes: list[dict[str, ast.expr] | None]) -> list[str]:
    """The rule breaches of one signature, given what each call passes."""
    out = []
    for p, default in defaults.items():
        if not any(c is None or (p in c and ast.dump(c[p]) != ast.dump(default)) for c in passes):
            out.append(f"{key}.{p}: never set")
        if not any(c is None or p not in c for c in passes):
            out.append(f"{key}.{p}: default never used")
    for p in required:
        values = {_literal(c[p]) if c is not None and p in c else None for c in passes}
        if len(values) == 1 and None not in values:
            out.append(f"{key}.{p}: always {values.pop()}")
    return out


def problems(sources: dict[str, str]) -> list[str]:
    """"module.qualname.param: <breach>" for every parameter and dataclass
    field of `sources` (module -> code) that breaks the rules above."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    out = []
    for module, tree in trees.items():
        for key, fn, is_method, owner in _functions(tree, module):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if is_method:
                params = params[1:]
            reads = _reads(fn)
            out += [f"{key}.{p}: never read" for p in params if p not in reads]

            all_defaults = _defaults(fn)
            defaults = {
                name: d for name, d in all_defaults.items()
                if not (isinstance(d, ast.Name) and d.id == name)
            }
            positional = [p.arg for p in a.posonlyargs + a.args]
            required = [
                p for p in positional[int(is_method):] + [k.arg for k in a.kwonlyargs]
                if p not in all_defaults
            ]
            names = {fn.name: True}
            if fn.name == "__init__" and owner is not None:
                names[owner] = False  # `C(...)` passes self implicitly
            passes = []
            for call in calls:
                name, through_attr = _call_name(call)
                if name in names:
                    offset = int(is_method and (through_attr or not names[name]))
                    passes.append(_passed(call, positional, offset))
            out += _judge(key, required, defaults, passes)
        for key, name, fields, defaults in _dataclasses(tree, module):
            passes = [_passed(c, fields, 0) for c in calls if _call_name(c)[0] == name]
            required = [f for f in fields if f not in defaults]
            out += _judge(key, required, defaults, passes)
    return sorted(out)


def test_checker_flags_unread_and_never_set():
    src = (
        "def f(g, unused, size=7, flag=False, *, mode='a'):\n"
        "    return g, size, flag, mode\n"
        "def outer(b):\n"
        "    def clean(g, b=b):\n"
        "        return g and b\n"
        "    return clean(b)\n"
        "class C:\n"
        "    def __init__(self, k=1):\n"
        "        self.k = k\n"
        "    def m(self, x, y=0):\n"
        "        return x + y\n"
        "def use(c, g):\n"
        "    f(g, 2, 7, flag=True)\n"
        "    f(g, g, mode='a')\n"
        "    C(2).m(1, 3)\n"
        "    C()\n"
        "    outer(g)\n"
        "    return c.m(4)\n"
    )
    assert problems({"m": src}) == [
        "m.f.mode: never set",
        "m.f.size: never set",
        "m.f.unused: never read",
    ]


def test_checker_counts_a_method_call_with_self_offset():
    src = (
        "class C:\n"
        "    def m(self, x, y=0):\n"
        "        return x + y\n"
        "def use(c, v):\n"
        "    return c.m(v)\n"
    )
    assert problems({"m": src}) == ["m.C.m.y: never set"]


def test_checker_flags_a_default_every_call_overrides():
    src = (
        "def f(g, cap=14, *, seed=None):\n"
        "    return g, cap, seed\n"
        "def use(g, k):\n"
        "    f(g, 10, seed=k)\n"
        "    f(g, cap=k, seed=k + 1)\n"
        "def h(g, budget=None):\n"
        "    return g, budget\n"
        "def use_h(g):\n"
        "    h(g, g)\n"
        "    h(g, None)\n"
    )
    assert problems({"m": src}) == [
        "m.f.cap: default never used",
        "m.f.seed: default never used",
        "m.h.budget: default never used",
    ]


def test_checker_flags_an_argument_always_the_same_literal():
    src = (
        "def f(g, k, d, *, start):\n"
        "    return g, k, d, start\n"
        "def varies(x, y):\n"
        "    return x, y\n"
        "class C:\n"
        "    def m(self, x, r):\n"
        "        return x, r\n"
        "def use(g, c, k):\n"
        "    f(g, 5, -1, start=(0, 'a'))\n"
        "    f(k, 5, -1, start=(0, 'a'))\n"
        "    varies(1, 2)\n"
        "    varies(1, k)\n"
        "    varies(**g)\n"
        "    c.m(g, 1)\n"
        "    return c.m(k, 1)\n"
    )
    assert problems({"m": src}) == [
        "m.C.m.r: always 1",
        "m.f.d: always -1",
        "m.f.k: always 5",
        "m.f.start: always (0, 'a')",
    ]


def test_checker_holds_dataclass_fields_to_the_rules():
    src = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    ok: bool\n"
        "    kind: str\n"
        "    notes: tuple = ()\n"
        "    legs: tuple = field(default_factory=tuple)\n"
        "    extra: dict = field(default_factory=dict)\n"
        "    log: list = field(init=False, default_factory=list)\n"
        "    limit: int = 3\n"
        "def use(x, y):\n"
        "    R(x, 'a', legs=(1,), limit=y)\n"
        "    return R(y, 'a', x, (2,))\n"
    )
    assert problems({"m": src}) == [
        "m.R.extra: never set",
        "m.R.kind: always 'a'",
        "m.R.legs: default never used",
    ]


def test_every_parameter_is_read_and_every_default_is_set():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = problems(sources)
    assert [k for k in found if k.split(":")[0] not in ALLOWED] == []
    # an allowlisted parameter that is read and set, or gone, must leave the list
    assert sorted(ALLOWED) == sorted(k.split(":")[0] for k in found if k.split(":")[0] in ALLOWED)
