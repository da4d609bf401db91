"""Every parameter of the package's functions is read, and every default is
overridden by some caller.

`src/twcert` is parsed with `ast`.  For every named function and method:

- each parameter must be read in the function's body; a nested function or
  lambda that reads it counts.  The first parameter of a method (`self`,
  `cls`) is left out.
- each parameter with a default must be passed something other than that
  default by at least one call in the package.  A value is the default when
  its `ast.dump` equals the default's.  A call through `*args` or `**kwargs`
  counts as passing every parameter it could reach.  A closure-capture
  default (`def clean(g, b=b)`) binds a value, not an option, and is left
  out.

Otherwise the parameter must be on `ALLOWED` with its reason.  Tests and
`perfbench/` are not callers: a value that only they set is a constant in
the function's body.

A call is matched to a function by its name alone (`f(...)`, `x.f(...)`;
`C(...)` for `C.__init__`), whatever it belongs to.  So a default that some
other function of the same name is passed passes this test and is caught
only by review.  A call through a stored reference (`COMMANDS[name](...)`)
matches nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twcert"

DISPATCH = "the signature every `COMMANDS` entry is called with"

# "module.qualname.parameter" -> why it may stay unread or never set
ALLOWED = {
    "cli.main.argv": "the console-script entry point calls main() with no arguments",
    "cli.cmd_gen.cfg": DISPATCH,
    "cli.cmd_recheck.cfg": DISPATCH,
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


def _overridden(call: ast.Call, positional: list[str], offset: int,
                defaults: dict[str, ast.expr]) -> set[str]:
    """The defaulted parameters this call passes a non-default value."""
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return set(defaults)
        if 0 <= i + offset < len(positional):
            name = positional[i + offset]
            if name in defaults and ast.dump(arg) != ast.dump(defaults[name]):
                out.add(name)
    for kw in call.keywords:
        if kw.arg is None:
            return set(defaults)
        if kw.arg in defaults and ast.dump(kw.value) != ast.dump(defaults[kw.arg]):
            out.add(kw.arg)
    return out


def problems(sources: dict[str, str]) -> list[str]:
    """"module.qualname.param: never read" or "...: never set" for every
    parameter of `sources` (module -> code) that breaks the rules above."""
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

            defaults = {
                name: d for name, d in _defaults(fn).items()
                if not (isinstance(d, ast.Name) and d.id == name)
            }
            if not defaults:
                continue
            positional = [p.arg for p in a.posonlyargs + a.args]
            names = {fn.name: True}
            if fn.name == "__init__" and owner is not None:
                names[owner] = False  # `C(...)` passes self implicitly
            set_by_calls: set[str] = set()
            for call in calls:
                name, through_attr = _call_name(call)
                if name not in names:
                    continue
                offset = int(is_method and (through_attr or not names[name]))
                set_by_calls |= _overridden(call, positional, offset, defaults)
            out += [f"{key}.{p}: never set" for p in defaults if p not in set_by_calls]
    return sorted(out)


def test_checker_flags_unread_and_never_set():
    src = (
        "def f(g, unused, size=7, flag=False, *, mode='a'):\n"
        "    return g, size, flag, mode\n"
        "def outer(b):\n"
        "    def clean(g, b=b):\n"
        "        return g and b\n"
        "    return clean(1)\n"
        "class C:\n"
        "    def __init__(self, k=1):\n"
        "        self.k = k\n"
        "    def m(self, x, y=0):\n"
        "        return x + y\n"
        "def use(c):\n"
        "    f(1, 2, 7, flag=True)\n"
        "    f(1, 2, mode='a')\n"
        "    C(2).m(1, 3)\n"
        "    return c.m(4, 0)\n"
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
        "def use(c):\n"
        "    return c.m(5)\n"
    )
    assert problems({"m": src}) == ["m.C.m.y: never set"]


def test_every_parameter_is_read_and_every_default_is_set():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = problems(sources)
    assert [k for k in found if k.split(":")[0] not in ALLOWED] == []
    # an allowlisted parameter that is read and set, or gone, must leave the list
    assert sorted(ALLOWED) == sorted(k.split(":")[0] for k in found if k.split(":")[0] in ALLOWED)
