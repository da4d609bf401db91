"""Every field and property of the package's result records is read.

`src/twcert` is parsed with `ast`.  A dataclass field (not an `InitVar` or
`ClassVar`) or a `@property` must have its name read somewhere in the
package: as an attribute load (`x.name`) or as the string constant of a
`getattr(x, "name")` call.  Otherwise it must be on `ALLOWED` with its
reason.  A record should hold what its readers consume and nothing else.

The match is by name alone: a field is counted as read when any attribute
of that name is read, whatever object it belongs to.  So an unread field
whose name collides with an attribute read elsewhere (`c`, `pattern`,
`joints`, `tw`, `sep`, `reason` or `result`, say) passes this test and is
caught only by review.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twcert"

TRACED = "wrapped by perfbench/tracing.py, which the benchmark installs"
RESERVED = "reserved for a re-checkable forcer record (ROADMAP item 8)"

# "module.Class.name" -> why it may stay although no package code reads it
ALLOWED = {
    "weights.WeightFunction.w_max": TRACED,
    "detect.ForcerReport.counterexample": RESERVED,
}


def _name(node: ast.expr) -> str:
    """The last name of a decorator or annotation: `dataclass` for
    `@dataclasses.dataclass(frozen=True)`, `InitVar` for `InitVar[int]`."""
    if isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def declared(tree: ast.Module, module: str) -> dict[str, str]:
    """"module.Class.name" -> name for every dataclass field and property."""
    out = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = any(_name(d) == "dataclass" for d in cls.decorator_list)
        for node in cls.body:
            if (
                is_dataclass
                and isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and _name(node.annotation) not in ("InitVar", "ClassVar")
            ):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef) and any(
                _name(d) == "property" for d in node.decorator_list
            ):
                name = node.name
            else:
                continue
            out[f"{module}.{cls.name}.{name}"] = name
    return out


def read_names(tree: ast.Module) -> set[str]:
    """Attribute names loaded, plus the string names passed to `getattr`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            out.add(node.args[1].value)
    return out


def unread(sources: dict[str, str]) -> list[str]:
    """The fields and properties of `sources` (module -> code) no code reads."""
    fields: dict[str, str] = {}
    reads: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        fields.update(declared(tree, module))
        reads |= read_names(tree)
    return sorted(key for key, name in fields.items() if name not in reads)


def test_checker_flags_unread_and_accepts_read():
    src = (
        "from dataclasses import InitVar, dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "    by_name: int\n"
        "    masks: InitVar[int] = 0\n"
        "    count: ClassVar[int] = 0\n"
        "    @property\n"
        "    def shown(self): return self.kept\n"
        "    @property\n"
        "    def hidden(self): return 0\n"
        "class Plain:\n"
        "    untyped: int = 0\n"
        "def use(r): return r.shown, getattr(r, 'by_name')\n"
    )
    assert unread({"m": src}) == ["m.R.dropped", "m.R.hidden"]


def test_every_field_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = unread(sources)
    assert [k for k in found if k not in ALLOWED] == []
    # an allowlisted name that is read, or gone, must leave the list
    assert sorted(ALLOWED) == [k for k in found if k in ALLOWED]
