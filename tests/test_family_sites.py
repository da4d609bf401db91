"""`detect._first_copy` is called in exactly one place: the family layer's
`_find`, which every family search reaches through one `Family`
declaration.  A new witness family is one more declaration, not one more
hand-written member generator passed to `_first_copy`."""

import ast
from pathlib import Path

import twcert


def _call_sites(name: str) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of every call to `name` in
    the package, "<module>" outside any function."""
    sites = []
    for path in sorted(Path(twcert.__path__[0]).glob("*.py")):

        def visit(node: ast.AST, where: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called == name:
                    sites.append((path.stem, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(sites)


def test_first_copy_is_called_only_by_the_family_layer():
    assert _call_sites("_first_copy") == [("detect", "_find")]
