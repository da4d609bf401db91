"""`CapExceeded` is raised in exactly two places: by `exact_treewidth`, for
a caller that asks for a cap, and by the n = 12 transfer cap of
`no_small_separator`.  Every other search stops at its budget alone, so an
exit 2 from `detect` or `sep` always means that a budget ran out."""

import ast
from pathlib import Path

import twcert


def _raise_sites() -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of every `raise CapExceeded`
    in the package, "<module>" outside any function."""
    sites = []
    for path in sorted(Path(twcert.__path__[0]).glob("*.py")):

        def visit(node: ast.AST, where: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name == "CapExceeded":
                    sites.append((path.stem, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(sites)


def test_cap_exceeded_is_raised_only_by_the_two_caps():
    assert _raise_sites() == [
        ("centralbag", "no_small_separator"),
        ("separators", "exact_treewidth"),
    ]
