"""`detect._first_copy` is called in exactly one place: the family layer's
`_find`, which every family search reaches through one `Family`
declaration.  A new witness family is one more declaration, not one more
hand-written member generator passed to `_first_copy`.

`detect` has one search loop, `_grow`: the family search runs it below its
trie and `iter_induced_maps` from an empty one, and only `_grow` builds the
candidate filter.  A second loop over the filter would be a second budget
rule.  The creature search is one pattern search too: its k paths are the
maps of k disjoint paths, each joint above the one before it, and only a
body is looked for around each map.  The brute-force creature oracle lists
its paths as the maps of one path.

Every budget charge is one of a few `tick` calls, listed here, so a change
of the step unit knows every site it has to touch."""

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


def test_one_search_loop():
    assert _call_sites("_filter") == [("detect", "_grow")]
    assert _call_sites("_grow") == [
        ("detect", "_first_copy"),
        ("detect", "iter_induced_maps"),
    ]
    assert _call_sites("iter_induced_maps") == [
        ("detect", "_engine_match"),
        ("detect", "find_creature"),
        ("detect", "induced_copies"),
        ("suites", "creature_exists_bruteforce"),
    ]


def test_budget_charge_sites():
    # the search loop (before each yield, at its end, at exhaustion), each
    # member a family offers, and each subset `sep` tests
    assert _call_sites("tick") == [
        ("detect", "_first_copy"),
        ("detect", "_grow"),
        ("detect", "_grow"),
        ("detect", "_grow"),
        ("separators", "balances"),
    ]
