"""The committed code-size table: the AST statement count of each function,
class and method in src/maibaam_lint/, and of each module.

    python tests/size.py             # check the table
    python tests/size.py --update    # rewrite the table

tests/size.tsv holds, for each module in file name order: one row per
top-level function and class and per method, in source order, with its
qualified name; a "<module>" row for the statements outside them; and a
"<total>" row. A statement is an ast.stmt node other than a docstring, and
it counts in exactly one row: a function's row holds its def and
everything nested in it, a class's row its class statement and the body
statements that are not methods. So a module's rows sum to its total.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "maibaam_lint"
TABLE = TESTS / "size.tsv"

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _count(nodes) -> int:
    """The statements in nodes and everything nested in them."""
    return sum(isinstance(n, ast.stmt) for node in nodes
               for n in ast.walk(node))


def _module_rows(path: Path) -> list[tuple[str, str, int]]:
    """The rows of one module: (module, name, statements)."""
    module = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for scope in ast.walk(tree):
        if isinstance(scope, _SCOPES) and ast.get_docstring(scope) is not None:
            del scope.body[0]
    rows = []
    rest = []  # the statements outside every function and class
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, _FUNCTIONS)]
            rows.append((module, node.name, 1 + _count(
                m for m in node.body if m not in methods)))
            rows.extend((module, f"{node.name}.{m.name}", _count([m]))
                        for m in methods)
        elif isinstance(node, _FUNCTIONS):
            rows.append((module, node.name, _count([node])))
        else:
            rest.append(node)
    rows.append((module, "<module>", _count(rest)))
    rows.append((module, "<total>", _count(tree.body)))
    return rows


def rows() -> list[tuple[str, str, int]]:
    """Every row of the table, for the tree as it is."""
    return [row for path in sorted(SOURCE.glob("*.py"))
            for row in _module_rows(path)]


def _text(table: list[tuple[str, str, int]]) -> str:
    return ("# module\tname\tstatements (tests/size.py writes this file)\n"
            + "".join(f"{module}\t{name}\t{n}\n"
                      for module, name, n in table))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the table instead of checking it")
    args = parser.parse_args(argv)
    text = _text(rows())
    if args.update:
        TABLE.write_text(text, encoding="utf-8")
        print(f"wrote {TABLE}")
        return 0
    if TABLE.read_text(encoding="utf-8") != text:
        print(f"{TABLE} does not match the tree; rewrite it with --update")
        return 1
    print(f"{TABLE} matches the tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
