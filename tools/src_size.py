"""Print the size of the package source: its line count and its AST node
count, every module, class and function docstring blanked.

The line count is that of the files as they stand.  The node count is
taken after each docstring's text is emptied, so a docstring weighs one
node whatever it says, and the figure measures code.

Run from the repository root:

    python tools/src_size.py [package-dir]

The default package directory is src/groupgeo next to this script.
"""

import ast
import os
import sys

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def blank_docstrings(tree: ast.AST) -> ast.AST:
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                first.value.value = ""
    return tree


def source_size(package: str) -> tuple[int, int]:
    """(lines, AST nodes) summed over the package's .py files."""
    lines = nodes = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            lines += len(text.splitlines())
            nodes += sum(1 for _ in ast.walk(blank_docstrings(ast.parse(text))))
    return lines, nodes


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[0] if argv else os.path.join(here, os.pardir, "src", "groupgeo")
    lines, nodes = source_size(package)
    print(f"lines {lines}")
    print(f"ast_nodes {nodes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
