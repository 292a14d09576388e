"""Print the size of each module of ``src/adconn`` and of the package: its
physical lines and its AST statements, docstrings excluded.  A statement
count does not move when code is reformatted or comments are deleted, so a
claim of fewer lines can be checked against it:

    python3 tools/loc.py

Run from any directory; it reads the ``src/adconn`` of its own checkout.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adconn"


def statements(tree: ast.Module) -> int:
    """The statements of a module at every depth, less the docstrings of the
    module, its classes and its functions."""
    count = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            count -= ast.get_docstring(node, clean=False) is not None
    return count


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, len(text.splitlines()), statements(ast.parse(text))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>8}{'statements':>12}")
    for name, lines, stmts in rows:
        print(f"{name:<16}{lines:>8}{stmts:>12}")


if __name__ == "__main__":
    main()
