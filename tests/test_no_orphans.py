"""Every public top-level function and class of the package has a caller,
modules share no private name but the stiffness assembly and the
optimizer's per-restart binding of it, no module but seeding writes out the
count rule, and the package imports nothing outside the standard library
but numpy.

A name counts as used when code of the package other than its own definition
names it (a re-export in __init__ does not count), or when the benchmark's
code names it or holds it as a string literal, since the benchmark's tracer
names its targets as strings.  Docstrings and comments never count: the
modules are read with ast.  The suite_<name> sweeps count as used because
verify dispatches them by name, LIBRARY_ONLY holds the documented API
that nothing in the package calls, and BENCHMARK_ONLY the names that only the
benchmark names.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adconn"

# k4_gap_upper_bound stays without a caller in the package: test_acceptance's
# optimizer-recovery criterion caps 1000 random K_4 witnesses with it, and
# ROADMAP item 15 builds the upper half of a_d(K_{d+1}) = 1 on it.
LIBRARY_ONLY = {"k4_gap_upper_bound"}

# Names that only the benchmark's code names: its tracer and workloads read
# them, nothing in the package calls them.  ROADMAP item 1 (the next change to
# the benchmark) can retire the first three.  symmetric_eigenvalues stays the
# public, checked eigensolve; the package solves only matrices it assembled,
# unchecked.  The four one-label family builders stay as one-row calls of the
# batched builders that the families are built with.
BENCHMARK_ONLY = {
    "top_eigenvalue_sum_check",
    "weighted_length_vector",
    "eigenvector_condition_check",
    "symmetric_eigenvalues",
    "axis_quad_vector",
    "block_sign_vector",
    "sign_split_vector",
    "vertex_shift_vector",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def names_in_code(tree: ast.Module, strings: bool = False) -> set[str]:
    """Identifiers and attribute names the code uses; with strings, also the
    string literals other than docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            out.add(node.value)
    return out


def definitions_and_uses() -> tuple[list[str], set[str], set[str]]:
    """module.name of each public definition in file order, then the names
    that the package's code uses and those that the benchmark's code uses."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    in_package, in_benchmark = set(), set()
    for tree in modules.values():
        in_package |= names_in_code(tree)
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        in_benchmark |= names_in_code(_parse(path), strings=True)
    defined = [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in sorted(public_definitions(tree))
        if not name.startswith("suite_")
    ]
    return defined, in_package, in_benchmark


def unused_definitions() -> list[str]:
    """module.name of each public definition that nothing names, in file order."""
    defined, in_package, in_benchmark = definitions_and_uses()
    return [u for u in defined if u.split(".")[1] not in in_package | in_benchmark]


def test_every_public_name_has_a_caller():
    unused = unused_definitions()
    assert [u for u in unused if u.split(".")[1] not in LIBRARY_ONLY] == []
    # an allow-listed name that gained a caller leaves the list
    assert {u.split(".")[1] for u in unused} >= LIBRARY_ONLY


def test_benchmark_only_names_are_the_listed_ones():
    defined, in_package, in_benchmark = definitions_and_uses()
    names = {u.split(".")[1] for u in defined}
    assert names & in_benchmark - in_package == BENCHMARK_ONLY


def test_docstring_mentions_do_not_count():
    tree = ast.parse('"""mentions helper"""\ndef f():\n    """calls helper"""\n    return 1\n')
    assert "helper" not in names_in_code(tree, strings=True)
    assert {"helper", "f"} <= names_in_code(ast.parse("x = f('helper')\n"), strings=True)


def private_imports() -> set[tuple[str, str, str]]:
    """(importer, module, name) of each private, non-dunder name that a module
    of the package imports from another one."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        out.add((path.stem, node.module, alias.name))
    return out


def test_only_the_stiffness_kernel_crosses_modules():
    # framework owns the one assembly of R R^t from bare points, and the
    # optimizer's per-restart binding of it; a module that reaches past them
    # to the direction or rigidity kernels would build a second
    assert private_imports() == {
        ("bounds", "framework", "_stiffness_geometry"),
        ("optimize", "framework", "_ascent_kernel"),
        ("verify", "framework", "_stiffness_geometry"),
    }


def count_comparisons(tree: ast.Module) -> list[int]:
    """Line of each comparison that puts an as_index(...) call below a bound,
    as_index(v) < least or least > as_index(v) (<= and >= alike): a
    hand-written copy of seeding.as_count."""

    def is_as_index(node) -> bool:
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "as_index" or getattr(node.func, "attr", None) == "as_index"
        )

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if (isinstance(op, (ast.Lt, ast.LtE)) and is_as_index(left)) or (
                    isinstance(op, (ast.Gt, ast.GtE)) and is_as_index(right)
                ):
                    out.append(node.lineno)
    return out


def test_count_comparisons_are_found():
    code = "a = as_index(n, 'n') < 1\nb = 0 <= seeding.as_index(k, 'k') <= 3\nc = 2 > as_index(d, 'd')\n"
    assert count_comparisons(ast.parse(code)) == [1, 2, 3]
    assert count_comparisons(ast.parse("n = as_index(n, 'n')\nok = as_index(k, 'k') > 0 and n < 1\n")) == []


def test_only_seeding_writes_out_the_count_rule():
    # "an integer of at least least" is seeding.as_count; a module that
    # compares an as_index call with a bound itself writes a second copy
    found = {
        (path.stem, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "seeding"
        for line in count_comparisons(_parse(path))
    }
    assert found == set()


def absolute_imports() -> set[tuple[str, str]]:
    """(importer, top-level package) of each absolute import in the package."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                out |= {(path.stem, alias.name.partition(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add((path.stem, node.module.partition(".")[0]))
    return out


def test_package_imports_only_numpy():
    # every module, lazy imports included, so `import adconn` and every
    # command load numpy as their one third-party package
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    imports = absolute_imports()
    assert ("graphs", "numpy") in imports
    assert sorted((stem, top) for stem, top in imports if top not in sys.stdlib_module_names | {"numpy"}) == []
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == ["numpy>=1.24"]
