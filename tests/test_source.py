"""Checks on the library source itself."""

import ast
import doctest
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ksing

SOURCE = Path(ksing.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 5
    assert found == []


def test_docstring_examples_pass():
    results = [
        doctest.testmod(importlib.import_module(f"ksing.{path.stem}"))
        for path in sorted(SOURCE.glob("*.py"))
        if path.stem != "__init__"
    ] + [doctest.testmod(ksing)]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 5


def test_all_names_resolve_once_in_sorted_order():
    names = ksing.__all__
    assert [name for name in names if not hasattr(ksing, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; numpy and hypothesis serve
    # the tests only.
    imported = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name.partition(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.partition(".")[0]))
    assert {"argparse", "math"} <= {top for _, top in imported}
    assert sorted(i for i in imported if i[1] not in sys.stdlib_module_names) == []


def test_library_has_no_rational_or_decimal_arithmetic():
    # linalg promises exact integer work with no floating point; the
    # Pfaffian and the determinant divide exactly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(
            a.name.partition(".")[0] in ("fractions", "decimal") for a in node.names
        )
        or isinstance(node, ast.ImportFrom) and node.module in ("fractions", "decimal")
    ]
    assert found == []


def test_unchecked_rows_are_wrapped_only_inside_linalg():
    # ``linalg._unchecked`` skips the entry checks, so every row it wraps
    # must be built from checked matrices within that module.
    roots = [SOURCE, Path(__file__).resolve().parent, SOURCE.parents[1] / "perfbench"]
    users = {
        path.name
        for root in roots
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_unchecked"
        or isinstance(node, ast.Attribute) and node.attr == "_unchecked"
        or isinstance(node, ast.alias) and node.name == "_unchecked"
    }
    assert users == {"linalg.py"}


def test_cartan_matrix_and_its_inverse_record_their_first_column():
    # unipotent_inverse and theorem_matrix refuse a matrix without a
    # recorded column; with it, each solves one column and builds no row
    # of C or C^-1.
    c = ksing.cartan_matrix([1, 1, 3, 3])
    inverse = ksing.unipotent_inverse(c)
    assert c.first_column == (1, 1, 3, 3)
    assert inverse.first_column == (1, -1, -2, 2)
    assert inverse.entries[3] == (2, -2, -1, 1)


def _loaded_by_import(module: str, imports: str = "ksing, ksing.cli") -> str:
    """What ``module in sys.modules`` prints after ``import <imports>``."""
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.strip()


def test_cli_import_leaves_multiprocessing_out():
    # The sweep imports multiprocessing only for --jobs > 1; at import it
    # is most of what ``import ksing.cli`` costs.
    assert _loaded_by_import("multiprocessing") == "False"


def test_import_leaves_dataclasses_out():
    # A frozen dataclass generates and compiles its methods at every import,
    # about 1 ms a class; the result types are named tuples instead.
    assert _loaded_by_import("dataclasses") == "False"


def test_import_leaves_json_out():
    # Only the quiver's JSON export and import need json; ksing.cli loads
    # it for its own output.
    assert _loaded_by_import("json", "ksing") == "False"
