"""Checks on the library source itself."""

import ast
import doctest
import importlib
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
