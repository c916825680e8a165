"""Checks on the shipped source text itself."""

import ast
from pathlib import Path

import tauberian_lab


def test_the_package_raises_instead_of_asserting():
    # python -O strips assert statements, so an invariant must raise a typed error
    files = sorted(Path(tauberian_lab.__file__).parent.rglob("*.py"))
    assert len(files) > 1
    asserts = [f"{path.name}:{node.lineno}" for path in files
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
