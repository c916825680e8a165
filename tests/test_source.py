"""Checks on the shipped source text itself."""

import ast
from pathlib import Path

import tauberian_lab

FILES = sorted(Path(tauberian_lab.__file__).parent.rglob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def test_the_package_raises_instead_of_asserting():
    # python -O strips assert statements, so an invariant must raise a typed error
    assert len(FILES) > 1
    asserts = [f"{path.name}:{node.lineno}" for path in FILES
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_every_imported_name_is_used():
    # the tests too, so a name whose code is deleted cannot linger in an import
    assert len(TEST_FILES) > 1
    unused = []
    for path in FILES + TEST_FILES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    # `import a.b` binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_lru_cache_has_an_integer_maxsize():
    # a cached index table keyed by (N, d) must not grow without bound
    unbounded = []
    for path in FILES:
        tree = ast.parse(path.read_text(), str(path))
        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and \
                        type(sizes[0].value) is int:
                    bounded.add(id(node.func))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in ("lru_cache", "cache") and id(node) not in bounded:
                unbounded.append(f"{path.name}:{node.lineno} {name}")
    assert unbounded == []


# the one-place helpers that new code imports instead of copying
SHARED_HELPERS = ("_on_scale", "_level", "_positive", "_fit", "_coalesce", "_remembered")


def test_each_shared_helper_is_defined_once():
    defined = {name: [] for name in SHARED_HELPERS}
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in defined:
                defined[node.name].append(f"{path.name}:{node.lineno}")
    assert {name: len(sites) for name, sites in defined.items()} == \
        dict.fromkeys(SHARED_HELPERS, 1), defined
