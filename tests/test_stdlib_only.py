"""The library keeps no dependencies outside the standard library: every
absolute import in ``src/idealis`` names a standard-library module.  A
cold import loads none of the slow ones it does not need: see
``cold_imports.py``."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "idealis"


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name for name in absolute_imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_walk_sees_every_kind_of_import():
    # a function-local import counts as much as one at the top
    tree = ast.parse("import os, pytest.x\nfrom json import dumps\ndef f():\n    import numpy\n"
                     "from . import space\n")
    assert list(absolute_imports(tree)) == ["os", "pytest.x", "json", "numpy"]


@pytest.mark.parametrize(
    "module", [f"idealis.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
)
def test_a_cold_import_loads_no_slow_module_it_does_not_need(module):
    # a fresh interpreter per module, without the site hook, which may
    # load typing itself
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", str(TESTS / "cold_imports.py"), module],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    if module == "idealis.cli":
        # a handler imports its construction module when it runs
        loaded = {m for m in run.stdout.split() if m.startswith("idealis")}
        assert loaded == {"idealis", "idealis.cli", "idealis.errors", "idealis.space"}
