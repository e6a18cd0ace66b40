"""The library keeps no dependencies outside the standard library: every
absolute import in ``src/idealis`` names a standard-library module."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "idealis"


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
