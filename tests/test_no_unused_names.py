"""Every top-level name in ``src/idealis``, public or private, has a caller
in the library: each function, class and constant a module defines is
referenced somewhere in the package outside its own definition.  A name
that only its own unit tests call, or a private helper nothing calls any
more, is dead weight.  ``__init__.py`` is left out, and methods are out of
scope."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "idealis"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def definitions(tree):
    """(name, node) for each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names)


def references(tree, skip=None):
    """Names read in `tree` outside the node `skip`: bare names, attributes
    and string constants (``cli`` names parameter classes by string)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


def unused_names(trees):
    """The top-level names of `trees` (module name -> tree) that nothing in
    them references outside their own definitions."""
    everywhere = {module: set(references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            seen = set(references(tree, skip=node))
            seen.update(*(refs for other, refs in everywhere.items() if other != module))
            if name not in seen:
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    assert unused_names(trees) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        # a definition that refers only to itself is unused
        ("def f():\n    return f()\n", ["m.f"]),
        ("class C:\n    def g(self):\n        return C\n", ["m.C"]),
        ("X = 1\n", ["m.X"]),
        # a private name counts too; methods are out of scope
        ("def _f():\n    pass\nclass C:\n    def unused(self):\n        pass\nC\n", ["m._f"]),
        # a call, an attribute, an annotation or a string counts as a use
        ("def f():\n    pass\ndef g():\n    f()\ng\n", []),
        ("X = 1\nimport m\nm.X\n", []),
        ("T = int\ndef f(a: T):\n    pass\nf\n", []),
        ("class C:\n    pass\nTABLE = {'c': 'C'}\nTABLE\n", []),
    ],
)
def test_the_guard_sees_each_kind_of_use(source, unused):
    assert unused_names({"m": ast.parse(source)}) == unused
