"""Every public name of the package serves the program, not only its tests.

A name a module lists in ``__all__`` must be read somewhere in
``src/conet`` other than where it is defined, or be re-exported by the
package. Helpers that only tests call belong in ``tests/``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conet"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reexported = set(_exported(trees["__init__.py"]))
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unused = [f"{module}:{name}" for module, tree in trees.items() if module != "__init__.py"
              for name in _exported(tree) if name not in read and name not in reexported]
    assert not unused, f"public names only tests use: {unused}"
