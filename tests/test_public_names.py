"""Every public name of the package serves the program, not only its tests.

A name a module lists in ``__all__`` must be read somewhere in
``src/conet`` other than where it is defined, or be re-exported by the
package. The same holds for the public methods of the package's classes.
Helpers that only tests call belong in ``tests/``.
"""

import ast
import importlib
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


def _overrides(cls, name):
    return any(name in vars(base) for base in cls.__mro__[1:])


def _modules_and_attributes_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return trees, read


def test_every_public_method_is_read_by_the_package():
    # A public method of a class in src/conet is read as an attribute
    # somewhere in the package; overrides of a base class's method (such
    # as an argument parser's ``error``) are called by that base.
    trees, read = _modules_and_attributes_read()
    unread = []
    for module, tree in trees.items():
        namespace = vars(importlib.import_module(f"conet.{module}"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            unread += [f"{module}:{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                       and item.name not in read
                       and not _overrides(namespace[node.name], item.name)]
    assert not unread, f"public methods only tests use: {unread}"


def test_every_assigned_attribute_is_read_by_the_package():
    # State a class keeps on ``self`` is read somewhere in src/conet;
    # state that only tests read belongs in the tests.
    trees, read = _modules_and_attributes_read()
    unread = sorted({f"{module}:{cls.name}.{node.attr}"
                     for module, tree in trees.items()
                     for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self"
                     and node.attr not in read})
    assert not unread, f"attributes only tests read: {unread}"
