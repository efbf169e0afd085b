"""Every library function, class and method is used by the library itself.

A name that only tests call is code the tool never runs: it is deleted,
and the test moves to the function that carries the property.
"""

import ast
from pathlib import Path

import f0entrain

PACKAGE = Path(f0entrain.__file__).parent

# name -> why it stays although no library code refers to it
KEPT = {
    "word_features": "the per-word feature API that the acceptance tests call on one word",
    "write_wav": "writes the WAV fixtures that the pitch tests read back with read_wav",
}


def _definitions(tree: ast.Module):
    """(name, line) of each top-level function and class and of each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def test_every_library_name_is_referenced_in_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    defined = [
        (module, name, line) for module, tree in trees.items() for name, line in _definitions(tree)
    ]
    assert set(KEPT) <= {name for _, name, _ in defined}, "an exempt name no longer exists"
    unused = [
        f"{module}:{line} {name}"
        for module, name, line in defined
        if name not in referenced
        and name not in KEPT
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "referenced by no library code: " + ", ".join(unused)
