"""Every library function, class and method is used by the library itself,
and every field of a result type is read.

A name that only tests call is code the tool never runs: it is deleted,
and the test moves to the function that carries the property. A field of
a dataclass or NamedTuple in the computing modules must be read as an
attribute by the library or by the benchmark's tracer, which counts
``OutlierResult``'s fields; this test only reads the tracer.
"""

import ast
from pathlib import Path

import f0entrain

PACKAGE = Path(f0entrain.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RESULT_MODULES = ("stats.py", "entrain.py", "preprocess.py", "features.py")

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
    unused = [
        f"{module}:{line} {name}"
        for module, name, line in defined
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "referenced by no library code: " + ", ".join(unused)


def _fields(tree: ast.Module):
    """(class, field, line) of each field of a top-level dataclass or NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {ast.unparse(d).split("(")[0] for d in node.decorator_list}
        if "dataclass" in decorators or "NamedTuple" in map(ast.unparse, node.bases):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def test_every_result_field_is_read():
    sources = [*sorted(PACKAGE.glob("*.py")), TRACER]
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}:{line} {cls}.{name}"
        for module in RESULT_MODULES
        for cls, name, line in _fields(ast.parse((PACKAGE / module).read_text()))
        if name not in read
    ]
    assert not unread, "read by no library code: " + ", ".join(unread)
