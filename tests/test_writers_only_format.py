"""Every result is computed before any output byte is written.

``pipeline.run_stages`` computes what the requested bundle files hold, so
a run that fails leaves no partial bundle. The writers (the
``pipeline.write_*`` functions and the ``BUNDLE`` entries, with every
pipeline function they refer to) only format: they call nothing in
``stats`` or ``entrain``, nor ``corpus_checksum`` or
``partner_other_ttests``. The CLI writes its tables through
``pipeline.write_table``, never with ``sys.stdout.write``.
"""

import ast
from pathlib import Path

import f0entrain

PACKAGE = Path(f0entrain.__file__).parent

COMPUTING_MODULES = {"stats", "entrain"}
COMPUTING_FUNCTIONS = {"corpus_checksum", "partner_other_ttests"}


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = func.value
        prefix = owner.id if isinstance(owner, ast.Name) else ast.unparse(owner)
        return f"{prefix}.{func.attr}"
    return getattr(func, "id", "")


def test_bundle_writers_compute_nothing():
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    imported = {  # names taken straight from a computing module
        alias.asname or alias.name
        for n in tree.body
        if isinstance(n, ast.ImportFrom)
        and (n.module or "").split(".")[-1] in COMPUTING_MODULES
        for alias in n.names
    }
    bundle = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "BUNDLE" for t in n.targets)
    )
    todo = [("BUNDLE", bundle)]
    todo += [(name, d) for name, d in defs.items() if name.startswith("write_")]
    seen = {name for name, _ in todo}
    found = []
    while todo:
        where, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in defs and sub.id not in seen:
                seen.add(sub.id)
                todo.append((sub.id, defs[sub.id]))
            if not isinstance(sub, ast.Call):
                continue
            name = _called_name(sub)
            if (
                name.split(".")[0] in COMPUTING_MODULES
                or name.split(".")[-1] in COMPUTING_FUNCTIONS
                or name in imported
            ):
                found.append(f"{where} (line {sub.lineno}) calls {name}")
    assert not found, "bundle writers compute results: " + "; ".join(found)


def test_cli_writes_no_table_itself():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "sys.stdout.write"
    ]
    assert not found, "cli.py calls sys.stdout.write: " + ", ".join(found)
