"""The CLI reads no file itself: every input goes through ``ingest``.

``ingest`` alone decides how bytes become text, JSON or CSV rows and how a
bad file is reported, so ``cli.py`` imports no parsing module and calls
no file reader.
"""

import ast
from pathlib import Path

import f0entrain

CLI = Path(f0entrain.__file__).parent / "cli.py"

PARSING_MODULES = {"csv", "json"}
READERS = {"open", "read_text", "read_bytes", "loads", "load"}


def test_cli_reads_no_file_itself():
    tree = ast.parse(CLI.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in READERS:
                found.append(f"line {node.lineno}: calls {name}")
            continue
        else:
            continue
        found += [
            f"line {node.lineno}: imports {module}"
            for module in modules
            if module.split(".")[0] in PARSING_MODULES
        ]
    assert not found, "cli.py reads files itself: " + "; ".join(found)
