"""A run hashes its inputs without loading OpenSSL.

``hashlib`` loads OpenSSL's libcrypto (the ``_hashlib`` module), about
3.5 MB of a run's peak RSS. ``ingest.sha256`` is CPython's built-in
SHA-256 instead, and it must give the same digests, so no corpus
checksum changes. The child-process checks run in a fresh interpreter,
since pytest and hypothesis import ``hashlib`` themselves. ``synth``
draws from ``numpy.random``, which loads OpenSSL on its own import, so
its check only shows that f0entrain adds no import of its own.
"""

import ast
import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import f0entrain
from f0entrain import ingest

from conftest import PACKAGE_ROOT

BUILT_IN = any(importlib.util.find_spec(name) is not None for name in ("_sha2", "_sha256"))

LOADS_OPENSSL = """
import sys
if sys.argv[1] == "synth":
    # numpy.random imports hashlib itself (secrets imports hmac); forget it,
    # so that only an import by f0entrain shows
    import numpy.random
    for name in ("hashlib", "_hashlib"):
        sys.modules.pop(name, None)
from f0entrain.cli import main
code = main(sys.argv[1:])
print(code, "_hashlib" in sys.modules)
"""


def test_only_ingest_falls_back_to_hashlib():
    imports = [
        (path.name, node.lineno)
        for path in sorted(Path(f0entrain.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "hashlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "hashlib"
    ]
    assert [name for name, _ in imports] == ["ingest.py"]
    lines = Path(ingest.__file__).read_text().splitlines()
    assert lines[imports[0][1] - 2].strip() == "except ImportError:"


def _cli_loads_openssl(*args) -> bool:
    res = subprocess.run(
        [sys.executable, "-c", LOADS_OPENSSL, *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert res.returncode == 0, res.stderr
    code, loaded = res.stdout.splitlines()[-1].split()
    assert code == "0", res.stderr
    return loaded == "True"


@pytest.mark.skipif(not BUILT_IN, reason="this Python has no built-in SHA-256 module")
def test_synth_and_run_do_not_load_openssl(tmp_path):
    corpus = tmp_path / "corpus"
    assert not _cli_loads_openssl(
        "synth", "--dyads", 4, "--utts", 2, "--eps", 0.5, "--out", corpus, "--scores-coupling", 0.5
    )
    assert not _cli_loads_openssl(
        "run", "--manifest", corpus / "manifest.json", "--scores", corpus / "scores.csv",
        "--out", tmp_path / "report",
    )
    assert (tmp_path / "report" / "run.json").exists()


@pytest.mark.parametrize("size", [0, 1, 64 * 1024 + 1, 1024 * 1024])
def test_sha256_equals_hashlib(size):
    data = random.Random(size).randbytes(size)
    assert ingest.sha256(data).digest() == hashlib.sha256(data).digest()
    # and fed in pieces of uneven sizes
    pieces, start = ingest.sha256(), 0
    for step in (1, 63, 64, 65, 4096, size):
        pieces.update(data[start:start + step])
        start += step
    assert start >= size
    assert pieces.hexdigest() == hashlib.sha256(data).hexdigest()
