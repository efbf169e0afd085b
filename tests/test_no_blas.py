"""Floats that do not depend on the CPU: no BLAS call outside ``USES_BLAS``.

OpenBLAS picks a kernel per CPU, and its dot products round differently
from one kernel to another; numpy's own reductions do not. An AST guard
finds no BLAS or LAPACK call in any module of the package but those in
``USES_BLAS``, and F0 tracks computed under the default kernel and under
``OPENBLAS_CORETYPE=Prescott``, which runs on any x86-64, are equal to the
last bit.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import f0entrain
from f0entrain import synth

from conftest import PACKAGE_ROOT, render_wavs

# The modules that still make BLAS calls; a module not listed here must make none.
USES_BLAS = {"features.py", "preprocess.py", "stats.py", "synth.py"}
MODULES = sorted(Path(f0entrain.__file__).parent.glob("*.py"))
NUMPY_BLAS = {"dot", "matmul", "einsum", "inner", "linalg"}


def _blas_calls(tree: ast.Module):
    """(line, what) of each ``@`` and each ``np.<name>`` named in NUMPY_BLAS."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in NUMPY_BLAS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield node.lineno, f"np.{node.attr}"


def test_blas_calls_are_found():
    tree = ast.parse("a @ b\nc @= d\nnp.dot(a, b)\nnp.linalg.pinv(a)\nnumpy.einsum('i', a)\n")
    assert sorted(_blas_calls(tree)) == [
        (1, "@"), (2, "@"), (3, "np.dot"), (4, "np.linalg"), (5, "np.einsum"),
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in USES_BLAS], ids=lambda p: p.name
)
def test_no_blas_call(path):
    calls = _blas_calls(ast.parse(path.read_text()))
    found = [f"{path.name}:{line} {what}" for line, what in calls]
    assert not found, "BLAS calls: " + ", ".join(found)


def test_uses_blas_lists_only_modules_with_blas_calls():
    calls = {p.name: list(_blas_calls(ast.parse(p.read_text()))) for p in MODULES}
    stale = sorted(name for name in USES_BLAS if not calls.get(name))
    assert not stale, f"no BLAS call left in {stale}: remove them from USES_BLAS"


def _uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return False
    return "openblas" in str(blas.get("name", "")).lower()


TRACK_DIGESTS = """
import hashlib, sys
from f0entrain.pitch import estimate_f0, read_wav
for path in sys.argv[1:]:
    print(hashlib.sha256(estimate_f0(read_wav(path)).values.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not _uses_openblas(), reason="numpy does not use OpenBLAS")
def test_f0_tracks_do_not_depend_on_the_openblas_kernel(tmp_path):
    synth.gen_corpus(synth.SynthConfig(n_dyads=2, n_utterances=1, noise_eps=0.5, seed=0), tmp_path)
    render_wavs(tmp_path)
    wavs = [str(p) for p in sorted((tmp_path / "wav").glob("*.wav"))]
    digests = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = PACKAGE_ROOT
        res = subprocess.run(
            [sys.executable, "-c", TRACK_DIGESTS, *wavs], capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout.split())
    assert len(digests[0]) == len(wavs)
    assert digests[0] == digests[1]
