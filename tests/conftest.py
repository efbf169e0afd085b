import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import f0entrain
from f0entrain.types import F0Track

# the directory that holds the f0entrain package this process imported
PACKAGE_ROOT = str(Path(f0entrain.__file__).resolve().parents[1])


def run_cli(*args, cwd=None, env_extra=None):
    """Run ``python -m f0entrain.cli`` in a fresh interpreter process."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "f0entrain.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def make_track(values, voiced=None, start=0.0, step=0.01) -> F0Track:
    values = np.asarray(values, dtype=float)
    if voiced is None:
        voiced = np.ones(values.size, dtype=bool)
    return F0Track(start_time=start, step=step, values=values, voiced=np.asarray(voiced, bool))


def minimal_manifest_doc() -> dict:
    """Two speakers, one dyad, two utterance records (smallest legal corpus)."""
    return {
        "speakers": [{"id": "A", "sex": "F", "l1": "fr"}, {"id": "B", "sex": "F", "l1": "fr"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {
                "index": 0,
                "imitator": "A",
                "model": "B",
                "imitator_f0": "f0/A_0.csv",
                "model_f0": "f0/B_0.csv",
                "imitator_align": "align/A_0.json",
                "model_align": "align/B_0.json",
            },
            {
                "index": 0,
                "imitator": "B",
                "model": "A",
                "imitator_f0": "f0/B_0b.csv",
                "model_f0": "f0/A_0b.csv",
                "imitator_align": "align/B_0b.json",
                "model_align": "align/A_0b.json",
            },
        ],
    }


def write_manifest_doc(doc: dict, tmp_path: Path) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
