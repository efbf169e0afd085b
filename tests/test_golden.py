"""The report bundle is byte-identical to a committed golden bundle.

``tests/golden/`` was made from a checkout root with

    f0entrain synth --dyads 4 --utts 8 --eps 0.5 --seed 7 \\
        --scores-coupling 0.5 --out corpus
    f0entrain run --manifest corpus/manifest.json --scores corpus/scores.csv \\
        --norm se --out report

and copying ``report/*`` into ``tests/golden/``. The test repeats both
commands in a temporary directory with the same relative paths, so
``run.json`` (which records them) stays stable, and its
``corpus_checksum`` also pins synth's output bytes. Regenerating the
golden files needs an entry in CHANGES.md that says which bytes moved
and why.
"""

from pathlib import Path

from f0entrain.cli import main

GOLDEN = Path(__file__).parent / "golden"


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Readable description of the first line where two files differ."""
    got_lines = got.decode().splitlines()
    want_lines = want.decode().splitlines()
    for lineno in range(1, max(len(got_lines), len(want_lines)) + 1):
        g = got_lines[lineno - 1] if lineno <= len(got_lines) else "<end of file>"
        w = want_lines[lineno - 1] if lineno <= len(want_lines) else "<end of file>"
        if g != w:
            return f"{name}, line {lineno}:\n  golden: {w}\n  got:    {g}"
    return f"{name}: line endings or final newline differ"


def test_run_bundle_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "synth", "--dyads", "4", "--utts", "8", "--eps", "0.5", "--seed", "7",
        "--scores-coupling", "0.5", "--out", "corpus",
    ]) == 0
    assert main([
        "run", "--manifest", "corpus/manifest.json", "--scores", "corpus/scores.csv",
        "--norm", "se", "--out", "report",
    ]) == 0

    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(Path("report").iterdir())}
    assert len(want) == 8
    assert set(got) == set(want)
    for name in want:
        assert got[name] == want[name], first_difference(name, got[name], want[name])
