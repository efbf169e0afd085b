"""The report bundle is byte-identical to a committed golden bundle.

The two CSV-input golden bundles were made from a checkout root on one
corpus,

    f0entrain synth --dyads 4 --utts 8 --eps 0.5 --seed 7 \\
        --scores-coupling 0.5 --out corpus

``tests/golden/`` with the default options plus ``--norm se``:

    f0entrain run --manifest corpus/manifest.json --scores corpus/scores.csv \\
        --norm se --out report

and ``tests/golden_options/`` with every other non-default option:

    f0entrain run --manifest corpus/manifest.json --scores corpus/scores.csv \\
        --outlier-scope speaker --semitone 100 --surrogate-pool all \\
        --norm-scope speaker --grid-measure e_raw --out report

``tests/golden_wav/`` pins the pitch tracker. Its corpus has two texts per
dyad (four dyads is the smallest synth shape with a same-sex surrogate
for every speaker),

    f0entrain synth --dyads 4 --utts 2 --eps 0.5 --seed 7 \\
        --scores-coupling 0.5 --out corpus

whose F0 tracks ``conftest.render_wavs`` turns into 16 kHz sine WAVs and
``corpus/manifest_wav.json``; then

    f0entrain run --manifest corpus/manifest_wav.json --scores corpus/scores.csv \\
        --from-wav --out report

Each golden directory is a copy of ``report/*``. The test repeats the
commands in a temporary directory with the same relative paths, so
``run.json`` (which records them) stays stable, and its
``corpus_checksum`` also pins synth's output bytes (and the WAV bytes).
``tests/golden_stats/`` pins the ``stats`` tables: its ``pairs.csv`` and
``scores.csv`` are fixed inputs, and ``ttest.csv``, ``pearson.csv`` and
``icc.csv`` are what each command prints or writes at ``--out``.

Regenerating the golden files needs an entry in CHANGES.md that says
which bytes moved and why.
"""

from pathlib import Path

import pytest

from f0entrain.cli import main

from conftest import render_wavs

HERE = Path(__file__).parent

# golden directory: (texts per dyad, manifest, run options)
GOLDENS = {
    "golden": (8, "corpus/manifest.json", ["--norm", "se"]),
    "golden_options": (8, "corpus/manifest.json", [
        "--outlier-scope", "speaker", "--semitone", "100", "--surrogate-pool", "all",
        "--norm-scope", "speaker", "--grid-measure", "e_raw",
    ]),
    "golden_wav": (2, "corpus/manifest_wav.json", ["--from-wav"]),
}


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


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_run_bundle_matches_golden(golden, tmp_path, monkeypatch):
    utts, manifest, options = GOLDENS[golden]
    monkeypatch.chdir(tmp_path)
    assert main([
        "synth", "--dyads", "4", "--utts", str(utts), "--eps", "0.5", "--seed", "7",
        "--scores-coupling", "0.5", "--out", "corpus",
    ]) == 0
    if "--from-wav" in options:
        render_wavs(Path("corpus"))
    assert main([
        "run", "--manifest", manifest, "--scores", "corpus/scores.csv",
        *options, "--out", "report",
    ]) == 0

    want = {p.name: p.read_bytes() for p in sorted((HERE / golden).iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(Path("report").iterdir())}
    assert len(want) == 8
    assert set(got) == set(want)
    for name in want:
        assert got[name] == want[name], first_difference(name, got[name], want[name])


STATS = HERE / "golden_stats"

# stats command: (its arguments, golden table)
STATS_GOLDENS = {
    "ttest": (["--csv", STATS / "pairs.csv", "--x", "a", "--y", "b", "--by", "g"], "ttest.csv"),
    "pearson": (["--csv", STATS / "pairs.csv", "--x", "a", "--y", "b"], "pearson.csv"),
    "icc": (["--scores", STATS / "scores.csv"], "icc.csv"),
}


@pytest.mark.parametrize("command", sorted(STATS_GOLDENS))
def test_stats_table_matches_golden(command, tmp_path, capsys):
    args, golden = STATS_GOLDENS[command]
    argv = ["stats", command, *map(str, args)]
    want = (STATS / golden).read_bytes()

    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == want, first_difference(golden, printed, want)

    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == want, first_difference(golden, out.read_bytes(), want)
