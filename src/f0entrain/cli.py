"""Command-line front end.

Subcommands: synth, preprocess, features, entrain, validate, dyads,
stats (ttest|pearson|icc|grid), grid, run. Pipeline options can come from
a flat ``key=value`` config file (or a previous run's ``run.json``), with
explicit flags taking precedence.

Exit codes: 0 success, 1 corpus/data error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from f0entrain import __version__, ingest, pipeline, stats, synth
from f0entrain.errors import ComputeError, DataError, ParseError
from f0entrain.ingest import ALL_CRITERIA
from f0entrain.preprocess import SmoothingConfig, clean_track
from f0entrain.pipeline import RunConfig

_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path: str | Path) -> dict:
    """Read pipeline options from flat key=value text or a run.json."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        doc = json.loads(text)
        raw = doc.get("config", doc)
    else:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()

    out = {}
    for key, value in raw.items():
        if key == "quantile_convention":
            continue  # recorded constant, not an option
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"{path}: unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def _coerce(key: str, value):
    if value is None or (isinstance(value, str) and value.lower() in ("", "none")):
        return None
    if key in ("window", "order"):
        return int(value)
    if key in ("alpha", "trend", "semitone", "pitch_floor", "pitch_ceiling"):
        return float(value)
    if key == "from_wav":  # a run.json holds a JSON bool: str(True) is "True"
        return str(value).lower() in ("1", "true", "yes")
    return str(value)


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=False, help="corpus manifest JSON")
    parser.add_argument("--out", required=False, help="output path")
    parser.add_argument("--config", help="key=value config file or a previous run.json")
    parser.add_argument("--scores", help="rater scores CSV")
    parser.add_argument("--window", type=int, help="smoothing window (odd, default 7)")
    parser.add_argument("--order", type=int, help="smoothing polynomial order (default 3)")
    parser.add_argument("--outlier-scope", choices=["utterance", "speaker"], dest="outlier_scope")
    parser.add_argument("--surrogate-pool", choices=["same-sex", "all"], dest="surrogate_pool")
    parser.add_argument("--norm", choices=["sd", "se"], help="z-transform divisor")
    parser.add_argument("--norm-scope", choices=["corpus", "speaker"], dest="norm_scope")
    parser.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    parser.add_argument("--trend", type=float, help="trend threshold (default 0.1)")
    parser.add_argument("--semitone", type=float, metavar="REF_HZ",
                        help="convert tracks to semitones re REF_HZ before parameterization")
    parser.add_argument("--from-wav", action="store_true", default=None, dest="from_wav",
                        help="estimate F0 from WAV files named in the manifest (cached as CSV)")
    parser.add_argument("--pitch-floor", type=float, dest="pitch_floor")
    parser.add_argument("--pitch-ceiling", type=float, dest="pitch_ceiling")
    parser.add_argument("--grid-measure", choices=["e_opt", "e_raw"], dest="grid_measure")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    if values.get("manifest") is None:
        raise ParseError("a corpus manifest is required (--manifest or config file)")
    if values.get("out") is None:
        raise ParseError("an output path is required (--out or config file)")
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    # every option is checked before anything is written
    try:
        config = synth.SynthConfig(
            n_dyads=args.dyads,
            n_utterances=args.utts,
            noise_eps=args.eps,
            words_min=args.words_min,
            words_max=args.words_max,
            base_f0_low=args.base_low,
            base_f0_high=args.base_high,
            seed=args.seed,
        )
        if args.scores_coupling is not None:
            synth.check_score_options(args.scores_coupling, args.scores_noise)
    except ValueError as exc:
        raise ComputeError(f"synth: {exc}") from None
    if args.scores_coupling is not None and args.eps == 0:
        raise ComputeError(
            "--scores-coupling needs --eps > 0: with --eps 0 every imitation equals "
            "its model, so every speaker's e_raw is 0 and scores cannot follow it"
        )
    manifest_path = synth.gen_corpus(config, args.out)
    print(f"wrote corpus: {manifest_path}")
    if args.scores_coupling is not None:
        run_config = RunConfig(manifest=str(manifest_path), out=args.out)
        table = pipeline.run_stages(run_config, {"dtw"}).measurement.e_raw_table()
        rows = synth.gen_scores(
            {spk: feats[args.scores_feature] for spk, feats in table.items()},
            coupling=args.scores_coupling,
            noise=args.scores_noise,
            seed=args.scores_seed if args.scores_seed is not None else args.seed,
            n_raters=args.raters,
        )
        scores_path = Path(args.out) / "scores.csv"
        ingest.write_scores_csv(rows, scores_path)
        print(f"wrote scores: {scores_path}")
    return 0


def cmd_preprocess(args) -> int:
    track = ingest.load_f0_csv(args.input)
    cleaned = clean_track(track, SmoothingConfig(args.window, args.order))
    ingest.write_f0_csv(cleaned, args.output)
    return 0


# Bundle files each corpus subcommand writes: one file goes at --out,
# several go into the --out directory.
PIPELINE_COMMANDS = {
    "features": ("per-word F0 features for a whole corpus", ("features.csv",)),
    "entrain": (
        "DTW samples and per-speaker entrainment scores", ("dtw_samples.csv", "entrain.csv")
    ),
    "validate": ("partner vs. surrogate distances and t-tests", ("validate.csv", "ttest.csv")),
    "dyads": ("inner-dyad entrainment asymmetry", ("dyads.csv",)),
    "run": ("full pipeline, writes the report bundle", tuple(pipeline.BUNDLE)),
}


def cmd_pipeline(args) -> int:
    bundle = pipeline.run_pipeline(build_run_config(args), args.files)
    for message in bundle.warnings:
        print(f"warning: {message}", file=sys.stderr)
    if args.command == "run":
        print(f"wrote bundle: {bundle.out} ({', '.join(bundle.files)})")
    return 0


# --- stats subcommands -----------------------------------------------------


def _read_csv_columns(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _data_rows(path: str, *columns: str) -> list[dict]:
    """Rows of a CSV file that has data rows and every named column."""
    rows = _read_csv_columns(path)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for col in columns:
        if col not in rows[0]:
            raise ParseError(f"{path}: no column {col!r}")
    return rows


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_stats_ttest(args) -> int:
    rows = _data_rows(args.csv, args.x, args.y, *filter(None, [args.by]))
    groups: dict[str, list[dict]] = {}
    if args.by:
        for row in rows:
            groups.setdefault(row[args.by], []).append(row)
    else:
        groups["all"] = rows
    lines = ["group,t,df,p_value,p_one_sided,significant,trend"]
    for name in groups:
        x = [float(r[args.x]) for r in groups[name]]
        y = [float(r[args.y]) for r in groups[name]]
        res = stats.paired_t_test(x, y, alpha=args.alpha, trend=args.trend)
        lines.append(
            f"{name},{res.statistic:.6g},{res.df:g},{res.p_value:.3g},"
            f"{stats.one_sided_p(res):.3g},"
            f"{'true' if res.significant else 'false'},{'true' if res.trend else 'false'}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_stats_pearson(args) -> int:
    rows = _data_rows(args.csv, args.x, args.y)
    x = [float(r[args.x]) for r in rows]
    y = [float(r[args.y]) for r in rows]
    res = stats.pearson(x, y, alpha=args.alpha, trend=args.trend)
    text = (
        "r,df,p_value,n,significant,trend\n"
        f"{res.statistic:.6g},{res.df:g},{res.p_value:.3g},{len(x)},"
        f"{'true' if res.significant else 'false'},{'true' if res.trend else 'false'}\n"
    )
    _emit(text, args.out)
    return 0


def cmd_stats_icc(args) -> int:
    table = ingest.load_scores(args.scores)
    speakers = sorted({r.speaker for r in table.rows})
    raters = sorted({r.rater for r in table.rows})
    cell = {(r.speaker, r.rater): r for r in table.rows}
    criteria = [args.criterion] if args.criterion else list(ALL_CRITERIA)
    results = []
    for criterion in criteria:
        matrix = []
        for spk in speakers:
            row = []
            for rater in raters:
                if (spk, rater) not in cell:
                    raise DataError(
                        f"{args.scores}: incomplete matrix, no rating by {rater!r} "
                        f"for {spk!r}"
                    )
                row.append(getattr(cell[(spk, rater)], criterion))
            matrix.append(row)
        results.append(
            (criterion, stats.icc_3k(matrix, alpha=args.alpha, absolute=args.absolute))
        )
    _emit(pipeline.format_icc_csv(results), args.out)
    return 0


def _entrain_table(path: str, measure: str) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for row in _read_csv_columns(path):
        try:
            table.setdefault(row["speaker"], {})[row["feature"]] = float(row[measure])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: expected speaker/feature/{measure} columns ({exc})")
    return table


def cmd_stats_grid(args) -> int:
    table = _entrain_table(args.entrain, args.measure)
    scores = ingest.load_scores(args.scores)
    cells = stats.correlate_grid(
        table, scores.speaker_means(), alpha=args.alpha, trend=args.trend
    )
    pipeline.write_grid_csv(cells, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f0entrain",
        description="F0 entrainment measurement for paired speech-imitation corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic imitation corpus")
    p.add_argument("--dyads", type=int, required=True)
    p.add_argument("--utts", type=int, required=True,
                   help="utterance indices per dyad (each read in both directions)")
    p.add_argument("--eps", type=float, default=0.0, help="imitation noise amplitude")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--words-min", type=int, default=6)
    p.add_argument("--words-max", type=int, default=13)
    p.add_argument("--base-low", type=float, default=100.0)
    p.add_argument("--base-high", type=float, default=250.0)
    p.add_argument("--scores-coupling", type=float, default=None,
                   help="also emit scores.csv coupled to measured e_raw")
    p.add_argument("--scores-noise", type=float, default=0.15)
    p.add_argument("--scores-seed", type=int, default=None)
    p.add_argument("--scores-feature", default="mean", help="feature driving the scores")
    p.add_argument("--raters", type=int, default=6)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="clean one F0 CSV (interpolate, de-spike, smooth)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--order", type=int, default=3)
    p.set_defaults(func=cmd_preprocess)

    for name, (help_text, files) in PIPELINE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_pipeline_args(p)
        p.set_defaults(func=cmd_pipeline, files=files)

    p = sub.add_parser("stats", help="statistics on intermediate CSVs")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    q = stats_sub.add_parser("ttest", help="paired t-test between two columns")
    q.add_argument("--csv", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--by", help="group rows by this column (one test per group)")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--trend", type=float, default=0.1)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_ttest)

    q = stats_sub.add_parser("pearson", help="Pearson correlation between two columns")
    q.add_argument("--csv", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--trend", type=float, default=0.1)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_pearson)

    q = stats_sub.add_parser("icc", help="rater agreement (two-way mixed, mean of raters)")
    q.add_argument("--scores", required=True)
    q.add_argument("--criterion", choices=list(ALL_CRITERIA))
    q.add_argument("--absolute", action="store_true", help="absolute-agreement variant")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_icc)

    def add_grid_args(q):
        q.add_argument("--entrain", required=True, help="per-speaker entrainment CSV")
        q.add_argument("--scores", required=True)
        q.add_argument("--out", required=True)
        q.add_argument("--measure", choices=["e_opt", "e_raw"], default="e_opt")
        q.add_argument("--alpha", type=float, default=0.05)
        q.add_argument("--trend", type=float, default=0.1)
        q.set_defaults(func=cmd_stats_grid)

    add_grid_args(stats_sub.add_parser("grid", help="feature x criterion correlation grid"))
    add_grid_args(sub.add_parser("grid", help="feature x criterion correlation grid"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
