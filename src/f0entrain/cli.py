"""Command-line front end.

Subcommands: synth, preprocess, features, entrain, validate, dyads,
stats (ttest|pearson|icc), grid, run. Pipeline options can come from
a flat ``key=value`` config file (or a previous run's ``run.json``), with
explicit flags taking precedence.

Exit codes: 0 success; 1 corpus/data error or bad option value; 2 I/O
error or malformed command line (an unknown flag or choice, which argparse
rejects).
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

from f0entrain import __version__, ingest, pipeline, stats, synth
from f0entrain.errors import ComputeError, DataError, ParseError, ValidationError, prefixed
from f0entrain.ingest import ALL_CRITERIA
from f0entrain.preprocess import SmoothingConfig, clean_track
from f0entrain.pipeline import CHOICES, RunConfig, flag, g6, p3, write_table

# RunConfig field -> its type, None dropped from an optional one
CONFIG_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config_file(path: str | Path) -> tuple[dict, str | None]:
    """Options from flat key=value text or a run.json, and the corpus checksum it records."""
    path = Path(path)
    text = ingest.read_utf8(path)
    checksum = None
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        doc = ingest.parse_json(text, path)
        raw = doc.get("config", doc) if isinstance(doc, dict) else doc
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: expected a JSON object of options")
        checksum = doc.get("corpus_checksum")
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
        if key not in CONFIG_TYPES:
            raise ParseError(f"{path}: unknown config key {key!r}")
        try:
            out[key] = _coerce(CONFIG_TYPES[key], value)
        except (ValueError, OverflowError) as exc:  # OverflowError: a JSON int beyond float
            raise ParseError(f"{path}: bad value for {key!r} ({exc})") from None
    if checksum is not None and not isinstance(checksum, str):
        raise ParseError(f"{path}: corpus_checksum must be a string, got {checksum!r}")
    return out, checksum


def _coerce(kind: type, value):
    """Text converted to ``kind``, or a JSON value of that type (an int for a float)."""
    if value is None or (isinstance(value, str) and value.lower() in ("", "none")):
        return None
    if kind is bool:  # a run.json holds a JSON bool: str(True) is "True"
        if str(value).lower() not in _BOOLS:
            raise ValueError(f"expected one of {', '.join(_BOOLS)}, got {value!r}")
        return _BOOLS[str(value).lower()]
    if isinstance(value, str) or type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise ValueError(f"expected {kind.__name__}, got {value!r}")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=False, help="corpus manifest JSON")
    parser.add_argument("--out", required=False, help="output path")
    parser.add_argument("--config", help="key=value config file or a previous run.json")
    parser.add_argument("--scores", help="rater scores CSV")
    parser.add_argument("--window", type=int, help="smoothing window (odd, default 7)")
    parser.add_argument("--order", type=int, help="smoothing polynomial order (default 3)")
    parser.add_argument("--outlier-scope", choices=CHOICES["outlier_scope"], dest="outlier_scope")
    parser.add_argument(
        "--surrogate-pool", choices=CHOICES["surrogate_pool"], dest="surrogate_pool"
    )
    parser.add_argument("--norm", choices=CHOICES["norm"], help="z-transform divisor")
    parser.add_argument("--norm-scope", choices=CHOICES["norm_scope"], dest="norm_scope")
    parser.add_argument("--alpha", type=float,
                        help=f"significance level (default {stats.DEFAULT_ALPHA})")
    parser.add_argument("--trend", type=float,
                        help=f"trend threshold (default {stats.DEFAULT_TREND})")
    parser.add_argument("--semitone", type=float, metavar="REF_HZ",
                        help="convert tracks to semitones re REF_HZ before parameterization")
    parser.add_argument("--from-wav", action="store_true", default=None, dest="from_wav",
                        help="estimate F0 from WAV files named in the manifest (cached as CSV)")
    parser.add_argument("--pitch-floor", type=float, dest="pitch_floor")
    parser.add_argument("--pitch-ceiling", type=float, dest="pitch_ceiling")
    parser.add_argument("--grid-measure", choices=CHOICES["grid_measure"], dest="grid_measure")


def build_run_config(args: argparse.Namespace) -> tuple[RunConfig, str | None]:
    """The run's options, and the corpus checksum a run.json replayed without
    ``--manifest`` expects (a run on another corpus expects none)."""
    values, recorded = load_config_file(args.config) if args.config else ({}, None)
    expected = recorded if args.manifest is None else None
    for name in CONFIG_TYPES:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    if values.get("manifest") is None:
        raise ParseError("a corpus manifest is required (--manifest or config file)")
    if values.get("out") is None:
        raise ParseError("an output path is required (--out or config file)")
    with prefixed("bad run option", (ValueError, ValidationError), ParseError):
        return RunConfig(**values), expected


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    # every option is checked before anything is written
    with prefixed("synth", ValueError):
        config = synth.SynthConfig(
            n_dyads=args.dyads,
            n_utterances=args.utts,
            noise_eps=args.eps,
            words_min=args.words_min,
            words_max=args.words_max,
            seed=args.seed,
        )
        if args.scores_coupling is not None:
            synth.check_score_options(args.scores_coupling, args.scores_noise, 2 * args.dyads)
    if args.scores_coupling is not None and args.eps == 0:
        raise ComputeError(
            "--scores-coupling needs --eps > 0: with --eps 0 every imitation equals "
            "its model, so every speaker's e_raw is 0 and scores cannot follow it"
        )
    manifest_path = synth.gen_corpus(config, args.out)
    print(f"wrote corpus: {manifest_path}")
    if args.scores_coupling is not None:
        run_config = RunConfig(manifest=str(manifest_path), out=args.out)
        table = pipeline.run_stages(run_config, {"dtw"}).measurement.table("e_raw")
        rows = synth.gen_scores(
            {spk: feats[synth.SCORE_FEATURE] for spk, feats in table.items()},
            coupling=args.scores_coupling,
            noise=args.scores_noise,
            seed=args.seed,
        )
        scores_path = Path(args.out) / "scores.csv"
        ingest.write_scores_csv(rows, scores_path)
        print(f"wrote scores: {scores_path}")
    return 0


def cmd_preprocess(args) -> int:
    with prefixed("bad option", ValueError, ParseError):
        smoothing = SmoothingConfig(args.window, args.order)
    track = ingest.load_f0_csv(args.input)
    with prefixed(args.input):
        cleaned = clean_track(track, smoothing)
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
    config, expected = build_run_config(args)
    for message in pipeline.run_pipeline(config, args.files, expected):
        print(f"warning: {message}", file=sys.stderr)
    if args.command == "run":
        print(f"wrote bundle: {Path(config.out)} ({', '.join(args.files)})")
    return 0


# --- stats subcommands -----------------------------------------------------


def _check_levels(args) -> None:
    """The command's ``--alpha`` and ``--trend``, checked before any input is read."""
    with prefixed("bad option", ValueError, ParseError):
        for name in ("alpha", "trend"):
            if hasattr(args, name):
                pipeline.check_level(name, getattr(args, name))


def _data_rows(path: str, *columns: str) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) of each data row of a CSV file that has every named column."""
    header, rows = ingest.read_csv_table(path)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for col in columns:
        if col not in header:
            raise ParseError(f"{path}: no column {col!r}")
    return [(lineno, dict(zip(header, parts))) for lineno, parts in rows]


def _numbers(path: str, rows, column: str) -> list[float]:
    """A column of ``_data_rows`` rows, each cell a finite number."""
    return [ingest.csv_number(row[column], path, lineno, column) for lineno, row in rows]


def cmd_stats_ttest(args) -> int:
    _check_levels(args)
    rows = _data_rows(args.csv, args.x, args.y, *filter(None, [args.by]))
    groups: dict[str, list] = {}
    for lineno, row in rows:
        groups.setdefault(row[args.by] if args.by else "all", []).append((lineno, row))
    lines = []
    for name, group in groups.items():
        x, y = _numbers(args.csv, group, args.x), _numbers(args.csv, group, args.y)
        with prefixed(f"{args.csv}: group {name}"):
            res = stats.paired_t_test(x, y, alpha=args.alpha, trend=args.trend)
        lines.append(
            f"{name},{g6(res.statistic)},{res.df:g},{p3(res.p_value)},"
            f"{p3(stats.one_sided_p(res))},{flag(res.significant)},{flag(res.trend)}"
        )
    write_table(args.out, "group,t,df,p_value,p_one_sided,significant,trend", lines)
    return 0


def cmd_stats_pearson(args) -> int:
    _check_levels(args)
    rows = _data_rows(args.csv, args.x, args.y)
    x, y = _numbers(args.csv, rows, args.x), _numbers(args.csv, rows, args.y)
    with prefixed(args.csv):
        res = stats.pearson(x, y, alpha=args.alpha, trend=args.trend)
    write_table(args.out, "r,df,p_value,n,significant,trend", [
        f"{g6(res.statistic)},{res.df:g},{p3(res.p_value)},{len(x)},"
        f"{flag(res.significant)},{flag(res.trend)}"
    ])
    return 0


def cmd_stats_icc(args) -> int:
    _check_levels(args)
    table = ingest.load_scores(args.scores)
    speakers = sorted({r.speaker for r in table.rows})
    raters = sorted({r.rater for r in table.rows})
    cell = {(r.speaker, r.rater): r for r in table.rows}
    criteria = [args.criterion] if args.criterion else list(ALL_CRITERIA)
    lines = []
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
        res = stats.icc_3k(matrix, alpha=args.alpha, absolute=args.absolute)
        p_value = "<0.001" if res.p_value < 0.001 else p3(res.p_value)
        lines.append(f"{criterion},{res.icc:.3f},{p_value},{res.ci_low:.2f},{res.ci_high:.2f}")
    write_table(args.out, "criterion,icc,p_value,ci_low,ci_high", lines)
    return 0


def _entrain_table(path: str, measure: str) -> dict[str, dict[str, float]]:
    # an empty e_opt: every sample of that speaker and feature was an outlier
    rows = [(n, row) for n, row in _data_rows(path, "speaker", "feature", measure) if row[measure]]
    table: dict[str, dict[str, float]] = {}
    for (_, row), value in zip(rows, _numbers(path, rows, measure)):
        table.setdefault(row["speaker"], {})[row["feature"]] = value
    return table


def cmd_grid(args) -> int:
    _check_levels(args)
    table = _entrain_table(args.entrain, args.measure)
    scores = ingest.load_scores(args.scores).speaker_means()
    with prefixed(f"{args.entrain} with {args.scores}"):
        cells = stats.correlate_grid(table, scores, alpha=args.alpha, trend=args.trend)
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
    p.add_argument("--scores-coupling", type=float, default=None,
                   help="also emit scores.csv coupled to measured e_raw")
    p.add_argument("--scores-noise", type=float, default=0.15)
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
    q.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    q.add_argument("--trend", type=float, default=stats.DEFAULT_TREND)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_ttest)

    q = stats_sub.add_parser("pearson", help="Pearson correlation between two columns")
    q.add_argument("--csv", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    q.add_argument("--trend", type=float, default=stats.DEFAULT_TREND)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_pearson)

    q = stats_sub.add_parser("icc", help="rater agreement (two-way mixed, mean of raters)")
    q.add_argument("--scores", required=True)
    q.add_argument("--criterion", choices=list(ALL_CRITERIA))
    q.add_argument("--absolute", action="store_true", help="absolute-agreement variant")
    q.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    q.add_argument("--out")
    q.set_defaults(func=cmd_stats_icc)

    p = sub.add_parser("grid", help="feature x criterion correlation grid")
    p.add_argument("--entrain", required=True, help="per-speaker entrainment CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--measure", choices=CHOICES["grid_measure"], default="e_opt")
    p.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    p.add_argument("--trend", type=float, default=stats.DEFAULT_TREND)
    p.set_defaults(func=cmd_grid)

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
