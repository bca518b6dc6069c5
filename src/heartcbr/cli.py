"""Command-line pipeline: split, predict, evaluate, stats, correlate, train-nn, run-all.

Every subcommand is deterministic given its flags and inputs and exits 0
only on success. All but ``predict`` read --input's rows as stored cases
(``split`` lets test rows lack a target) and write files into --out-dir;
``run-all`` runs split, evaluate, stats and correlate on one parse.
``predict`` fits the scaling from ``case_base.csv`` on every run and never
reads ``normalization.json``. ``--retain`` replaces each file through a
temporary sibling, holding an exclusive ``flock`` on the directory from the
read to the last replace; a plain ``predict`` holds it shared.
"""

from __future__ import annotations

import argparse
import fcntl
import logging
import os
import stat
import sys
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from . import analytics, baselines, reports
from .cases import FEATURE_NAMES, N_FEATURES, to_feature_vector, validate_case
from .dataset import (
    _json_text,
    parse_csv,
    read_case_base,
    split_sequential,
    write_case_base,
    write_cases,
)
from .engine import SimilarityConfig, evaluate, predict, retain
from .scaling import fit_minmax, normalize, write_params

class CliError(Exception):
    """Pipeline failure carrying the stage name."""


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CliError:
        raise
    except Exception as exc:
        raise CliError(f"{name}: {exc}") from exc


def _fraction_flag(text: str) -> str:
    """Check --train-fraction and return it as typed, for messages to show (``1e-300``, not 301 digits)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"train fraction {text!r} outside (0, 1)")
    return text


def _weights_flag(text: str) -> SimilarityConfig:
    """Parse --weights; a malformed list is a usage error, invalid values a CliError."""
    parts = text.split(",")
    if len(parts) != N_FEATURES:
        raise argparse.ArgumentTypeError(
            f"expected {N_FEATURES} comma-separated weights, got {len(parts)}"
        )
    try:
        weights = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric weight in {text!r}") from None
    return _stage("weights", SimilarityConfig, weights=weights)


def _mode(args) -> str:
    return "strict" if args.strict else "lenient"


def _check_out_dir(out_dir: str) -> None:
    """Fail unless --out-dir is a directory or its nearest existing ancestor is one; nothing is made here."""
    existing = next(path for path in (Path(out_dir), *Path(out_dir).parents) if path.exists())
    if not existing.is_dir():
        raise CliError(f"write: --out-dir {out_dir}: {existing} is not a directory")


def _out_dir(args) -> Path:
    """Make --out-dir; each writer calls it once its results are ready."""
    out = Path(args.out_dir)
    _stage("write", out.mkdir, parents=True, exist_ok=True)
    return out


def _parse(args, *, stored: bool = True):
    return _stage("parse", parse_csv, args.input, _mode(args), stored=stored)


def _split(args, cases):
    return _stage("split", split_sequential, cases, args.train_fraction)


def _write_split_artifacts(args, split) -> None:
    out = _out_dir(args)
    _stage("write", write_cases, (case for _, case in split.train), out / "train.csv")
    _stage("write", write_cases, split.test, out / "test.csv")
    _stage("write", write_case_base, split.train, out / "case_base.csv")
    params = _stage("fit", fit_minmax, split.train)
    _stage("write", write_params, params, out / "normalization.json")
    manifest = {
        "total": len(split.train) + len(split.test),
        "train": len(split.train),
        "test": len(split.test),
        "train_fraction": float(Fraction(args.train_fraction)),
    }
    _stage("write", reports.write_json, out / "split_manifest.json", manifest)


def _evaluate(args, split):
    params = _stage("fit", fit_minmax, split.train)
    return _stage(
        "evaluate", evaluate, split.test, split.train, args.config, params,
        incremental_retain=args.incremental_retain,
    )


def _write_evaluation(args, report) -> None:
    config = {
        "train_fraction": float(Fraction(args.train_fraction)),
        "weights": list(args.config.weights),
        "incremental_retain": args.incremental_retain,
        "validation_mode": _mode(args),
    }
    out = _out_dir(args)
    payload = reports.evaluation_report_to_dict(report, config)
    _stage("write", reports.write_json, out / "evaluation_report.json", payload)
    _stage("write", reports.write_per_case_csv, out / "per_case.csv", report)


def _write_stats(args, cases, report):
    """Write and return the tables under the true labels and the merged labels.

    Merged: the input's labels for the training rows (an incremental-retain
    evaluation grows the case base by the test rows), then the predictions.
    """
    truths = [case.target for case in cases]
    merged = truths[: report.n_train] + [r.predicted_target for r in report.per_case]
    true_stats = _stage("stats", analytics.dataset_stats, cases, truths)
    predicted_stats = _stage("stats", analytics.dataset_stats, cases, merged)
    out = _out_dir(args)
    _stage("write", reports.write_stats_tables, out, "true", true_stats)
    _stage("write", reports.write_stats_tables, out, "predicted", predicted_stats)
    return true_stats, predicted_stats


def _write_correlation(args, cases):
    matrix = _stage("correlate", analytics.pearson_correlation, cases)
    out = _out_dir(args)
    _stage("write", reports.write_correlation_csv, out / "correlation.csv", matrix)
    return matrix


def cmd_split(args) -> int:
    split = _split(args, _parse(args, stored=False))
    _write_split_artifacts(args, split)
    print(f"split: {len(split.train)} train / {len(split.test)} test -> {Path(args.out_dir)}")
    return 0


def cmd_evaluate(args) -> int:
    report = _evaluate(args, _split(args, _parse(args)))
    _write_evaluation(args, report)
    print(
        f"evaluate: test_accuracy={report.test_accuracy:.6f} "
        f"merged_accuracy={report.merged_accuracy:.6f} "
        f"(train={report.n_train}, test={report.n_test}) -> {Path(args.out_dir)}"
    )
    return 0


def cmd_stats(args) -> int:
    cases = _parse(args)
    report = _evaluate(args, _split(args, cases))
    true_stats, predicted_stats = _write_stats(args, cases, report)
    print(
        f"stats: positives true={true_stats.disease_counts['positive']} "
        f"predicted={predicted_stats.disease_counts['positive']} -> {Path(args.out_dir)}"
    )
    return 0


def cmd_correlate(args) -> int:
    matrix = _write_correlation(args, _parse(args))
    print(f"correlate: {len(matrix)}x{len(matrix)} matrix -> {Path(args.out_dir)}")
    return 0


def cmd_train_nn(args) -> int:
    split = _split(args, _parse(args))
    params = _stage("fit", fit_minmax, split.train)
    train_vectors = [normalize(to_feature_vector(c), params) for c in split.train.cases()]
    train_labels = [c.target for c in split.train.cases()]
    test_vectors = [normalize(to_feature_vector(c), params) for c in split.test]
    test_labels = [c.target for c in split.test]

    model, mse_log = _stage(
        "train", baselines.train_mlp, train_vectors, train_labels, args.epochs, args.eta, args.seed
    )
    test_accuracy = _stage("evaluate", baselines.evaluate_mlp, model, test_vectors, test_labels)

    out = _out_dir(args)
    _stage("write", baselines.write_model, model, out / "mlp_model.json")
    _stage("write", baselines.write_training_log, mse_log, out / "mlp_training_log.csv")
    _stage(
        "write",
        reports.write_json,
        out / "mlp_report.json",
        {
            "sizes": list(model.sizes),
            "epochs": args.epochs,
            "eta": args.eta,
            "seed": args.seed,
            "test_accuracy": test_accuracy,
            "final_mse": mse_log[-1],
        },
    )
    print(f"train-nn: test_accuracy={test_accuracy:.6f} final_mse={mse_log[-1]:.6f} -> {out}")
    return 0


def _build_query(args):
    flag_values = {name: getattr(args, f"q_{name}") for name in FEATURE_NAMES}
    given = {name: v for name, v in flag_values.items() if v is not None}
    if args.query is not None:
        if given:
            raise CliError("predict: give the query either as --query or as field flags, not both")
        rows = _stage("parse", parse_csv, args.query, _mode(args))
        if len(rows) != 1:
            raise CliError(f"predict: query file must contain exactly one row, found {len(rows)}")
        return rows[0]
    missing = sorted(set(FEATURE_NAMES) - set(given))
    if missing:
        raise CliError(f"predict: missing query fields: {', '.join(missing)}")
    case, _ = _stage("validate", validate_case, given, _mode(args))
    return case


def _replace(write, value, path: Path) -> None:
    """``write(value, sibling)`` into a temporary sibling of ``path``, then move it over ``path``."""
    sibling = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(value, sibling)
        # Keep the replaced file's mode, so a private case base stays private.
        with suppress(FileNotFoundError):
            sibling.chmod(stat.S_IMODE(path.stat().st_mode))
        os.replace(sibling, path)
    except BaseException:
        sibling.unlink(missing_ok=True)
        raise


def cmd_predict(args) -> int:
    case_base_path = Path(args.case_base)
    if not case_base_path.exists():
        raise CliError(f"predict: case base not found: {case_base_path}")
    lock = os.open(case_base_path.parent, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX if args.retain else fcntl.LOCK_SH)
        case_base = _stage("load", read_case_base, case_base_path)
        params = _stage("fit", fit_minmax, case_base)
        query = _build_query(args)
        prediction = _stage("predict", predict, query, case_base, args.config, params)

        if args.retain:
            case_base, params = _stage("retain", retain, query, prediction.predicted_target, case_base)
            _stage("write", _replace, write_case_base, case_base, case_base_path)
            _stage("write", _replace, write_params, params, case_base_path.parent / "normalization.json")
    finally:
        os.close(lock)  # releases the lock

    payload = reports.prediction_to_dict(prediction, args.retain, len(case_base))
    print(_json_text(payload))
    return 0


def cmd_run_all(args) -> int:
    cases = _parse(args)
    split = _split(args, cases)
    _write_split_artifacts(args, split)
    report = _evaluate(args, split)
    _write_evaluation(args, report)
    _write_stats(args, cases, report)
    _write_correlation(args, cases)
    print(
        f"run-all: test_accuracy={report.test_accuracy:.6f} "
        f"merged_accuracy={report.merged_accuracy:.6f} -> {Path(args.out_dir)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heartcbr",
        description="Case-based reasoning pipeline for tabular heart-disease prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true", help="strict field validation")
    common.add_argument("--verbose", action="store_true", help="debug logging, incl. cycle events")

    pipeline = argparse.ArgumentParser(add_help=False, parents=[common])
    pipeline.add_argument("--input", required=True, help="input dataset CSV")
    pipeline.add_argument("--out-dir", default="out", help="output directory (default: out)")

    splitting = argparse.ArgumentParser(add_help=False, parents=[pipeline])
    splitting.add_argument(
        "--train-fraction", type=_fraction_flag, default=_fraction_flag("0.6"),
        help="fraction of leading rows used for training (default: 0.6)",
    )

    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument(
        "--weights", dest="config", metavar="WEIGHTS", type=_weights_flag, default=SimilarityConfig(),
        help=f"{N_FEATURES} comma-separated attribute weights (default: all 1)",
    )

    evaluated = argparse.ArgumentParser(add_help=False, parents=[splitting, weighted])
    evaluated.add_argument(
        "--incremental-retain", action="store_true",
        help="retain each test case with its predicted target before the next prediction",
    )

    p = sub.add_parser("split", parents=[splitting], help="sequential train/test split")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", parents=[evaluated], help="split, fit and score the test set")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", parents=[evaluated], help="descriptive tables (true and predicted labels)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("correlate", parents=[pipeline], help="product-moment correlation matrix")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train-nn", parents=[splitting], help="train the backpropagation baseline")
    p.add_argument("--seed", type=int, default=0, help="weight initialization seed")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (>= 1)")
    p.add_argument("--eta", type=float, default=0.1, help="learning rate")
    p.set_defaults(func=cmd_train_nn)

    p = sub.add_parser("run-all", parents=[evaluated], help="split + evaluate + stats + correlate")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("predict", parents=[common, weighted], help="predict one query against a case base")
    p.add_argument("--case-base", required=True, help="persisted case-base CSV")
    p.add_argument("--query", default=None, help="single-row query CSV")
    p.add_argument("--retain", action="store_true", help="append the solved query to the case base")
    for name in FEATURE_NAMES:
        p.add_argument(f"--{name}", dest=f"q_{name}", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The level is set on every call; basicConfig only adds the stderr handler once.
        logging.basicConfig()
        logging.getLogger("heartcbr").setLevel(logging.DEBUG if args.verbose else logging.WARNING)
        if hasattr(args, "out_dir"):
            _check_out_dir(args.out_dir)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
