"""Machine-readable report emission: JSON reports and CSV tables.

Field names here are the stable CLI contract (see README). Serialization is
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .analytics import CORRELATION_COLUMNS, EvaluationReport, StatsTables
from .dataset import _write_json, _write_rows
from .engine import Prediction


def write_json(path, payload: dict) -> None:
    _write_json(path, payload)


def evaluation_report_to_dict(report: EvaluationReport, config: dict) -> dict:
    return {
        "config": config,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "test_accuracy": report.test_accuracy,
        "merged_accuracy": report.merged_accuracy,
        "confusion": asdict(report.confusion),  # tp, tn, fp, fn
        "per_case": [
            {
                "index": r.index,
                "true_target": r.true_target,
                "predicted_target": r.predicted_target,
                "best_similarity": r.best_similarity,
                "best_case_id": r.best_case_id,
            }
            for r in report.per_case
        ],
    }


def write_per_case_csv(path, report: EvaluationReport) -> None:
    _write_rows(
        path,
        ["index", "true_target", "predicted_target", "best_similarity", "best_case_id"],
        ([r.index, r.true_target, r.predicted_target, r.best_similarity, r.best_case_id] for r in report.per_case),
    )


def prediction_to_dict(
    prediction: Prediction, retained: bool, case_base_size: int
) -> dict:
    return {
        "predicted_target": prediction.predicted_target,
        "best_case_id": prediction.best_case_id,
        "best_global_similarity": prediction.best_global_similarity,
        "retained": retained,
        "case_base_size": case_base_size,
    }


def write_stats_tables(out_dir, prefix: str, stats: StatsTables) -> list[Path]:
    """Write the six descriptive tables as ``<prefix>_<table>.csv`` files."""
    out_dir = Path(out_dir)
    written: list[Path] = []

    def table(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        path = out_dir / f"{prefix}_{name}.csv"
        _write_rows(path, header, rows)
        written.append(path)

    table(
        "gender_counts",
        ["gender", "count"],
        [["male", stats.gender_counts["male"]], ["female", stats.gender_counts["female"]]],
    )
    table(
        "disease_counts",
        ["label", "count"],
        [
            ["positive", stats.disease_counts["positive"]],
            ["negative", stats.disease_counts["negative"]],
        ],
    )
    table(
        "positives_by_gender",
        ["gender", "positives", "percent"],
        [
            [g, stats.positives_by_gender[g]["count"], stats.positives_by_gender[g]["percent"]]
            for g in ("male", "female")
        ],
    )
    table(
        "disease_by_age",
        ["age", "positives"],
        [[age, count] for age, count in stats.disease_by_age.items()],
    )
    table(
        "max_heart_rate_by_age",
        ["age", "max_thalach"],
        [[age, rate] for age, rate in stats.max_heart_rate_by_age.items()],
    )
    table(
        "chest_pain",
        ["cp", "positives", "total"],
        [
            [code, entry["positives"], entry["total"]]
            for code, entry in sorted(stats.chest_pain_table.items())
        ],
    )
    return written


def write_correlation_csv(path, matrix: Sequence[Sequence[float | None]]) -> None:
    """14x14 correlation matrix with named rows/columns; None -> "undefined"."""
    _write_rows(
        path,
        ["attribute", *CORRELATION_COLUMNS],
        (
            [name, *("undefined" if v is None else v for v in row)]
            for name, row in zip(CORRELATION_COLUMNS, matrix)
        ),
    )
