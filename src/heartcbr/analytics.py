"""Accuracy, descriptive statistics tables, and product-moment correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .cases import FEATURE_NAMES, TARGET_NAME, Case

CORRELATION_COLUMNS: tuple[str, ...] = FEATURE_NAMES + (TARGET_NAME,)

CHEST_PAIN_LABELS = {
    0: "typical angina",
    1: "atypical angina",
    2: "non-anginal pain",
    3: "asymptomatic",
}


@dataclass(frozen=True)
class CaseResult:
    """Outcome of predicting one test case."""

    index: int
    true_target: int
    predicted_target: int
    best_similarity: float
    best_case_id: int


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class StatsTables:
    """Descriptive tables over a labelled dataset.

    ``positives_by_gender`` percentages are taken among the label-positive
    cases. ``chest_pain_table`` maps each chest-pain code to its positive and
    total counts.
    """

    gender_counts: dict[str, int]
    disease_counts: dict[str, int]
    positives_by_gender: dict[str, dict[str, float]]
    disease_by_age: dict[int, int]
    max_heart_rate_by_age: dict[int, int]
    chest_pain_table: dict[int, dict[str, int]]


@dataclass(frozen=True)
class EvaluationReport:
    """Predictions and summary statistics for one evaluation run.

    ``test_accuracy`` is measured on the held-out cases only.
    ``merged_accuracy`` covers train + test, with every training case
    counted correct by self-retrieval.
    """

    per_case: tuple[CaseResult, ...]
    test_accuracy: float
    merged_accuracy: float
    confusion: ConfusionCounts
    n_train: int
    n_test: int


def accuracy(predictions: Sequence[int], truths: Sequence[int]) -> float:
    """Fraction of exact matches between two aligned label sequences."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths"
        )
    if not predictions:
        raise ValueError("cannot compute accuracy of an empty sequence")
    matches = sum(1 for p, t in zip(predictions, truths) if p == t)
    return matches / len(predictions)


def dataset_stats(cases: Sequence[Case], labels: Sequence[int]) -> StatsTables:
    """Build the descriptive tables for a dataset under the given labels.

    ``labels`` may be ground-truth targets or predicted ones; they must be
    aligned with ``cases``.
    """
    if len(cases) != len(labels):
        raise ValueError(
            f"alignment mismatch: {len(cases)} cases vs {len(labels)} labels"
        )

    male = sum(1 for c in cases if c.sex == 1)
    gender_counts = {"male": male, "female": len(cases) - male}

    positive = sum(1 for lab in labels if lab == 1)
    disease_counts = {"positive": positive, "negative": len(cases) - positive}

    male_pos = sum(1 for c, lab in zip(cases, labels) if lab == 1 and c.sex == 1)
    female_pos = positive - male_pos
    positives_by_gender = {
        "male": {
            "count": male_pos,
            "percent": 100.0 * male_pos / positive if positive else 0.0,
        },
        "female": {
            "count": female_pos,
            "percent": 100.0 * female_pos / positive if positive else 0.0,
        },
    }

    disease_by_age: dict[int, int] = {}
    max_heart_rate_by_age: dict[int, int] = {}
    for case, label in zip(cases, labels):
        disease_by_age.setdefault(case.age, 0)
        if label == 1:
            disease_by_age[case.age] += 1
        best = max_heart_rate_by_age.get(case.age)
        if best is None or case.thalach > best:
            max_heart_rate_by_age[case.age] = case.thalach

    chest_pain_table = {code: {"positives": 0, "total": 0} for code in sorted(CHEST_PAIN_LABELS)}
    for case, label in zip(cases, labels):
        entry = chest_pain_table.setdefault(case.cp, {"positives": 0, "total": 0})
        entry["total"] += 1
        if label == 1:
            entry["positives"] += 1

    return StatsTables(
        gender_counts=gender_counts,
        disease_counts=disease_counts,
        positives_by_gender=positives_by_gender,
        disease_by_age=dict(sorted(disease_by_age.items())),
        max_heart_rate_by_age=dict(sorted(max_heart_rate_by_age.items())),
        chest_pain_table=chest_pain_table,
    )


def pearson_correlation(cases: Sequence[Case]) -> list[list[float | None]]:
    """Product-moment correlation over the 13 attributes plus target.

    Returns a 14x14 nested list ordered by :data:`CORRELATION_COLUMNS`,
    symmetric with a unit diagonal. Entries involving a constant column are
    ``None`` (undefined) rather than a number. Requires at least two cases,
    all with targets.
    """
    if len(cases) < 2:
        raise ValueError("correlation requires at least two cases")
    for i, case in enumerate(cases):
        if case.target is None:
            raise ValueError(f"case {i} is missing a target")

    data = np.array(list(map(attrgetter(*CORRELATION_COLUMNS), cases)), dtype=np.float64)
    n_cols = data.shape[1]
    constant = [bool(data[:, j].min() == data[:, j].max()) for j in range(n_cols)]
    # One contiguous row per centred column, summed by np.add.reduce: a BLAS
    # dot product orders its sum by the thread count, so its bits vary.
    centered = np.ascontiguousarray((data - data.mean(axis=0)).T)
    squares = [float(np.add.reduce(column * column)) for column in centered]

    matrix: list[list[float | None]] = [[None] * n_cols for _ in range(n_cols)]
    for i in range(n_cols):
        if constant[i]:
            continue
        matrix[i][i] = 1.0
        for j in range(i + 1, n_cols):
            if constant[j]:
                continue
            r = float(np.add.reduce(centered[i] * centered[j])) / math.sqrt(squares[i] * squares[j])
            r = max(-1.0, min(1.0, r))
            matrix[i][j] = r
            matrix[j][i] = r
    return matrix
