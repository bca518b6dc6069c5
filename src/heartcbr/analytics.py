"""Accuracy, descriptive statistics tables, and product-moment correlation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq
from typing import Sequence

import numpy as np

from .cases import FEATURE_NAMES, TARGET_NAME, Case
from .dataset import feature_matrix

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

    # One C-level pass per attribute and per count. A label counts as positive
    # when ``label == 1`` is true, as compress reads each selector.
    sexes = [case.sex for case in cases]
    ages = [case.age for case in cases]
    codes = [case.cp for case in cases]
    positive_flags = list(map(eq, labels, repeat(1)))

    male = sexes.count(1)
    gender_counts = {"male": male, "female": len(cases) - male}

    positive_sexes = list(compress(sexes, positive_flags))
    positive = len(positive_sexes)
    disease_counts = {"positive": positive, "negative": len(cases) - positive}

    male_pos = positive_sexes.count(1)
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

    disease_by_age = dict.fromkeys(sorted(set(ages)), 0)
    disease_by_age.update(Counter(compress(ages, positive_flags)))
    # The first of the highest rates per age; a plain loop beats sorting the pairs.
    max_heart_rate_by_age = dict.fromkeys(disease_by_age)
    for age, rate in zip(ages, [case.thalach for case in cases]):
        best = max_heart_rate_by_age[age]
        if best is None or rate > best:
            max_heart_rate_by_age[age] = rate

    # Codes 0-3 first, then any other code in order of first occurrence.
    totals = Counter(codes)
    positives = Counter(compress(codes, positive_flags))
    chest_pain_table = {
        code: {"positives": positives[code], "total": totals[code]}
        for code in chain(sorted(CHEST_PAIN_LABELS), totals)
    }

    return StatsTables(
        gender_counts=gender_counts,
        disease_counts=disease_counts,
        positives_by_gender=positives_by_gender,
        disease_by_age=disease_by_age,
        max_heart_rate_by_age=max_heart_rate_by_age,
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
    targets = [case.target for case in cases]
    if None in targets:
        raise ValueError(f"case {targets.index(None)} is missing a target")

    n_cols = len(CORRELATION_COLUMNS)
    data = np.empty((len(cases), n_cols))
    data[:, :-1] = feature_matrix(cases)
    data[:, -1] = targets
    constant = (data.min(axis=0) == data.max(axis=0)).tolist()
    # Centred columns as contiguous rows; products[i][j - i] sums rows i * j by np.add.reduce,
    # as a call on that one row does. A BLAS dot orders its sum by the thread count, so its bits vary.
    centered = np.ascontiguousarray((data - data.mean(axis=0)).T)
    products = [np.add.reduce(centered[i] * centered[i:], axis=1).tolist() for i in range(n_cols)]

    matrix: list[list[float | None]] = [[None] * n_cols for _ in range(n_cols)]
    for i in range(n_cols):
        if constant[i]:
            continue
        matrix[i][i] = 1.0
        for j in range(i + 1, n_cols):
            if constant[j]:
                continue
            r = products[i][j - i] / math.sqrt(products[i][0] * products[j][0])
            r = max(-1.0, min(1.0, r))
            matrix[i][j] = r
            matrix[j][i] = r
    return matrix
