"""Deterministic synthetic records following the heart-disease schema.

Useful for demos and for exercising the pipeline end to end when the real
dataset is not on disk. Rows are schema-valid (optionally with a few
out-of-domain ca/thal codes, which occur in public copies of the real data)
and a fraction of them are exact duplicates so retrieval finds perfect
matches, as it does on the real file.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

from .cases import Case
from .dataset import CANONICAL_HEADER, write_cases

HEADER: tuple[str, ...] = CANONICAL_HEADER


def _fresh_row(rng: random.Random) -> dict[str, int | float]:
    age = rng.randint(29, 77)
    cp = rng.randint(0, 3)
    thalach = rng.randint(71, 202)
    oldpeak = round(rng.uniform(0.0, 6.2), 1)
    exang = rng.randint(0, 1)
    row: dict[str, int | float] = {
        "age": age,
        "sex": 1 if rng.random() < 0.7 else 0,
        "cp": cp,
        "trestbps": rng.randint(94, 200),
        "chol": rng.randint(126, 564),
        "fbs": 1 if rng.random() < 0.15 else 0,
        "restecg": rng.randint(0, 2),
        "thalach": thalach,
        "exang": exang,
        "oldpeak": oldpeak,
        "slope": rng.randint(0, 2),
        "ca": rng.randint(0, 3),
        "thal": rng.randint(1, 3),
    }
    # Loose risk score so labels correlate with the usual suspects.
    risk = (
        0.8 * (cp in (1, 2))
        + 0.6 * (thalach > 150)
        - 0.5 * exang
        - 0.3 * (oldpeak > 2.0)
        - 0.2 * (age > 60)
        + rng.gauss(0.0, 0.45)
    )
    row["target"] = 1 if risk > 0.3 else 0
    return row


def generate_rows(
    n: int,
    seed: int = 0,
    duplicate_fraction: float = 0.3,
    out_of_domain: int = 0,
) -> list[dict[str, int | float]]:
    """Generate ``n`` labelled rows, reproducible for a given seed.

    ``duplicate_fraction`` of the rows (after the first) repeat an earlier
    row verbatim. ``out_of_domain`` rows get a ca=4 or thal=0 code that only
    lenient validation accepts.
    """
    if n < 1:
        raise ValueError("need at least one row")
    rng = random.Random(seed)
    rows: list[dict[str, int | float]] = []
    for i in range(n):
        if rows and rng.random() < duplicate_fraction:
            rows.append(dict(rng.choice(rows)))
        else:
            rows.append(_fresh_row(rng))
    for i in range(min(out_of_domain, n)):
        if i % 2 == 0:
            rows[i]["ca"] = 4
        else:
            rows[i]["thal"] = 0
    return rows


def write_csv(path, rows: Sequence[dict[str, int | float]]) -> None:
    write_cases((Case(**row) for row in rows), path)


def write_synthetic_dataset(path, n: int, seed: int = 0, **kwargs) -> Path:
    path = Path(path)
    write_csv(path, generate_rows(n, seed=seed, **kwargs))
    return path
