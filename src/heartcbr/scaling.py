"""Min-max scaling to [0, 1], fitted on training cases only.

Fitting records per-attribute extrema of the raw training data. Scaled
training values land in [0, 1] exactly; test values outside the training
extrema are deliberately not clamped here (the similarity measure clamps
instead, keeping a single auditable clamp point). A zero-range attribute is
flagged degenerate and scales to 0; retrieval compares its raw values instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .cases import FEATURE_NAMES, Case
from .dataset import CaseBase, feature_matrix


@dataclass(frozen=True)
class NormalizationParams:
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    ranges: tuple[float, ...]
    degenerate: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.mins)
        if not (len(self.maxs) == len(self.ranges) == len(self.degenerate) == n):
            raise ValueError("parameter tuples must have equal length")
        for lo, hi, rng, flag in zip(self.mins, self.maxs, self.ranges, self.degenerate):
            if not all(math.isfinite(x) for x in (lo, hi, rng)):
                raise ValueError("attribute extrema and range must be finite")
            if hi < lo:
                raise ValueError(f"attribute max {hi!r} is below its min {lo!r}")
            if rng != hi - lo:
                raise ValueError(f"attribute range {rng!r} is not max - min = {hi - lo!r}")
            if flag != (rng == 0.0):
                raise ValueError("degenerate flag must mark exactly the zero ranges")

    def __len__(self) -> int:
        return len(self.mins)


def fit_from_vectors(vectors: Iterable[Sequence[float]]) -> NormalizationParams:
    """Column-wise extrema over feature vectors; range = max - min."""
    rows = [tuple(float(x) for x in v) for v in vectors]
    if not rows:
        raise ValueError("cannot fit normalization on an empty training set")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("feature vectors must all have the same length")
    mins = [min(row[i] for row in rows) for i in range(width)]
    maxs = [max(row[i] for row in rows) for i in range(width)]
    return _from_extrema(mins, maxs)


def _from_extrema(mins: Sequence[float], maxs: Sequence[float]) -> NormalizationParams:
    ranges = tuple(hi - lo for lo, hi in zip(mins, maxs))
    degenerate = tuple(rng == 0.0 for rng in ranges)
    return NormalizationParams(tuple(mins), tuple(maxs), ranges, degenerate)


def fit_minmax(train: CaseBase | Iterable[Case]) -> NormalizationParams:
    """Fit scaling parameters on the training split.

    The extrema are column minima and maxima of the raw feature matrix, which
    are exact, so they equal a row-by-row scan bit for bit. A case base keeps
    them up to date as cases are added (:meth:`CaseBase.extrema`), so refitting
    it after a retain reads 13 pairs instead of reducing every row.
    """
    if isinstance(train, CaseBase):
        if not len(train):
            raise ValueError("cannot fit normalization on an empty training set")
        return _from_extrema(*train.extrema())
    features = feature_matrix(list(train))
    if not len(features):
        raise ValueError("cannot fit normalization on an empty training set")
    return _from_extrema(features.min(axis=0).tolist(), features.max(axis=0).tolist())


def normalize(vector: Sequence[float], params: NormalizationParams) -> tuple[float, ...]:
    """Scale one feature vector; degenerate attributes map to 0.

    Values outside the fitted extrema are not clamped and may fall outside
    [0, 1].
    """
    if len(vector) != len(params):
        raise ValueError(
            f"vector length {len(vector)} does not match parameters ({len(params)})"
        )
    return tuple(
        0.0 if deg else (x - lo) / rng
        for x, lo, rng, deg in zip(vector, params.mins, params.ranges, params.degenerate)
    )


def write_params(params: NormalizationParams, path) -> None:
    """Write the sidecar file mapping attribute names to min/max/range."""
    if len(params) != len(FEATURE_NAMES):
        raise ValueError("sidecar format is defined for the 13-attribute schema")
    payload = {
        name: {
            "min": params.mins[i],
            "max": params.maxs[i],
            "range": params.ranges[i],
            "degenerate": params.degenerate[i],
        }
        for i, name in enumerate(FEATURE_NAMES)
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_params(path) -> NormalizationParams:
    """Load a sidecar written by :func:`write_params`.

    Rejects hand-edited files whose extrema are not finite, whose max lies
    below its min, or whose range is not max - min.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    missing = [name for name in FEATURE_NAMES if name not in payload]
    if missing:
        raise ValueError(f"sidecar missing attributes: {', '.join(missing)}")
    mins = tuple(float(payload[name]["min"]) for name in FEATURE_NAMES)
    maxs = tuple(float(payload[name]["max"]) for name in FEATURE_NAMES)
    ranges = tuple(float(payload[name]["range"]) for name in FEATURE_NAMES)
    degenerate = tuple(bool(payload[name]["degenerate"]) for name in FEATURE_NAMES)
    return NormalizationParams(mins, maxs, ranges, degenerate)
