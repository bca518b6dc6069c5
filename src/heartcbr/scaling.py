"""Min-max scaling to [0, 1], fitted on training cases only.

Fitting records per-attribute extrema of the raw training data. Scaled
training values land in [0, 1] exactly; test values outside the training
extrema are deliberately not clamped here (the similarity kernel clamps
instead, in one place, where a local similarity can fall below 0). A
zero-range attribute is flagged degenerate and scales to 0; retrieval
compares its raw values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import sub
from typing import Iterable, Sequence

import numpy as np

from .cases import FEATURE_NAMES
from .dataset import CaseBase, _read_json, _write_json


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
        if not all(map(math.isfinite, chain(self.mins, self.maxs, self.ranges))):
            raise ValueError("attribute extrema and range must be finite")
        for lo, hi, rng, flag in zip(self.mins, self.maxs, self.ranges, self.degenerate):
            if hi < lo:
                raise ValueError(f"attribute max {hi!r} is below its min {lo!r}")
            if rng != hi - lo:
                raise ValueError(f"attribute range {rng!r} is not max - min = {hi - lo!r}")
            if flag != (rng == 0.0):
                raise ValueError("degenerate flag must mark exactly the zero ranges")

    def __len__(self) -> int:
        return len(self.mins)

    @cached_property
    def kernel_transform(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(offsets, divisors, any divisor below 1) of the kernel's ``(x - offset) / divisor``."""
        degenerate = np.array(self.degenerate, dtype=bool)
        # Offset 0.0 and divisor 1.0 keep a degenerate attribute raw, bit for bit (-0.0 too).
        arrays = np.where(degenerate, 0.0, self.mins), np.where(degenerate, 1.0, self.ranges)
        for array in arrays:
            array.flags.writeable = False  # shared by every caller of this object
        return arrays + (bool(arrays[1].min() < 1.0),)


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
    ranges = tuple(map(sub, maxs, mins))
    degenerate = tuple(rng == 0.0 for rng in ranges)
    return NormalizationParams(tuple(mins), tuple(maxs), ranges, degenerate)


def fit_minmax(train: CaseBase) -> NormalizationParams:
    """Fit scaling parameters on the training split.

    The extrema are column minima and maxima of the raw feature matrix, which
    are exact, so they equal a row-by-row scan bit for bit. The case base
    keeps them up to date as cases are added (:meth:`CaseBase.extrema`), so
    refitting reads 13 pairs, and gives the last fit's object until their bits move.
    """
    if not len(train):
        raise ValueError("cannot fit normalization on an empty training set")
    return train.fitted(_from_extrema)


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
    _write_json(path, payload)


def read_params(path) -> NormalizationParams:
    """Load a sidecar written by :func:`write_params`.

    Rejects hand-edited files whose extrema are not finite, whose max lies
    below its min, or whose range is not max - min.
    """
    payload = _read_json(path)
    missing = [name for name in FEATURE_NAMES if name not in payload]
    if missing:
        raise ValueError(f"sidecar missing attributes: {', '.join(missing)}")
    mins = tuple(float(payload[name]["min"]) for name in FEATURE_NAMES)
    maxs = tuple(float(payload[name]["max"]) for name in FEATURE_NAMES)
    ranges = tuple(float(payload[name]["range"]) for name in FEATURE_NAMES)
    degenerate = tuple(bool(payload[name]["degenerate"]) for name in FEATURE_NAMES)
    return NormalizationParams(mins, maxs, ranges, degenerate)
