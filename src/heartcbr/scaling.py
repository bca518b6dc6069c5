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
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import sub
from typing import Iterable, Sequence

import numpy as np

from .cases import FEATURE_NAMES
from .dataset import CaseBase, _read_json, _write_json

_SIDECAR_KEYS = ("min", "max", "range", "degenerate")  # of each attribute in normalization.json


@dataclass(frozen=True)
class NormalizationParams:
    """Per-attribute training extrema; ``ranges`` (max - min) and ``degenerate`` (range 0) follow from them."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    ranges: tuple[float, ...] = field(init=False, repr=False, compare=False)
    degenerate: tuple[bool, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ValueError("parameter tuples must have equal length")
        object.__setattr__(self, "mins", tuple(self.mins))
        object.__setattr__(self, "maxs", tuple(self.maxs))
        ranges = tuple(map(sub, self.maxs, self.mins))
        if not all(map(math.isfinite, chain(self.mins, self.maxs, ranges))):
            raise ValueError("attribute extrema and range must be finite")
        for lo, hi in zip(self.mins, self.maxs):
            if hi < lo:
                raise ValueError(f"attribute max {hi!r} is below its min {lo!r}")
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "degenerate", tuple(rng == 0.0 for rng in ranges))

    def __len__(self) -> int:
        return len(self.mins)

    @cached_property
    def _kernel_transform(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(offsets, divisors, any divisor below 1) of :meth:`kernel_rows`' ``(x - offset) / divisor``."""
        degenerate = np.array(self.degenerate, dtype=bool)
        # Offset 0.0 and divisor 1.0 keep a degenerate attribute raw, bit for bit (-0.0 too).
        arrays = np.where(degenerate, 0.0, self.mins), np.where(degenerate, 1.0, self.ranges)
        for array in arrays:
            array.flags.writeable = False  # shared by every caller of this object
        return arrays + (bool(arrays[1].min() < 1.0),)

    def kernel_rows(self, features: np.ndarray) -> np.ndarray:
        """The retrieval kernel's rows for raw feature rows: ``(x - min) / range``, raw on degenerate attributes."""
        if features.shape[1] != len(self):
            raise ValueError(f"{features.shape[1]} attributes do not match parameters ({len(self)})")
        offsets, divisors, small_range = self._kernel_transform
        rows = features - offsets
        # A range below 1 can scale a finite value past the largest float; the
        # kernel's clamp scores that inf 0. Entering errstate costs more than
        # the division itself, so it is entered only then.
        with np.errstate(over="ignore") if small_range else nullcontext():
            rows /= divisors
        return rows


def fit_from_vectors(vectors: Iterable[Sequence[float]]) -> NormalizationParams:
    """Column-wise extrema over feature vectors."""
    rows = [tuple(float(x) for x in v) for v in vectors]
    if not rows:
        raise ValueError("cannot fit normalization on an empty training set")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("feature vectors must all have the same length")
    columns = list(zip(*rows))
    return NormalizationParams(tuple(map(min, columns)), tuple(map(max, columns)))


def fit_minmax(train: CaseBase) -> NormalizationParams:
    """Fit scaling parameters on the training split: its exact column extrema.

    The case base keeps them up to date as cases are added (:meth:`CaseBase.extrema`),
    so refitting reads 13 pairs, and gives the last fit's object until their bits move.
    """
    if not len(train):
        raise ValueError("cannot fit normalization on an empty training set")
    return train.fitted(NormalizationParams)


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
    """Write the sidecar file mapping attribute names to min/max/range/degenerate."""
    if len(params) != len(FEATURE_NAMES):
        raise ValueError("sidecar format is defined for the 13-attribute schema")
    columns = zip(params.mins, params.maxs, params.ranges, params.degenerate)
    _write_json(path, {name: dict(zip(_SIDECAR_KEYS, entry)) for name, entry in zip(FEATURE_NAMES, columns)})


def read_params(path) -> NormalizationParams:
    """Load a sidecar written by :func:`write_params`.

    A :class:`ValueError` rejects a hand-edited file that lacks an attribute
    object or one of its four keys, whose min, max or range is not a finite
    JSON number, whose max lies below its min, whose range is not max - min,
    or whose degenerate flag is not the JSON boolean ``range == 0``.
    """
    payload = _read_json(path)
    missing = [name for name in FEATURE_NAMES if not isinstance(payload, dict) or name not in payload]
    if missing:
        raise ValueError(f"sidecar missing attributes: {', '.join(missing)}")
    entries = [payload[name] for name in FEATURE_NAMES]
    for name, entry in zip(FEATURE_NAMES, entries):
        absent = [key for key in _SIDECAR_KEYS if key not in entry] if isinstance(entry, dict) else ["min"]
        if absent:
            raise ValueError(f"sidecar attribute {name} has no {absent[0]!r}")
        if not {int, float}.issuperset(type(entry[key]) for key in ("min", "max", "range")):
            raise ValueError(f"sidecar attribute {name}: min, max and range must be JSON numbers")
    try:
        mins, maxs, ranges = ([float(entry[key]) for entry in entries] for key in ("min", "max", "range"))
    except OverflowError:  # an integer past the float range
        raise ValueError("attribute extrema and range must be finite") from None
    params = NormalizationParams(mins, maxs)
    if not all(map(math.isfinite, ranges)):
        raise ValueError("attribute extrema and range must be finite")
    for entry, rng, derived, flag in zip(entries, ranges, params.ranges, params.degenerate):
        if rng != derived:
            raise ValueError(f"attribute range {rng!r} is not max - min = {derived!r}")
        if entry["degenerate"] is not flag:  # a JSON true or false alone
            raise ValueError("degenerate flag must mark exactly the zero ranges")
    return params
