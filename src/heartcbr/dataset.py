"""CSV ingestion, sequential train/test splitting, and case-base persistence."""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .cases import (
    FEATURE_NAMES,
    N_FEATURES,
    TARGET_NAME,
    Case,
    CaseValidationError,
    to_feature_vector,
    validate_case,
)

logger = logging.getLogger(__name__)

CANONICAL_HEADER: tuple[str, ...] = FEATURE_NAMES + (TARGET_NAME,)
# The literature around this data uses "gender" and "resttbps"; the public
# CSV uses "sex" and "trestbps". Both spellings are accepted.
HEADER_ALIASES = {"gender": "sex", "resttbps": "trestbps"}
CASE_ID_COLUMN = "case_id"


class DatasetError(ValueError):
    """A file could not be parsed or persisted."""


class DegenerateSplitError(DatasetError):
    """A requested split would leave the train or test side empty."""


def feature_matrix(cases: Sequence[Case]) -> np.ndarray:
    """Raw feature vectors of ``cases`` as an n x 13 float64 matrix."""
    rows = [to_feature_vector(case) for case in cases]
    return np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES)


class CaseBase:
    """Ordered store of solved cases with stable, strictly increasing ids.

    This is the CBR memory: ids are assigned in insertion order and never
    reused, every stored case carries a target, and existing entries are
    never mutated (retain only appends). Single writer, any number of
    concurrent readers.

    Retrieval reads the base through :meth:`arrays`, a raw feature matrix
    with the ids and targets beside it. It is built on first use, so parsing
    and splitting never pay for it, and from then on :meth:`add` writes each
    new case into spare rows instead of rebuilding it. The same first use
    takes the column extrema (:meth:`extrema`), which :meth:`add` then
    widens with the new row alone, and :meth:`derived_rows` keeps one
    transform of the matrix (the engine's scaled rows) up to date the same way.
    """

    def __init__(self, entries: Iterable[tuple[int, Case]] = ()):
        self._ids: list[int] = []
        self._cases: list[Case] = []
        # (features, ids, targets), built by arrays(): the first len(self) rows
        # are in use, the rest is spare. Replaced as a whole, so a reader never
        # sees one column without the others.
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Column (minima, maxima) of the first len(self) feature rows, built
        # with _columns.
        self._extrema: tuple[np.ndarray, np.ndarray] | None = None
        # (key, rows, count) of derived_rows(): the first count rows hold the
        # transform of the first count feature rows.
        self._derived: tuple[object, np.ndarray, int] | None = None
        for case_id, case in entries:
            self._insert(case_id, case)

    @classmethod
    def from_cases(cls, cases: Iterable[Case]) -> "CaseBase":
        base = cls()
        for case in cases:
            base.add(case)
        return base

    def _insert(self, case_id: int, case: Case) -> None:
        if case.target is None:
            raise DatasetError(f"case {case_id}: stored cases must have a target")
        if self._ids and case_id <= self._ids[-1]:
            raise DatasetError(
                f"case_id {case_id} not strictly increasing (last was {self._ids[-1]})"
            )
        if case_id < 0:
            raise DatasetError(f"case_id {case_id} must be non-negative")
        if self._columns is not None:
            self._append_row(case_id, case)
        self._ids.append(case_id)
        self._cases.append(case)

    def _append_row(self, case_id: int, case: Case) -> None:
        row = len(self._ids)
        if row == len(self._columns[0]):
            self._columns = tuple(_grown(column, 2 * row) for column in self._columns)
        features, ids, targets = self._columns
        features[row] = to_feature_vector(case)
        ids[row] = case_id
        targets[row] = case.target
        # np.minimum/np.maximum are the ufuncs behind the column reduction in
        # arrays(), so ties between 0.0 and -0.0 resolve the same way.
        lo, hi = self._extrema
        self._extrema = np.minimum(lo, features[row]), np.maximum(hi, features[row])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views: raw features (n x 13 float64), ids and targets (int64)."""
        columns = self._columns
        if columns is None:
            capacity = max(2 * len(self._cases), 64)
            targets = [case.target for case in self._cases]
            built = (
                feature_matrix(self._cases),
                np.array(self._ids, dtype=np.int64),
                np.array(targets, dtype=np.int64),
            )
            features = built[0]
            self._extrema = features.min(axis=0, initial=np.inf), features.max(axis=0, initial=-np.inf)
            columns = self._columns = tuple(_grown(column, capacity) for column in built)
        views = tuple(column[: len(self._ids)] for column in columns)
        for view in views:
            view.flags.writeable = False
        return views

    def extrema(self) -> tuple[list[float], list[float]]:
        """Column minima and maxima of the raw features (inf and -inf when empty).

        Min and max are exact, so widening them one added row at a time gives
        the same floats, signed zeros included, as reducing all of :meth:`arrays`.
        """
        self.arrays()
        lo, hi = self._extrema
        return lo.tolist(), hi.tolist()

    def derived_rows(self, key, transform) -> np.ndarray:
        """Read-only ``transform(features)`` of :meth:`arrays`, cached while ``key`` stays equal.

        ``transform`` must map each feature row on its own (elementwise), so
        transforming only the rows added since the last call gives the same
        bits as transforming the whole matrix. Those rows are written into
        spare rows; a key that is not equal to the cached one transforms the
        whole matrix into a new array, so views handed out earlier never change.
        """
        features = self.arrays()[0]
        n = len(features)
        capacity = len(self._columns[0])
        cached = self._derived
        if cached is None or cached[0] != key:
            rows = np.empty((capacity,) + features.shape[1:])
            rows[:n] = transform(features)
        else:
            _, rows, done = cached
            if len(rows) < capacity:
                rows = _grown(rows[:done], capacity)
            if done < n:
                rows[done:n] = transform(features[done:n])
        self._derived = (key, rows, n)
        view = rows[:n]
        view.flags.writeable = False
        return view

    def add(self, case: Case) -> int:
        """Append a solved case under a fresh id and return that id."""
        case_id = self._ids[-1] + 1 if self._ids else 0
        self._insert(case_id, case)
        return case_id

    def cases(self) -> list[Case]:
        return list(self._cases)

    def ids(self) -> list[int]:
        return list(self._ids)

    def __iter__(self) -> Iterator[tuple[int, Case]]:
        return iter(zip(self._ids, self._cases))

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseBase):
            return NotImplemented
        return self._ids == other._ids and self._cases == other._cases

    def __repr__(self) -> str:
        return f"CaseBase(n={len(self)})"


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """A copy of ``array`` with room for ``capacity`` rows."""
    bigger = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    bigger[: len(array)] = array
    return bigger


@dataclass(frozen=True)
class SplitResult:
    """Sequential split: train precedes test in original file order."""

    train: CaseBase
    test: tuple[Case, ...]


def _open_source(source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8")), False
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data), False
    raise TypeError(f"unsupported source type {type(source)!r}")


def _resolve_header(raw_header: list[str], *, allow_case_id: bool) -> dict[str, int]:
    """Map canonical column names to positions, applying aliases."""
    positions: dict[str, int] = {}
    for idx, raw_name in enumerate(raw_header):
        name = raw_name.strip().lower()
        name = HEADER_ALIASES.get(name, name)
        if name == CASE_ID_COLUMN and allow_case_id:
            pass
        elif name not in CANONICAL_HEADER:
            raise DatasetError(f"unknown column {raw_name!r}")
        if name in positions:
            raise DatasetError(f"duplicate column {raw_name!r}")
        positions[name] = idx
    missing = [name for name in FEATURE_NAMES if name not in positions]
    if missing:
        raise DatasetError(f"missing columns: {', '.join(missing)}")
    return positions


def _records(source, *, allow_case_id: bool) -> Iterator:
    """Yield the header's column positions, then ``(line number, fields by name)``.

    Blank rows are skipped; a row of another width than the header raises
    :class:`DatasetError` citing its 1-based file line. Close the generator
    (``contextlib.closing``) to release a file opened here.
    """
    stream, should_close = _open_source(source)
    try:
        reader = csv.reader(stream)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise DatasetError("empty file: no header row") from None
        positions = _resolve_header(raw_header, allow_case_id=allow_case_id)
        yield positions
        width = len(raw_header)
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != width:
                raise DatasetError(
                    f"line {line_no}: expected {width} fields, found {len(row)}"
                )
            yield line_no, {name: row[idx] for name, idx in positions.items()}
    finally:
        if should_close:
            stream.close()


def parse_csv(source, mode: str = "lenient") -> list[Case]:
    """Read a heart-disease CSV into cases, preserving file order.

    The first row must be a header with the 13 attribute columns (aliases
    accepted, case-insensitive); a target column is optional. Row-level
    failures raise :class:`DatasetError` citing the 1-based file line.
    Lenient-mode domain warnings are aggregated into one log message.
    """
    cases: list[Case] = []
    warning_counts: Counter[str] = Counter()
    with closing(_records(source, allow_case_id=False)) as records:
        next(records)
        for line_no, raw in records:
            try:
                case, warnings = validate_case(raw, mode)
            except CaseValidationError as exc:
                raise DatasetError(f"line {line_no}: {exc}") from exc
            for message in warnings:
                warning_counts[message.split(":", 1)[0]] += 1
            cases.append(case)

    if warning_counts:
        logger.warning(
            "accepted %d out-of-domain values in lenient mode: %s",
            sum(warning_counts.values()),
            dict(warning_counts),
        )
    return cases


def _as_fraction(train_fraction) -> Fraction:
    # Fractions given as floats are read back through their shortest decimal
    # repr, so 0.6 means six tenths exactly and floor(5 * 0.6) is 3.
    if isinstance(train_fraction, Fraction):
        return train_fraction
    if isinstance(train_fraction, float):
        return Fraction(str(train_fraction))
    return Fraction(train_fraction)


def split_sequential(cases: list[Case], train_fraction=Fraction(3, 5)) -> SplitResult:
    """Split by file order: first floor(n * fraction) cases train, rest test."""
    if not cases:
        raise DatasetError("cannot split an empty case list")
    fraction = _as_fraction(train_fraction)
    if not 0 < fraction < 1:
        raise DatasetError(f"train fraction {fraction} outside (0, 1)")
    n_train = math.floor(len(cases) * fraction)
    if n_train < 1 or n_train >= len(cases):
        raise DegenerateSplitError(
            f"split of {len(cases)} cases at fraction {fraction} leaves an empty side"
        )
    train = CaseBase.from_cases(cases[:n_train])
    return SplitResult(train=train, test=tuple(cases[n_train:]))


def _format_value(name: str, value) -> str:
    if name == "oldpeak":
        return repr(float(value))
    return str(int(value))


def _case_fields(case: Case) -> list[str]:
    """The canonical-header fields of ``case``; an absent target is left empty."""
    row = [_format_value(name, getattr(case, name)) for name in FEATURE_NAMES]
    row.append("" if case.target is None else str(case.target))
    return row


def _write_rows(sink, header: Sequence[str], rows: Iterable[list[str]]) -> None:
    own = isinstance(sink, (str, Path))
    stream = open(sink, "w", encoding="utf-8", newline="") if own else sink
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if own:
            stream.close()


def write_cases(cases: Iterable[Case], sink) -> None:
    """Write cases as a canonical-header CSV readable by :func:`parse_csv`."""
    _write_rows(sink, CANONICAL_HEADER, map(_case_fields, cases))


def write_case_base(case_base: CaseBase, sink) -> None:
    """Persist a case base as CSV: case_id column plus the canonical header."""
    rows = ([str(case_id), *_case_fields(case)] for case_id, case in case_base)
    _write_rows(sink, (CASE_ID_COLUMN,) + CANONICAL_HEADER, rows)


def read_case_base(source) -> CaseBase:
    """Reload a case base written by :func:`write_case_base`, losslessly."""
    entries: list[tuple[int, Case]] = []
    seen_ids: set[int] = set()
    with closing(_records(source, allow_case_id=True)) as records:
        positions = next(records)
        if CASE_ID_COLUMN not in positions:
            raise DatasetError("missing case_id column")
        if TARGET_NAME not in positions:
            raise DatasetError("missing target column")
        for line_no, raw in records:
            try:
                case_id = int(raw.pop(CASE_ID_COLUMN))
            except ValueError:
                raise DatasetError(f"line {line_no}: non-integer case_id") from None
            if case_id in seen_ids:
                raise DatasetError(f"line {line_no}: duplicate case_id {case_id}")
            seen_ids.add(case_id)
            try:
                case, _ = validate_case(raw, "lenient")
            except CaseValidationError as exc:
                raise DatasetError(f"line {line_no}: {exc}") from exc
            if case.target is None:
                raise DatasetError(f"line {line_no}: stored case missing target")
            entries.append((case_id, case))
    try:
        return CaseBase(entries)
    except DatasetError as exc:
        raise DatasetError(f"invalid persisted case base: {exc}") from exc
