"""CSV ingestion, sequential train/test splitting, and case-base persistence."""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cases import (
    FEATURE_NAMES,
    N_FEATURES,
    TARGET_NAME,
    Case,
    CaseValidationError,
    _feature_values,
    to_feature_vector,
    validate_case,
)

logger = logging.getLogger(__name__)

CANONICAL_HEADER: tuple[str, ...] = FEATURE_NAMES + (TARGET_NAME,)
# The literature around this data uses "gender" and "resttbps"; the public
# CSV uses "sex" and "trestbps". Both spellings are accepted.
HEADER_ALIASES = {"gender": "sex", "resttbps": "trestbps"}
CASE_ID_COLUMN = "case_id"
_ROW_BYTES = np.dtype((np.void, N_FEATURES * 8))  # a raw feature row as one bytes value


class DatasetError(ValueError):
    """A file could not be parsed or persisted."""


class DegenerateSplitError(DatasetError):
    """A requested split would leave the train or test side empty."""


def feature_matrix(cases: Sequence[Case]) -> np.ndarray:
    """Raw feature vectors of ``cases`` as an n x 13 float64 matrix."""
    n = len(cases)
    values = chain.from_iterable(map(_feature_values, cases))
    return np.fromiter(values, np.float64, n * N_FEATURES).reshape(n, N_FEATURES)


class CaseBase:
    """Ordered store of solved cases with stable, strictly increasing ids.

    This is the CBR memory: ids are non-negative int64 values assigned in
    insertion order and never reused, every stored case carries a target,
    and existing entries are never mutated (retain only appends). Single
    writer, any number of concurrent readers: a read must not overlap
    :meth:`add`, but reads may overlap each other, and no read changes what
    another reads.

    Retrieval reads :meth:`arrays` (raw features, ids, targets),
    :meth:`distinct` (the distinct raw feature rows) and :meth:`extrema`
    (column minima and maxima). The constructor builds them all in one
    batch, with no spare row. :meth:`add` alone makes room: when the arrays
    are full it doubles them (to at least 64 rows). It writes each new case
    into a spare row, widens the extrema, looks the row up in the distinct
    index (one dict lookup) and replaces the read-only views, so a reader
    keeps views that agree with each other. The ids array is the only copy
    of the ids; the cases are kept too, as they hold integers past 2**53
    exactly. :meth:`derived_rows` keeps one transform of the distinct rows
    (the engine's scaled rows) up to date, attribute-major.
    """

    def __init__(self, entries: Iterable[tuple[int, Case]] = ()):
        self._cases: list[Case] = []
        ids: list[int] = []
        for case_id, case in entries:
            if case.target is None:
                raise DatasetError(f"case {case_id}: stored cases must have a target")
            last = ids[-1] if ids else -1
            if not last < case_id < 2**63:
                raise DatasetError(_id_fault(case_id, last))
            ids.append(case_id)
            self._cases.append(case)
        features = feature_matrix(self._cases)
        # Column (minima, maxima) of the rows in use.
        self._lo = features.min(axis=0, initial=np.inf)
        self._hi = features.max(axis=0, initial=-np.inf)
        targets = [case.target for case in self._cases]
        built = (features, np.array(ids, dtype=np.int64), np.array(targets, dtype=np.int64))
        self._set_arrays(built + tuple(np.empty((2, len(features)), dtype=np.int64)))
        # Bytes of a raw feature row -> its distinct row, numbered in order of
        # first occurrence. Bytes keys take about a third of the memory of
        # float tuples, and the collector never scans them.
        self._first_of: dict[bytes, int] = {}
        self._index(0, len(features))
        # (key, rows, count) of derived_rows(): rows is attributes x capacity,
        # and its first count columns hold the transform of the first count
        # distinct rows. No key equals the initial object().
        self._derived: tuple[object, np.ndarray, int] = (object(), np.empty((0, 0)), 0)
        self._publish()

    @classmethod
    def from_cases(cls, cases: Iterable[Case]) -> "CaseBase":
        return cls(enumerate(cases))

    def _set_arrays(self, arrays: tuple[np.ndarray, ...]) -> None:
        # (features, ids, targets, first, columns): the first len(self) rows
        # of features, ids, targets and columns and the first len(_first_of)
        # entries of first are in use, the rest is spare. _read_only holds a
        # read-only view of each, so slices of them are read-only too.
        self._arrays = arrays
        self._read_only = tuple(array.view() for array in arrays)
        for view in self._read_only:
            view.flags.writeable = False

    def _index(self, start: int, stop: int) -> None:
        """Number feature rows ``start`` to ``stop - 1`` in the distinct index."""
        features, _, _, first, columns = self._arrays
        keys = features[start:stop].view(_ROW_BYTES).ravel().tolist()
        for row, key in enumerate(keys, start):
            n_distinct = len(self._first_of)
            column = columns[row] = self._first_of.setdefault(key, n_distinct)
            if column == n_distinct:
                first[column] = row

    def _publish(self) -> None:
        n = len(self._cases)
        features, ids, targets, first, columns = self._read_only
        self._views = (features[:n], ids[:n], targets[:n], first[: len(self._first_of)], columns[:n])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views: raw features (n x 13 float64), ids and targets (int64)."""
        return self._views[:3]

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views ``(first, columns)`` of the distinct raw feature rows (int64).

        Distinct rows are numbered in order of first occurrence: ``first[c]``
        is the position in :meth:`arrays` of the first row equal to distinct
        row c, and ``columns[r]`` is the distinct row that row r equals. Rows
        are compared on the bits of all 13 raw float64 values, never on the
        target, so copies stored under other targets share a column whose
        ``first`` is the lowest position among them. 0.0 and -0.0 differ in
        their bits, so rows that differ only there get two columns (with
        equal scores).
        """
        return self._views[3:]

    def extrema(self) -> tuple[list[float], list[float]]:
        """Column minima and maxima of the raw features (inf and -inf when empty).

        Min and max are exact, so widening them one added row at a time gives
        the same floats, signed zeros included, as reducing all of :meth:`arrays`.
        """
        return self._lo.tolist(), self._hi.tolist()

    def derived_rows(self, key, transform) -> np.ndarray:
        """Read-only ``transform`` of the distinct feature rows, cached while ``key`` stays equal.

        Row c of the result is the transform of distinct row c, the feature
        row at ``first[c]`` of :meth:`distinct`. ``transform`` must map each
        feature row on its own (elementwise), so transforming only the
        distinct rows added since the last call gives the same bits as
        transforming them all. The cache is attribute-major (attributes x
        capacity): the result is the transpose of its first c columns, a
        c x attributes view whose ``.T`` has one contiguous row per attribute.
        New rows are written into spare columns; a key that is not equal to
        the cached one transforms every distinct row into a new array, so
        views handed out earlier never change.
        """
        features, _, _, first, _ = self._views
        n = len(first)
        capacity = len(self._arrays[0])
        cached_key, rows, done = self._derived
        if cached_key != key:
            rows = np.empty(features.shape[1:] + (capacity,))
            rows[:, :n] = transform(features.take(first, axis=0)).T
        else:
            if rows.shape[1] < capacity:
                grown = np.empty(rows.shape[:1] + (capacity,))
                grown[:, :done] = rows[:, :done]
                rows = grown
            if done < n:
                rows[:, done:n] = transform(features.take(first[done:n], axis=0)).T
        self._derived = (key, rows, n)
        view = rows[:, :n]
        view.flags.writeable = False
        return view.T

    def add(self, case: Case) -> int:
        """Append a solved case under a fresh id and return that id."""
        row = len(self._cases)
        case_id = int(self._arrays[1][row - 1]) + 1 if row else 0
        if case.target is None:
            raise DatasetError(f"case {case_id}: stored cases must have a target")
        if case_id == 2**63:
            raise DatasetError(f"no case id left: the last id is {case_id - 1}, the largest below 2**63")
        if row == len(self._arrays[0]):
            self._set_arrays(tuple(_grown(array, max(2 * row, 64)) for array in self._arrays))
        features, ids, targets, _, _ = self._arrays
        features[row] = to_feature_vector(case)
        ids[row] = case_id
        targets[row] = case.target
        # np.minimum/np.maximum are the ufuncs behind the column reductions in
        # __init__, so ties between 0.0 and -0.0 resolve the same way.
        self._lo = np.minimum(self._lo, features[row])
        self._hi = np.maximum(self._hi, features[row])
        self._index(row, row + 1)
        self._cases.append(case)
        self._publish()
        return case_id

    def cases(self) -> list[Case]:
        return list(self._cases)

    def ids(self) -> list[int]:
        return self._views[1].tolist()

    def __iter__(self) -> Iterator[tuple[int, Case]]:
        return zip(self.ids(), self._cases)

    def __len__(self) -> int:
        return len(self._cases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseBase):
            return NotImplemented
        return self.ids() == other.ids() and self._cases == other._cases

    def __repr__(self) -> str:
        return f"CaseBase(n={len(self)})"


def _id_fault(case_id: int, last: int) -> str:
    """Why ``case_id`` may not follow ``last`` (-1 before the first id)."""
    if case_id == last >= 0:
        return f"duplicate case_id {case_id}"
    return f"case_id {case_id} outside [{last + 1}, 2**63)"


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

    ``source`` is a path, opened as UTF-8, or an open text stream, left open.
    Blank rows are skipped; a row of another width than the header raises
    :class:`DatasetError` citing its 1-based file line. Close the generator
    (``contextlib.closing``) to release a file opened here.
    """
    if isinstance(source, (str, Path)):
        opened = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, io.TextIOBase):
        opened = nullcontext(source)
    else:
        raise TypeError(f"unsupported source type {type(source)!r}")
    with opened as stream:
        reader = csv.reader(stream)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise DatasetError("empty file: no header row") from None
        positions = _resolve_header(raw_header, allow_case_id=allow_case_id)
        yield positions
        width = len(raw_header)
        names = tuple(positions)
        # The header has at least the 13 attribute columns, so the getter
        # always returns a tuple.
        cells = itemgetter(*positions.values())
        for line_no, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) != width:
                raise DatasetError(
                    f"line {line_no}: expected {width} fields, found {len(row)}"
                )
            yield line_no, dict(zip(names, cells(row)))


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


_case_values = attrgetter(*FEATURE_NAMES, TARGET_NAME)
# The 13 attribute fields of a row, formatted in one C-level pass: %d prints
# a number as str(int(v)) does, and %r prints oldpeak, which validate_case
# makes a float, as repr(float(v)) does. Neither prints a comma.
_ATTRIBUTE_FIELDS = ",".join("%r" if name == "oldpeak" else "%d" for name in FEATURE_NAMES)


def _case_fields(case: Case) -> list[str]:
    """The canonical-header fields of ``case``; an absent target is left empty."""
    values = _case_values(case)
    row = (_ATTRIBUTE_FIELDS % values[:N_FEATURES]).split(",")
    target = values[N_FEATURES]
    row.append("" if target is None else str(target))
    return row


def _write_rows(sink, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV with LF line ends, to a path or an open text stream."""
    own = not hasattr(sink, "write")
    stream = open(sink, "w", encoding="utf-8", newline="") if own else sink
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if own:
            stream.close()


# Exact types that a record template prints with repr(), which is what
# json.dumps prints for their finite values; bool and other subclasses are not here.
_PLAIN_NUMBERS = frozenset({int, float})


def _record_texts(records, indent: str) -> list[str] | None:
    """The JSON text of each record, or None unless all share one template.

    They do when ``records`` are dicts (exactly) with one set of str keys and
    only plain, finite int and float values. Each record is then rendered
    through one ``str.format`` template, its closing brace at ``indent``.
    """
    first = records[0]
    if not (set(map(type, records)) == {dict} and first and set(map(type, first)) == {str}):
        return None
    keys = sorted(first)
    # Records as long as the first that hold each of its keys have its key set.
    if set(map(len, records)) != {len(keys)}:
        return None
    try:
        rows = list(zip(*[map(itemgetter(key), records) for key in keys]))
    except KeyError:
        return None
    flat = list(chain.from_iterable(rows))
    if not _PLAIN_NUMBERS.issuperset(map(type, flat)):
        return None
    try:
        # fsum is finite only if every value is: nan and inf survive the sum.
        if not math.isfinite(math.fsum(flat)):
            return None
    except (OverflowError, ValueError):
        return None
    inner = indent + "  "
    fields = ",\n".join(inner + json.dumps(key).replace("{", "{{").replace("}", "}}") + ": {!r}" for key in keys)
    return list(starmap(f"{{{{\n{fields}\n{indent}}}}}".format, rows))


def _json_key(key) -> str:
    """A dict key as JSON text, under the rules of ``json.dumps``."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, nested lines prefixed by ``indent``.

    Lists of records go through :func:`_record_texts` when they can, every
    other container through this recursion, and scalars through ``json.dumps``.
    A value that ``json.dumps`` rejects is rejected too; a circular one ends
    in RecursionError rather than ValueError.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = _record_texts(value, inner) or [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_json_key(key) + ": " + _json_text(item, inner) for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(value)


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


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
    with closing(_records(source, allow_case_id=True)) as records:
        positions = next(records)
        if CASE_ID_COLUMN not in positions:
            raise DatasetError("missing case_id column")
        if TARGET_NAME not in positions:
            raise DatasetError("missing target column")
        last = -1
        for line_no, raw in records:
            try:
                case_id = int(raw.pop(CASE_ID_COLUMN))
            except ValueError:
                raise DatasetError(f"line {line_no}: non-integer case_id") from None
            if not last < case_id < 2**63:
                raise DatasetError(f"line {line_no}: {_id_fault(case_id, last)}")
            last = case_id
            try:
                case, _ = validate_case(raw, "lenient")
            except CaseValidationError as exc:
                raise DatasetError(f"line {line_no}: {exc}") from exc
            if case.target is None:
                raise DatasetError(f"line {line_no}: stored case missing target")
            entries.append((case_id, case))
    return CaseBase(entries)
