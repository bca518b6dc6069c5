"""CSV ingestion, sequential train/test splitting, and case-base persistence.

Every file written here is overwritten in place (:func:`_overwritten`), so no
write is atomic: callers that need atomicity write a temporary sibling and
``os.replace`` it, as ``predict --retain`` does.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import stat
from collections import Counter
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cases import (
    BLOCK_ROWS,
    FEATURE_NAMES,
    INT_BOUND,
    _INT_NAMES,
    N_FEATURES,
    TARGET_NAME,
    Case,
    CaseValidationError,
    _feature_values,
    _int_values,
    accepted_block,
    bounded,
    check_mode,
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
_OLDPEAK_AT = FEATURE_NAMES.index("oldpeak")
_INT_AT = [at for at in range(N_FEATURES) if at != _OLDPEAK_AT]


class DatasetError(ValueError):
    """A file could not be parsed or persisted."""


class DegenerateSplitError(DatasetError):
    """A requested split would leave the train or test side empty."""


def feature_matrix(cases: Sequence[Case]) -> np.ndarray:
    """Raw feature vectors of ``cases`` as an n x 13 float64 matrix."""
    values = chain.from_iterable(map(_feature_values, cases))
    return np.fromiter(values, np.float64, len(cases) * N_FEATURES).reshape(-1, N_FEATURES)


class CaseBase:
    """Ordered store of solved cases with stable, strictly increasing ids.

    This is the CBR memory: ids are non-negative int64 values assigned in
    insertion order and never reused, every stored case carries a target,
    and existing entries are never mutated (retain only appends). Single
    writer, any number of concurrent readers: a read must not overlap
    :meth:`add`, and no read changes what another reads.

    The arrays are the store. Every integer attribute lies within 2**53
    (:func:`cases.bounded`), so float64 holds it exactly, and :meth:`cases`
    builds the :class:`Case` objects from the arrays on first use; a base
    built from cases keeps the list it was given. Retrieval reads
    :meth:`arrays`, :meth:`distinct` and :meth:`extrema`, built in one batch
    with no spare row. :meth:`add` alone makes room, doubling the arrays (to
    at least 64 rows) when full; it writes the new row, widens the extrema,
    looks the row up in the distinct index and replaces the read-only views,
    so a reader keeps views that agree with each other. It alone invalidates
    the caches, :meth:`derived_rows` and :meth:`fitted`.
    """

    def __init__(self, entries: Iterable[tuple[int, Case]] = ()):
        cases: list[Case] = []
        ids: list[int] = []
        for case_id, case in entries:
            if case.target is None:
                raise DatasetError(f"case {case_id}: stored cases must have a target")
            last = ids[-1] if ids else -1
            if not last < case_id < 2**63:
                raise DatasetError(_id_fault(case_id, last))
            ids.append(case_id)
            cases.append(case)
        features = feature_matrix(cases)  # OverflowError for an integer past the float range
        # float() is monotone: only a row that reaches 2**53 may hold an integer past it.
        for row in np.flatnonzero(np.abs(features).max(axis=1, initial=0.0) >= INT_BOUND):
            _check_bounds(ids[row], cases[row])
        targets = [case.target for case in cases]
        self._build(features, np.array(ids, dtype=np.int64), np.array(targets, dtype=np.int64), cases)

    @classmethod
    def from_cases(cls, cases: Iterable[Case]) -> "CaseBase":
        return cls(enumerate(cases))

    def _build(self, features, ids, targets, cases: list[Case] | None) -> None:
        """The store over n x 13 float64 features, int64 ids and targets; None ``cases`` are built on demand."""
        self._cases = cases
        # Column (minima, maxima) of the rows in use.
        self._lo = features.min(axis=0, initial=np.inf)
        self._hi = features.max(axis=0, initial=-np.inf)
        self._set_arrays((features, ids, targets) + tuple(np.empty((2, len(features)), dtype=np.int64)))
        # Bytes of a raw feature row -> its distinct row, numbered in order of
        # first occurrence. Bytes keys take about a third of the memory of
        # float tuples, and the collector never scans them.
        self._first_of: dict[bytes, int] = {}
        self._index(0, len(features))
        # (params, rows, count) of derived_rows(): rows is attributes x capacity,
        # and its first count columns hold the kernel rows of the first count
        # distinct rows. No params equal the initial object().
        self._derived: tuple[object, np.ndarray, int] = (object(), np.empty((0, 0)), 0)
        self._fitted: tuple = (None, None)  # (key, value) of fitted()
        self._publish(len(features))

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

    def _publish(self, n: int) -> None:
        features, ids, targets, first, columns = self._read_only
        self._views = (features[:n], ids[:n], targets[:n], first[: len(self._first_of)], columns[:n])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views: raw features (n x 13 float64), ids and targets (int64)."""
        return self._views[:3]

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views ``(first, columns)`` of the distinct raw feature rows (int64).

        Distinct rows are numbered in order of first occurrence: ``first[c]``
        is the position in :meth:`arrays` of the first row equal to distinct
        row c, and ``columns[r]`` the distinct row that row r equals. Rows are
        compared on the bits of their 13 raw values, never on the target, so
        0.0 and -0.0 make two columns (with equal scores).
        """
        return self._views[3:]

    def extrema(self) -> tuple[list[float], list[float]]:
        """Column minima and maxima of the raw features (inf and -inf when empty).

        They are exact, so widening them row by row gives the bits, signed zeros included, of reducing all rows.
        """
        return self._lo.tolist(), self._hi.tolist()

    def fitted(self, fit):
        """``fit(*self.extrema())``, the same object until an :meth:`add` moves an extremum's bits."""
        key = (self._lo.tobytes(), self._hi.tobytes(), fit)  # bits: 0.0 and -0.0 differ
        if self._fitted[0] != key:
            self._fitted = (key, fit(*self.extrema()))
        return self._fitted[1]

    def derived_rows(self, params) -> np.ndarray:
        """Read-only ``params.kernel_rows`` of the distinct feature rows, cached while the params stay equal.

        ``kernel_rows`` scales each row on its own, so scaling only the rows
        added since the last call gives the bits of scaling them all. The cache
        is attribute-major (attributes x capacity), so the result's ``.T`` has
        one contiguous row per attribute. New params scale every distinct row
        into a new array, so views handed out earlier never change.
        """
        features, _, _, first, _ = self._views
        n = len(first)
        capacity = len(self._arrays[0])
        cached, rows, done = self._derived
        if cached is not params and cached != params:
            rows = np.empty(features.shape[1:] + (capacity,))
            rows[:, :n] = params.kernel_rows(features.take(first, axis=0)).T
        else:
            if rows.shape[1] < capacity:
                grown = np.empty(rows.shape[:1] + (capacity,))
                grown[:, :done] = rows[:, :done]
                rows = grown
            if done < n:
                rows[:, done:n] = params.kernel_rows(features.take(first[done:n], axis=0)).T
        self._derived = (params, rows, n)
        view = rows[:, :n]
        view.flags.writeable = False
        return view.T

    def add(self, case: Case) -> int:
        """Append a solved case under a fresh id and return that id."""
        row = len(self)
        case_id = int(self._arrays[1][row - 1]) + 1 if row else 0
        if case.target is None:
            raise DatasetError(f"case {case_id}: stored cases must have a target")
        if case_id == 2**63:
            raise DatasetError(f"no case id left: the last id is {case_id - 1}, the largest below 2**63")
        vector = to_feature_vector(case)  # OverflowError for an integer past the float range
        if not (-INT_BOUND < min(vector) and max(vector) < INT_BOUND):  # float() is monotone
            _check_bounds(case_id, case)
        if row == len(self._arrays[0]):
            self._set_arrays(tuple(_grown(array, max(2 * row, 64)) for array in self._arrays))
        features, ids, targets, _, _ = self._arrays
        features[row] = vector
        ids[row] = case_id
        targets[row] = case.target
        # np.minimum/np.maximum are the ufuncs behind _build's column reductions: 0.0 and -0.0 tie alike.
        self._lo = np.minimum(self._lo, features[row])
        self._hi = np.maximum(self._hi, features[row])
        self._index(row, row + 1)
        if self._cases is not None:
            self._cases.append(case)
        self._publish(row + 1)
        return case_id

    def _columns(self) -> list[list]:
        """The 13 attributes (ints, oldpeak a float) and the targets as stored, one list per column."""
        features, _, targets, _, _ = self._views
        columns = features[:, _INT_AT].T.astype(np.int64).tolist()
        columns.insert(_OLDPEAK_AT, features[:, _OLDPEAK_AT].tolist())
        return columns + [targets.tolist()]

    def cases(self) -> list[Case]:
        if self._cases is None:
            self._cases = list(map(Case, *self._columns()))
        return list(self._cases)

    def ids(self) -> list[int]:
        return self._views[1].tolist()

    def __iter__(self) -> Iterator[tuple[int, Case]]:
        return zip(self.ids(), self.cases())

    def __len__(self) -> int:
        return len(self._views[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseBase):
            return NotImplemented
        return self.ids() == other.ids() and self.cases() == other.cases()


def _check_bounds(case_id: int, case: Case) -> None:
    """Raise :class:`DatasetError` unless :func:`cases.bounded` takes each integer attribute of ``case``."""
    try:
        for name, value in zip(_INT_NAMES, _int_values(case)):
            bounded(name, value)
    except CaseValidationError as exc:
        raise DatasetError(f"case {case_id}: {exc}") from None


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


def _resolve_header(raw_header: list[str], *, case_ids: bool, stored: bool) -> dict[str, int]:
    """Map canonical column names to positions, applying aliases.

    One byte-order mark (U+FEFF) is dropped from the start of the first
    name, as Excel's "CSV UTF-8" writes one; anywhere else it is kept. The
    13 attribute columns are required, then a case_id column for a case-base
    read (``case_ids``), then a target column for a ``stored`` read.
    """
    positions: dict[str, int] = {}
    for idx, raw_name in enumerate(raw_header):
        name = (raw_name if idx else raw_name.removeprefix("\ufeff")).strip().lower()
        name = HEADER_ALIASES.get(name, name)
        if name == CASE_ID_COLUMN and case_ids:
            pass
        elif name not in CANONICAL_HEADER:
            raise DatasetError(f"unknown column {raw_name!r}")
        if name in positions:
            raise DatasetError(f"duplicate column {raw_name!r}")
        positions[name] = idx
    missing = [name for name in FEATURE_NAMES if name not in positions]
    if missing:
        raise DatasetError(f"missing columns: {', '.join(missing)}")
    if case_ids and CASE_ID_COLUMN not in positions:
        raise DatasetError("missing case_id column")
    if stored and TARGET_NAME not in positions:
        raise DatasetError("missing target column")
    return positions


def _blocks(source, *, case_ids: bool = False, stored: bool = False) -> Iterator:
    """Yield the header's column positions, then ``(line numbers, rows)`` of up to BLOCK_ROWS rows.

    ``source`` is a path, opened as UTF-8, or an open text stream, left open.
    Blank rows are skipped. A row of another width than the header raises
    :class:`DatasetError` citing its 1-based file line, after the rows before
    it are yielded; so does a byte of a path that is not UTF-8, found by
    reading the file again (the stream decodes ahead, so rows just before it
    may not be yielded). A block's lists are emptied in place for the next.
    Close the generator (``contextlib.closing``) to release the file.
    """
    if isinstance(source, (str, Path)):
        opened = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, io.TextIOBase):
        opened = nullcontext(source)
    else:
        raise TypeError(f"unsupported source type {type(source)!r}")
    try:
        with opened as stream:
            reader = csv.reader(stream)
            try:
                raw_header = next(reader)
            except StopIteration:
                raise DatasetError("empty file: no header row") from None
            yield _resolve_header(raw_header, case_ids=case_ids, stored=stored)
            width = len(raw_header)
            lines: list[int] = []
            rows: list[list[str]] = []
            for line_no, row in enumerate(reader, start=2):
                if not any(map(str.strip, row)):
                    continue
                if len(row) != width:
                    if rows:
                        yield lines, rows
                    raise DatasetError(f"line {line_no}: expected {width} fields, found {len(row)}")
                lines.append(line_no)
                rows.append(row)
                if len(rows) == BLOCK_ROWS:
                    yield lines, rows
                    lines.clear()
                    rows.clear()
            if rows:
                yield lines, rows
    except UnicodeDecodeError:
        if not isinstance(source, (str, Path)):
            raise
        with open(source, "rb") as binary:  # no UTF-8 sequence holds a newline byte
            for number, data in enumerate(binary, start=1):
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetError(f"line {number}: invalid UTF-8: {exc}") from None
        raise


def _validated(lines, rows, positions, mode: str, warning_counts: Counter, *, stored: bool = False) -> list[list]:
    """The 13 attribute columns and the target column of a block of csv rows (a ``stored`` row must hold a target).

    Each row :func:`accepted_block` refuses goes through :func:`validate_case`
    in file order, which alone warns (counted by field into ``warning_counts``)
    or rejects, as :class:`DatasetError` citing the row's line.
    """
    check_mode(mode)
    columns = list(zip(*rows))
    fields = [columns[positions[name]] for name in FEATURE_NAMES]
    at = positions.get(TARGET_NAME)
    targets = (None,) * len(rows) if at is None else columns[at]
    columns, refused = accepted_block(fields, targets, stored=stored)
    for row in refused:
        raw = {name: rows[row][column] for name, column in positions.items()}
        try:
            case, warnings = validate_case(raw, mode)
        except CaseValidationError as exc:
            raise DatasetError(f"line {lines[row]}: {exc}") from exc
        if stored and case.target is None:
            raise DatasetError(f"line {lines[row]}: stored case missing target")
        for message in warnings:
            warning_counts[message.split(":", 1)[0]] += 1
        for column, value in zip(columns, _case_values(case)):
            column[row] = value
    return columns


def parse_csv(source, mode: str = "lenient", *, stored: bool = False) -> list[Case]:
    """Read a heart-disease CSV into cases, preserving file order.

    The first row must be a header with the 13 attribute columns (aliases
    accepted, case-insensitive, after one leading byte-order mark) and, if
    ``stored``, a target column; then every row must hold a target. Rows are
    validated in blocks (:func:`_validated`); the first fault in file order
    raises :class:`DatasetError` citing its 1-based line. Lenient-mode
    domain warnings are aggregated into one log message.
    """
    cases: list[Case] = []
    warning_counts: Counter[str] = Counter()
    with closing(_blocks(source, stored=stored)) as blocks:
        positions = next(blocks)
        for lines, rows in blocks:
            cases += map(Case, *_validated(lines, rows, positions, mode, warning_counts, stored=stored))

    if warning_counts:
        total = sum(warning_counts.values())
        logger.warning("accepted %d out-of-domain values in lenient mode: %s", total, dict(warning_counts))
    return cases


def _as_fraction(train_fraction) -> Fraction:
    # Fractions given as floats are read back through their shortest decimal
    # repr, so 0.6 means six tenths exactly and floor(5 * 0.6) is 3.
    return Fraction(str(train_fraction)) if isinstance(train_fraction, float) else Fraction(train_fraction)


def split_sequential(cases: list[Case], train_fraction=Fraction(3, 5)) -> SplitResult:
    """Split by file order: first floor(n * fraction) cases train, rest test.

    ``train_fraction`` is a Fraction, a float, an int or their text; messages show it as given.
    """
    if not cases:
        raise DatasetError("cannot split an empty case list")
    fraction = _as_fraction(train_fraction)
    if not 0 < fraction < 1:
        raise DatasetError(f"train fraction {train_fraction} outside (0, 1)")
    n_train = math.floor(len(cases) * fraction)
    if n_train < 1 or n_train >= len(cases):
        raise DegenerateSplitError(f"split of {len(cases)} cases at fraction {train_fraction} leaves an empty side")
    train = CaseBase.from_cases(cases[:n_train])
    return SplitResult(train=train, test=tuple(cases[n_train:]))


_case_values = attrgetter(*FEATURE_NAMES, TARGET_NAME)


@contextmanager
def _overwritten(path) -> Iterator[io.TextIOBase]:
    """A UTF-8 text stream that overwrites ``path`` from its start, then cuts a regular file to what was written.

    It keeps the inode and mode (a new file gets 0o666 less the umask).
    Truncating to zero first, as ``open(path, "w")`` does, makes ext4
    (``auto_da_alloc``) start writeback at close, which costs a small file
    many times its write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as stream:
        yield stream
        if stat.S_ISREG(os.fstat(fd).st_mode):
            stream.truncate()


def _write_rows(sink, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV with LF line ends, to a path or an open text stream.

    ``csv.writer`` prints an int as ``str()`` does, a float as ``repr()`` does and None as an empty field.
    """
    opened = nullcontext(sink) if hasattr(sink, "write") else _overwritten(sink)
    with opened as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Exact types that a record template prints with repr(), which is what
# json.dumps prints for their finite values; bool and other subclasses are not here.
_PLAIN_NUMBERS = frozenset({int, float})


def _record_texts(records) -> list[str] | None:
    """The JSON text of each record of a top-level list, or None unless all share one template.

    They do when ``records`` are dicts (exactly) with one set of str keys and
    only plain, finite int and float values. Each record is then rendered
    through one ``str.format`` template, indented as ``json.dumps`` indents
    the items of a list under a top-level key.
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
    fields = ",\n".join("      " + json.dumps(key).replace("{", "{{").replace("}", "}}") + ": {!r}" for key in keys)
    return list(starmap(f"{{{{\n{fields}\n    }}}}".format, rows))


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, with a fast path for record lists.

    A non-empty dict whose keys are all exactly str is written one value at a
    time: a list that :func:`_record_texts` can render goes through its
    template, any other value through ``json.dumps`` with every line after
    its first indented two more spaces (JSON text holds no raw newline but
    the ones ``indent`` adds). Any other payload is ``json.dumps`` itself.
    """
    if not (type(payload) is dict and payload and set(map(type, payload)) == {str}):
        return json.dumps(payload, indent=2, sort_keys=True)
    items = []
    for key, value in sorted(payload.items()):
        records = isinstance(value, list) and value and _record_texts(value)
        if records:
            text = "[\n    " + ",\n    ".join(records) + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        items.append(json.dumps(key) + ": " + text)
    return "{\n  " + ",\n  ".join(items) + "\n}"


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with _overwritten(path) as stream:
        stream.write(_json_text(payload) + "\n")


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_cases(cases: Iterable[Case], sink) -> None:
    """Write cases as a canonical-header CSV readable by :func:`parse_csv`; an absent target is left empty."""
    _write_rows(sink, CANONICAL_HEADER, map(_case_values, cases))


def write_case_base(case_base: CaseBase, sink) -> None:
    """Persist a case base as CSV: case_id column plus the canonical header."""
    _write_rows(sink, (CASE_ID_COLUMN,) + CANONICAL_HEADER, zip(case_base.ids(), *case_base._columns()))


def _case_ids(texts: Sequence[str], last: int) -> tuple[list[int], str | None]:
    """The case ids that follow ``last`` in order, up to the first fault, and that fault (None if none)."""
    ids = []
    for text in texts:
        try:
            case_id = int(text)
        except ValueError:
            return ids, "non-integer case_id"
        if not last < case_id < 2**63:
            return ids, _id_fault(case_id, last)
        ids.append(case_id)
        last = case_id
    return ids, None


def read_case_base(source) -> CaseBase:
    """Reload a case base written by :func:`write_case_base`, losslessly, building no :class:`Case`.

    Rows are validated in lenient mode, in blocks as :func:`parse_csv` reads
    them, and fill the arrays column by column. Each must hold a target and a
    case id above the one before it, below 2**63. The first fault in file
    order raises :class:`DatasetError` citing its line; within a row, the
    case id is checked first.
    """
    ids: list[int] = []
    targets: list[int] = []
    blocks = [np.empty((0, N_FEATURES))]
    with closing(_blocks(source, case_ids=True, stored=True)) as rows_of:
        positions = next(rows_of)
        at = positions[CASE_ID_COLUMN]
        for lines, rows in rows_of:
            block_ids, fault = _case_ids([row[at] for row in rows], ids[-1] if ids else -1)
            valid = len(block_ids)
            if valid:
                columns = _validated(lines[:valid], rows[:valid], positions, "lenient", Counter(), stored=True)
                blocks.append(np.array(columns[:N_FEATURES], dtype=np.float64).T)
                targets += columns[N_FEATURES]
            if fault is not None:
                raise DatasetError(f"line {lines[valid]}: {fault}")
            ids += block_ids
    base = CaseBase.__new__(CaseBase)  # C-contiguous features, one row per case
    base._build(np.concatenate(blocks), np.array(ids, dtype=np.int64), np.array(targets, dtype=np.int64), None)
    return base
