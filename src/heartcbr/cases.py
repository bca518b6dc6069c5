"""Validated patient records for the 13-attribute heart-disease schema.

A :class:`Case` is a single patient: thirteen clinical input attributes plus
an optional binary diagnosis. Attribute order is frozen in
:data:`FEATURE_NAMES`; every weight vector and similarity computation in the
package indexes against that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import attrgetter, is_

FEATURE_NAMES: tuple[str, ...] = (
    "age",
    "sex",
    "cp",
    "trestbps",
    "chol",
    "fbs",
    "restecg",
    "thalach",
    "exang",
    "oldpeak",
    "slope",
    "ca",
    "thal",
)
TARGET_NAME = "target"
N_FEATURES = len(FEATURE_NAMES)

# Documented categorical code sets. Public copies of the data contain ca and
# thal codes outside these sets, so those two fields can be relaxed.
CATEGORICAL_DOMAINS: dict[str, frozenset[int]] = {
    "sex": frozenset({0, 1}),
    "cp": frozenset({0, 1, 2, 3}),
    "fbs": frozenset({0, 1}),
    "restecg": frozenset({0, 1, 2}),
    "exang": frozenset({0, 1}),
    "slope": frozenset({0, 1, 2}),
    "ca": frozenset({0, 1, 2, 3}),
    "thal": frozenset({1, 2, 3}),
}
LENIENT_FIELDS = frozenset({"ca", "thal"})
TARGET_DOMAIN = frozenset({0, 1})
VALIDATION_MODES = ("strict", "lenient")


class CaseValidationError(ValueError):
    """A raw record failed field validation."""


@dataclass(frozen=True)
class Case:
    """One patient record. ``target`` is None for an unsolved query."""

    age: int
    sex: int
    cp: int
    trestbps: int
    chol: int
    fbs: int
    restecg: int
    thalach: int
    exang: int
    oldpeak: float
    slope: int
    ca: int
    thal: int
    target: int | None = None


# 13 floats in FEATURE_NAMES order.
FeatureVector = tuple[float, ...]


def _shown(value: object) -> str:
    """``repr(value)`` for an error message: its first 40 characters, then ``...`` if cut."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _within_float_range(field: str, value: int) -> int:
    """``value``, if float() can convert it; the message of a rejected one shows none of its digits."""
    try:
        float(value)
    except OverflowError:
        raise CaseValidationError(f"{field}: integer outside the float range") from None
    return value


def _parse_int(field: str, value: object) -> int:
    if isinstance(value, bool):
        raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
    if isinstance(value, int):
        return _within_float_range(field, value)
    if isinstance(value, float):
        if not math.isfinite(value) or not value.is_integer():
            raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
        return int(value)
    text = str(value).strip()
    try:
        result = int(text)
    except ValueError:
        pass
    else:
        return _within_float_range(field, result)
    try:
        as_float = float(text)
    except ValueError:
        raise CaseValidationError(f"{field}: non-numeric value {_shown(value)}") from None
    if math.isinf(as_float) and text.lstrip("+-").replace("_", "").isdecimal():
        # Integer text past int()'s digit limit: float() takes it, to inf.
        raise CaseValidationError(f"{field}: integer outside the float range")
    if not math.isfinite(as_float) or not as_float.is_integer():
        raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
    return int(as_float)


def _parse_float(field: str, value: object) -> float:
    if isinstance(value, bool):
        raise CaseValidationError(f"{field}: non-numeric value {_shown(value)}")
    try:
        result = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise CaseValidationError(f"{field}: non-numeric value {_shown(value)}") from None
    except OverflowError:
        raise CaseValidationError(f"{field}: integer outside the float range") from None
    if not math.isfinite(result):
        raise CaseValidationError(f"{field}: non-finite value {_shown(value)}")
    return result


BLOCK_ROWS = 256  # records the block branch converts at once, to bound its transient lists

_CONVERTERS = tuple(float if name == "oldpeak" else int for name in FEATURE_NAMES)
_OLDPEAK_AT = FEATURE_NAMES.index("oldpeak")
_DOMAINS_AT = tuple((FEATURE_NAMES.index(name), domain) for name, domain in CATEGORICAL_DOMAINS.items())
_TARGETS = {None: None, "": None, "0": 0, "1": 1}
_STORED_TARGETS = {"0": 0, "1": 1}
_REFUSED = object()  # a target the lookup does not take


def accepted_block(fields, targets, *, stored: bool = False) -> tuple[list[Case], list[int]]:
    """The cases of a block of csv records given column by column, and the rows it refuses.

    ``fields`` holds 13 columns of csv text in FEATURE_NAMES order,
    ``targets`` the target column (None where the file has none), each one
    value per record. Each column is converted in one C-level pass,
    ``map(int, ...)`` or ``map(float, ...)`` for oldpeak, and one
    ``math.fsum`` over the block converts every value as float() does. If
    any conversion fails, or an oldpeak is not finite and non-negative,
    every record of the block is refused. Otherwise a record is refused on
    its own for a categorical code outside its domain or a target other
    than ``"0"`` or ``"1"`` (or, unless ``stored``, blank or absent).
    ``int(text)`` accepts a subset of what ``int(text.strip())`` accepts
    (U+001C-U+001F padding is stripped but not ignored by ``int``) and
    returns the same value, so every case built here is the one the
    per-field parsers build.

    Returns the cases in order, with an unspecified value at each refused
    position, and the refused positions in ascending order: every record
    that would warn or fail is among them, and only :func:`validate_case`
    may decide what they hold.
    """
    try:
        columns = [list(map(convert, column)) for convert, column in zip(_CONVERTERS, fields)]
        # Raises for an int past the float range or a sum past it (two 10**308
        # in one block); a nan or inf oldpeak makes the sum non-finite.
        converted = math.isfinite(math.fsum(chain.from_iterable(columns)))
    except (ValueError, OverflowError):
        converted = False
    if not (converted and min(columns[_OLDPEAK_AT]) >= 0.0):
        return [None] * len(targets), list(range(len(targets)))
    refused: set[int] = set()
    for at, domain in _DOMAINS_AT:
        codes = columns[at]
        if not domain.issuperset(codes):
            refused.update(row for row, code in enumerate(codes) if code not in domain)
    solved = list(map((_STORED_TARGETS if stored else _TARGETS).get, targets, repeat(_REFUSED)))
    if _REFUSED in solved:
        refused.update(compress(count(), map(is_, solved, repeat(_REFUSED))))
    # Built through the dataclass __init__: filling __dict__ directly is about
    # 1.5 us faster, but it gives every case a dict of its own, which costs
    # 64 bytes a case and makes each attribute read from Python slower.
    return list(map(Case, *columns, solved)), sorted(refused)


def check_mode(mode: str) -> None:
    """Raise ValueError unless ``mode`` is one of VALIDATION_MODES."""
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")


def validate_case(raw, mode: str = "lenient") -> tuple[Case, list[str]]:
    """Parse and validate one raw record.

    ``raw`` maps field names to textual or numeric values; all 13 input
    fields must be present, ``target`` is optional (an empty string counts
    as absent). Strict mode rejects every out-of-domain categorical code;
    lenient mode accepts out-of-domain integer codes for ca and thal and
    returns one warning per violation.

    Returns the validated :class:`Case` and the list of warnings. Raises
    :class:`CaseValidationError` on missing fields, non-numeric text,
    integers that float() cannot convert, out-of-domain values (strict) or
    negative oldpeak.

    The per-field parsers below are the rules. The block branch that reads
    csv files (:func:`accepted_block`) may only accept what they accept, and
    every row it refuses is sent here, one at a time, in file order.
    """
    check_mode(mode)
    missing = [name for name in FEATURE_NAMES if name not in raw]
    if missing:
        raise CaseValidationError(f"missing fields: {', '.join(missing)}")

    values: dict[str, int | float] = {}
    for name in FEATURE_NAMES:
        if name == "oldpeak":
            values[name] = _parse_float(name, raw[name])
        else:
            values[name] = _parse_int(name, raw[name])

    if values["oldpeak"] < 0:
        raise CaseValidationError(f"oldpeak: negative value {_shown(values['oldpeak'])}")

    warnings: list[str] = []
    for name, domain in CATEGORICAL_DOMAINS.items():
        code = values[name]
        if code in domain:
            continue
        message = f"{name}: value {_shown(code)} outside documented domain {sorted(domain)}"
        if mode == "lenient" and name in LENIENT_FIELDS:
            warnings.append(message)
        else:
            raise CaseValidationError(message)

    target: int | None = None
    raw_target = raw.get(TARGET_NAME)
    # str() of an int is never blank, and it fails past 4,300 digits.
    if raw_target is not None and (isinstance(raw_target, int) or str(raw_target).strip() != ""):
        target = _parse_int(TARGET_NAME, raw_target)
        if target not in TARGET_DOMAIN:
            raise CaseValidationError(
                f"target: value {_shown(target)} outside domain {sorted(TARGET_DOMAIN)}"
            )

    return Case(**values, target=target), warnings  # type: ignore[arg-type]


_feature_values = attrgetter(*FEATURE_NAMES)


def to_feature_vector(case: Case) -> FeatureVector:
    """Project a case onto its 13 numeric attributes, target excluded."""
    return tuple(map(float, _feature_values(case)))
