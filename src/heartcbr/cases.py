"""Validated patient records for the 13-attribute heart-disease schema.

A :class:`Case` is one patient: 13 clinical attributes, in the order frozen in
:data:`FEATURE_NAMES` that every weight vector and similarity indexes, plus an
optional binary diagnosis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, repeat
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


INT_BOUND = 2**53  # float64 holds every integer in [-INT_BOUND, INT_BOUND] exactly


def bounded(field: str, value):
    """``value`` if it lies in [-2**53, 2**53], so float64 holds it exactly; the error shows none of its digits."""
    if -INT_BOUND <= value <= INT_BOUND:
        return value
    raise CaseValidationError(f"{field}: integer outside [-2**53, 2**53]")


def _parse_int(field: str, value: object) -> int:
    if isinstance(value, bool):
        raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
    if isinstance(value, int):
        return bounded(field, value)
    if isinstance(value, float):
        if not value.is_integer():  # nan and inf included
            raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
        return int(bounded(field, value))
    text = str(value).strip()
    try:
        result = int(text)
    except ValueError:
        pass
    else:
        return bounded(field, result)
    try:
        as_float = float(text)
    except ValueError:
        raise CaseValidationError(f"{field}: non-numeric value {_shown(value)}") from None
    # int() refuses integer text past 4,300 digits, which float() reads as inf.
    if not (as_float.is_integer() or math.isinf(as_float) and text.lstrip("+-").replace("_", "").isdecimal()):
        raise CaseValidationError(f"{field}: non-integer value {_shown(value)}")
    return int(bounded(field, as_float))


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
# Integer columns without a code domain: a code outside its domain is refused on its own.
_UNCODED_AT = tuple(map(FEATURE_NAMES.index, ("age", "trestbps", "chol", "thalach")))
_TARGETS = {None: None, "": None, "0": 0, "1": 1}
_STORED_TARGETS = {"0": 0, "1": 1}
_REFUSED = object()  # a target the lookup does not take


def accepted_block(fields, targets, *, stored: bool = False) -> tuple[list[list], list[int]]:
    """The values of a block of csv records given column by column, and the rows it refuses.

    ``fields`` holds 13 columns of csv text in FEATURE_NAMES order,
    ``targets`` the target column (None where the file has none). Each column
    is converted in one C-level pass, ``map(int, ...)`` or ``map(float, ...)``
    for oldpeak. A failed conversion, an integer of a column without a code
    domain past :func:`bounded`'s bound, or an oldpeak that is not finite and
    non-negative refuses the whole block; a categorical code outside its
    domain or a target other than ``"0"`` or ``"1"`` (or, unless ``stored``,
    blank or absent) refuses its own record. ``int(text)`` takes a subset of
    what ``int(text.strip())`` takes, with the same value (U+001C-U+001F
    padding is stripped but not ignored by ``int``).

    Returns the 13 attribute columns and the target column, each unspecified
    at a refused position, and the refused positions in ascending order: every
    record that would warn or fail, which only :func:`validate_case` decides.
    """
    n = len(targets)
    try:
        columns = [list(map(convert, column)) for convert, column in zip(_CONVERTERS, fields)]
        for at in _UNCODED_AT:
            bounded(FEATURE_NAMES[at], min(columns[at]))
            bounded(FEATURE_NAMES[at], max(columns[at]))
        oldpeak = columns[_OLDPEAK_AT]
        # The sum of the block's oldpeaks is finite only if each one is (nan too).
        converted = math.isfinite(sum(oldpeak)) and min(oldpeak) >= 0.0
    except ValueError:  # CaseValidationError included
        converted = False
    if not converted:
        return [[None] * n for _ in range(N_FEATURES + 1)], list(range(n))
    refused: set[int] = set()
    for at, domain in _DOMAINS_AT:
        codes = columns[at]
        if not domain.issuperset(codes):
            refused.update(row for row, code in enumerate(codes) if code not in domain)
    solved = list(map((_STORED_TARGETS if stored else _TARGETS).get, targets, repeat(_REFUSED)))
    if _REFUSED in solved:
        refused.update(compress(count(), map(is_, solved, repeat(_REFUSED))))
    columns.append(solved)
    return columns, sorted(refused)


def check_mode(mode: str) -> None:
    """Raise ValueError unless ``mode`` is one of VALIDATION_MODES."""
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")


def validate_case(raw, mode: str = "lenient") -> tuple[Case, list[str]]:
    """Parse and validate one raw record; return the :class:`Case` and its warnings.

    ``raw`` maps field names to textual or numeric values; all 13 input
    fields must be present, ``target`` is optional (an empty string counts
    as absent). Strict mode rejects every out-of-domain categorical code;
    lenient mode accepts out-of-domain codes for ca and thal, one warning
    each. Raises :class:`CaseValidationError` on missing fields, non-numeric
    text, integers past 2**53 (:func:`bounded`), out-of-domain values or
    negative oldpeak. These per-field parsers are the rules: the block
    branch (:func:`accepted_block`) may only accept what they accept, and
    sends every row it refuses here, one at a time, in file order.
    """
    check_mode(mode)
    missing = [name for name in FEATURE_NAMES if name not in raw]
    if missing:
        raise CaseValidationError(f"missing fields: {', '.join(missing)}")

    values = {name: (_parse_float if name == "oldpeak" else _parse_int)(name, raw[name]) for name in FEATURE_NAMES}

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
_INT_NAMES = tuple(name for name in FEATURE_NAMES if name != "oldpeak")
_int_values = attrgetter(*_INT_NAMES)


def to_feature_vector(case: Case) -> FeatureVector:
    """Project a case onto its 13 numeric attributes, target excluded."""
    return tuple(map(float, _feature_values(case)))
