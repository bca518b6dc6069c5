"""Validated patient records for the 13-attribute heart-disease schema.

A :class:`Case` is a single patient: thirteen clinical input attributes plus
an optional binary diagnosis. Attribute order is frozen in
:data:`FEATURE_NAMES`; every weight vector and similarity computation in the
package indexes against that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, contains, itemgetter

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


_INT_FIELDS = tuple(name for name in FEATURE_NAMES if name != "oldpeak")
_int_fields = itemgetter(*_INT_FIELDS)
_codes = itemgetter(*map(_INT_FIELDS.index, CATEGORICAL_DOMAINS))
_DOMAINS = tuple(CATEGORICAL_DOMAINS.values())
_OLDPEAK_AT = FEATURE_NAMES.index("oldpeak")
# Exact types whose conversion by int()/float() gives what the per-field
# parsers give, whenever it succeeds; bool and other subclasses are not here.
_PLAIN_INT_TYPES = frozenset({str, int})
_PLAIN_FLOAT_TYPES = frozenset({str, int, float})
_PLAIN_TARGETS = {None: None, "": None, "0": 0, "1": 1, 0: 0, 1: 1}
_PLAIN_TARGET_TYPES = frozenset({type(None), str, int})


def _accepted(raw) -> Case | None:
    """The case of a plain, in-domain ``raw`` record, or None when unsure.

    A record is plain when ``raw`` is a dict, the 12 integer fields hold
    ``str`` or ``int``, oldpeak holds ``str``, ``int`` or ``float``, and the
    target is absent, None, ``""``, 0, 1, ``"0"`` or ``"1"``. Each field is
    then converted by one C-level ``int()``/``float()`` call, and one
    ``math.fsum`` over the integers steps aside for any that float() cannot
    convert, so only the per-field parsers reject them. ``int(text)``
    accepts a subset of what ``int(text.strip())`` accepts (U+001C-U+001F
    padding is stripped but not ignored by ``int``) and returns the same
    value, so every case returned here is the one the per-field parsers
    build. Everything else, including every record that would warn or fail,
    returns None.
    """
    # Only a plain dict answers `in` (the per-field missing-field check) and
    # `[]` alike; a defaultdict, say, would fill in a missing field.
    if type(raw) is not dict:
        return None
    try:
        fields = _int_fields(raw)
        peak = raw["oldpeak"]
        target = raw.get(TARGET_NAME)
        if not (
            _PLAIN_INT_TYPES.issuperset(map(type, fields))
            and type(peak) in _PLAIN_FLOAT_TYPES
            and type(target) in _PLAIN_TARGET_TYPES
        ):
            return None
        values = list(map(int, fields))
        math.fsum(values)  # converts each value as float() does
        peak = float(peak)
        target = _PLAIN_TARGETS[target]
    except (KeyError, ValueError, OverflowError):
        # A missing field, text that int() or float() refuses, an int too big
        # for a float (or a sum of them that overflows in fsum): the only
        # errors the plain types above can raise.
        return None
    if not (math.isfinite(peak) and peak >= 0 and all(map(contains, _DOMAINS, _codes(values)))):
        return None
    values.insert(_OLDPEAK_AT, peak)
    # Built through the dataclass __init__: filling __dict__ directly is about
    # 1.5 us faster, but it gives every case a dict of its own, which costs
    # 64 bytes a case and makes each attribute read from Python slower.
    return Case(*values, target)


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

    A fast branch converts a plain, in-domain record in one C-level pass
    (``_accepted``). It may only accept: on any exception or doubt it
    steps aside, and the per-field parsers below decide. They alone warn
    or reject, so the accepted records, their values and types, the
    warnings and every error message are those of the per-field path.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    case = _accepted(raw)
    if case is not None:
        return case, []

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
