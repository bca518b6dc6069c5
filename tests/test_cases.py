import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from heartcbr.cases import (
    CATEGORICAL_DOMAINS,
    FEATURE_NAMES,
    LENIENT_FIELDS,
    TARGET_DOMAIN,
    TARGET_NAME,
    VALIDATION_MODES,
    Case,
    CaseValidationError,
    to_feature_vector,
    validate_case,
)

from conftest import in_domain_raw, make_raw


def test_full_domain_case_accepted():
    case, warnings = validate_case(make_raw(), "strict")
    assert warnings == []
    assert case == Case(
        age=54, sex=1, cp=0, trestbps=130, chol=250, fbs=0, restecg=1,
        thalach=150, exang=0, oldpeak=1.0, slope=1, ca=0, thal=2, target=1,
    )


def test_textual_values_parse():
    raw = {k: str(v) for k, v in make_raw().items()}
    case, warnings = validate_case(raw, "strict")
    assert warnings == []
    assert case.age == 54
    assert case.oldpeak == 1.0
    assert case.target == 1


def test_strict_rejects_out_of_domain_sex():
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(sex=2), "strict")
    assert "sex" in str(exc.value)
    assert "2" in str(exc.value)


@pytest.mark.parametrize(
    "field,value",
    [
        ("sex", 2),
        ("cp", 4),
        ("fbs", 3),
        ("restecg", 5),
        ("exang", -1),
        ("slope", 7),
        ("ca", 4),
        ("thal", 0),
    ],
)
def test_strict_rejects_every_single_field_mutation(field, value):
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(**{field: value}), "strict")
    assert field in str(exc.value)


@pytest.mark.parametrize("field,value", [("sex", 2), ("cp", 4), ("restecg", 3)])
def test_lenient_still_rejects_non_relaxed_fields(field, value):
    with pytest.raises(CaseValidationError):
        validate_case(make_raw(**{field: value}), "lenient")


def test_lenient_accepts_ca_4_with_one_warning():
    case, warnings = validate_case(make_raw(ca=4), "lenient")
    assert case.ca == 4
    assert len(warnings) == 1
    assert "ca" in warnings[0]


def test_lenient_accepts_thal_0_with_one_warning():
    case, warnings = validate_case(make_raw(thal=0), "lenient")
    assert case.thal == 0
    assert len(warnings) == 1


def test_lenient_two_violations_two_warnings():
    _, warnings = validate_case(make_raw(ca=4, thal=0), "lenient")
    assert len(warnings) == 2


def test_strict_rejects_ca_4():
    with pytest.raises(CaseValidationError):
        validate_case(make_raw(ca=4), "strict")


def test_missing_field():
    raw = make_raw()
    del raw["chol"]
    with pytest.raises(CaseValidationError) as exc:
        validate_case(raw)
    assert "chol" in str(exc.value)


def test_non_numeric_value():
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(chol="abc"))
    assert "chol" in str(exc.value)


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_negative_oldpeak_rejected(mode):
    with pytest.raises(CaseValidationError):
        validate_case(make_raw(oldpeak=-0.5), mode)


def test_int_oldpeak_past_the_float_range_rejected():
    with pytest.raises(CaseValidationError, match="^oldpeak: integer outside the float range$"):
        validate_case(make_raw(oldpeak=10**400))


@pytest.mark.parametrize(
    "field, value, mode",
    [
        ("sex", 10**5000, "strict"),
        ("ca", 10**5000, "lenient"),
        ("oldpeak", 10**5000, "lenient"),
        ("target", 10**5000, "lenient"),
        ("age", -(10**400), "strict"),
        ("age", "1" + "0" * 400, "lenient"),
        ("age", "1" * 5000, "lenient"),  # past int()'s 4,300-digit limit
        ("thal", "-" + "9" * 5000, "lenient"),
        ("chol", 2**1024 - 2**970, "lenient"),  # rounds up to 2**1024
    ],
    ids=[
        "sex-strict", "ca", "oldpeak", "target", "negative-age", "age-text",
        "age-text-past-digit-limit", "negative-thal-text-past-digit-limit", "chol-rounds-up",
    ],
)
def test_integer_past_the_float_range_rejected_without_its_digits(field, value, mode):
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(**{field: value}), mode)
    assert str(exc.value) == f"{field}: integer outside the float range"


@pytest.mark.parametrize("text", ["1e400", "inf", "-inf", "1.5"])
def test_non_integer_text_keeps_its_message(text):
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(age=text))
    assert str(exc.value) == f"age: non-integer value {text!r}"


# Values too long to echo whole; each message shows the first 40 characters of the repr.
LONG_VALUES = [
    ("age", "--" + "1" * 5000, "age: non-numeric value '--" + "1" * 37 + "..."),
    ("oldpeak", "x" * 5000, "oldpeak: non-numeric value '" + "x" * 39 + "..."),
    ("oldpeak", "-" + "1" * 5000, "oldpeak: non-finite value '-" + "1" * 38 + "..."),
    ("target", "--" + "1" * 5000, "target: non-numeric value '--" + "1" * 37 + "..."),
    ("ca", 10**300, "ca: value 1" + "0" * 39 + "... outside documented domain [0, 1, 2, 3]"),
]


@pytest.mark.parametrize("field, value, message", LONG_VALUES, ids=[v[0] for v in LONG_VALUES])
def test_messages_show_at_most_40_characters_of_a_value(field, value, message):
    with pytest.raises(CaseValidationError) as exc:
        validate_case(make_raw(**{field: value}), "strict")
    assert str(exc.value) == message


def test_largest_integer_below_the_float_overflow_accepted():
    value = 2**1024 - 2**970 - 1  # rounds down to the largest float
    case, _ = validate_case(make_raw(chol=value))
    assert case.chol == value
    assert to_feature_vector(case)[FEATURE_NAMES.index("chol")] == 1.7976931348623157e308


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        validate_case(make_raw(), "casual")


def test_target_optional():
    raw = make_raw()
    del raw["target"]
    case, _ = validate_case(raw)
    assert case.target is None


def test_empty_target_counts_as_absent():
    case, _ = validate_case(make_raw(target=""))
    assert case.target is None


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_out_of_domain_target_rejected(mode):
    with pytest.raises(CaseValidationError):
        validate_case(make_raw(target=2), mode)


def test_to_feature_vector_order():
    case, _ = validate_case(make_raw())
    assert to_feature_vector(case) == (54, 1, 0, 130, 250, 0, 1, 150, 0, 1.0, 1, 0, 2)


def test_feature_vector_excludes_target():
    with_target, _ = validate_case(make_raw(target=1))
    raw = make_raw()
    del raw["target"]
    without_target, _ = validate_case(raw)
    assert to_feature_vector(with_target) == to_feature_vector(without_target)


@given(in_domain_raw())
def test_round_trip_reproduces_values_exactly(raw):
    case, warnings = validate_case(raw, "strict")
    assert warnings == []
    for name in FEATURE_NAMES:
        assert getattr(case, name) == raw[name]
    assert case.target == raw["target"]


@given(in_domain_raw())
def test_feature_vector_is_deterministic_and_13_long(raw):
    case, _ = validate_case(raw, "strict")
    again, _ = validate_case(dict(raw), "strict")
    vec = to_feature_vector(case)
    assert len(vec) == 13
    assert vec == to_feature_vector(again)


def test_domains_match_schema():
    assert set(CATEGORICAL_DOMAINS) < set(FEATURE_NAMES)
    assert len(FEATURE_NAMES) == 13


# --- Oracle: validate_case against the per-field validator it must match ---
#
# A verbatim copy of the per-field validator, which validated every record
# before the one-pass fast branch existed. The fast branch may only accept
# what this accepts, with the same values and types; every warning and every
# error must come out word for word as here. Where the per-field rules change
# on purpose, this copy changes with them: an integer that float() cannot
# convert is rejected without its digits, in every field and the target, and
# so is integer text past int()'s 4,300-digit limit, and a message shows at
# most the first 40 characters of a value's repr.


def _oracle_shown(value):
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _oracle_within_float_range(field, value):
    try:
        float(value)
    except OverflowError:
        raise CaseValidationError(f"{field}: integer outside the float range") from None
    return value


def _oracle_parse_int(field, value):
    if isinstance(value, bool):
        raise CaseValidationError(f"{field}: non-integer value {_oracle_shown(value)}")
    if isinstance(value, int):
        return _oracle_within_float_range(field, value)
    if isinstance(value, float):
        if not math.isfinite(value) or not value.is_integer():
            raise CaseValidationError(f"{field}: non-integer value {_oracle_shown(value)}")
        return int(value)
    text = str(value).strip()
    try:
        result = int(text)
    except ValueError:
        pass
    else:
        return _oracle_within_float_range(field, result)
    try:
        as_float = float(text)
    except ValueError:
        raise CaseValidationError(f"{field}: non-numeric value {_oracle_shown(value)}") from None
    if math.isinf(as_float) and text.lstrip("+-").replace("_", "").isdecimal():
        raise CaseValidationError(f"{field}: integer outside the float range")
    if not math.isfinite(as_float) or not as_float.is_integer():
        raise CaseValidationError(f"{field}: non-integer value {_oracle_shown(value)}")
    return int(as_float)


def _oracle_parse_float(field, value):
    if isinstance(value, bool):
        raise CaseValidationError(f"{field}: non-numeric value {_oracle_shown(value)}")
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise CaseValidationError(f"{field}: non-numeric value {_oracle_shown(value)}") from None
    except OverflowError:
        raise CaseValidationError(f"{field}: integer outside the float range") from None
    if not math.isfinite(result):
        raise CaseValidationError(f"{field}: non-finite value {_oracle_shown(value)}")
    return result


def _oracle_validate_case(raw, mode="lenient"):
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")

    missing = [name for name in FEATURE_NAMES if name not in raw]
    if missing:
        raise CaseValidationError(f"missing fields: {', '.join(missing)}")

    values = {}
    for name in FEATURE_NAMES:
        if name == "oldpeak":
            values[name] = _oracle_parse_float(name, raw[name])
        else:
            values[name] = _oracle_parse_int(name, raw[name])

    if values["oldpeak"] < 0:
        raise CaseValidationError(f"oldpeak: negative value {_oracle_shown(values['oldpeak'])}")

    warnings = []
    for name, domain in CATEGORICAL_DOMAINS.items():
        code = values[name]
        if code in domain:
            continue
        message = f"{name}: value {_oracle_shown(code)} outside documented domain {sorted(domain)}"
        if mode == "lenient" and name in LENIENT_FIELDS:
            warnings.append(message)
        else:
            raise CaseValidationError(message)

    target = None
    raw_target = raw.get(TARGET_NAME)
    if raw_target is not None and (isinstance(raw_target, int) or str(raw_target).strip() != ""):
        target = _oracle_parse_int(TARGET_NAME, raw_target)
        if target not in TARGET_DOMAIN:
            raise CaseValidationError(
                f"target: value {_oracle_shown(target)} outside domain {sorted(TARGET_DOMAIN)}"
            )

    return Case(**values, target=target), warnings


# Characters around a number: U+001C-U+001F are stripped by str.strip() but
# not skipped by int(), the rest are skipped by both.
PADDING = st.text(alphabet="\x1c\x1d\x1e\x1f \t\n\r\x0b\x0c\x85\xa0 　", max_size=2)
NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
ODD_VALUES = st.sampled_from(
    [
        True, False, None, "", " ", "abc", "1_0", "_10", "5.0", "5.5", "1e3", "1e400",
        "nan", "inf", "-inf", "-0.0", "-0", 5.0, 5.5, 0.0, -0.0,
        float("nan"), float("inf"), 2**53 + 1, 10**20, -1, 2, 4, 10**400,
        -(10**400), str(10**400), 10**5000, 2**1023, -(2**1023), 2**1023 - 1,
        2**1024 - 2**970 - 1, 2**1024 - 2**970,
    ]
)


ABSENT = object()


def _respelled(value, form, padding, odd):
    """Spelling number ``form`` of ``value``: the forms the fast branch takes, and ones it must pass on."""
    text = repr(value)
    forms = [text, padding[0] + text + padding[1], text.translate(NON_ASCII_DIGITS), odd]
    if isinstance(value, int):
        forms += [float(value), value + 0.5, f"{value}.0", text[0] + "_" + text[1:] if len(text) > 1 else text]
    else:
        forms += [float("inf"), "inf", -0.0, int(value) if value.is_integer() else "1e3"]
    return forms[form]


@st.composite
def oracle_records(draw):
    """Mostly in-domain records, as text or numbers, with a field or two respelled or missing."""
    base = draw(in_domain_raw(with_target=False))
    base["ca"] = draw(st.sampled_from([0, 1, 2, 3, 3, 3, 4]))
    base["thal"] = draw(st.sampled_from([0, 1, 2, 2, 2, 3]))
    raw = {name: draw(st.sampled_from([value, repr(value)])) for name, value in base.items()}
    # oldpeak, the one float field, is picked about as often as all the others together.
    for name in draw(st.lists(st.sampled_from(FEATURE_NAMES + ("oldpeak",) * 12), max_size=2)):
        if draw(st.integers(0, 19)) == 0:
            raw.pop(name, None)  # a missing field
        else:
            form = draw(st.integers(0, 7))
            raw[name] = _respelled(base[name], form, draw(st.tuples(PADDING, PADDING)), draw(ODD_VALUES))
    target = draw(
        st.sampled_from(
            [0, 1, "0", "1", "", ABSENT, None] * 2
            + [" 1 ", 2, "2", True, 1.0, "1.0", "x", 10**400, 10**5000, str(10**400)]
        )
    )
    if target is not ABSENT:
        raw[TARGET_NAME] = target
    return raw


def _outcome(validate, raw, mode):
    """What ``validate`` makes of ``raw``: each field's type and repr plus the warnings, or the error."""
    try:
        case, warnings = validate(dict(raw), mode)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    fields = [(type(value), repr(value)) for value in (getattr(case, f.name) for f in dataclasses.fields(case))]
    return ("accepts", fields, warnings)


@pytest.mark.parametrize("mode", VALIDATION_MODES)
@settings(max_examples=300, deadline=None)
@given(raw=oracle_records())
@example(raw=make_raw(age="\x1c54\x1f"))
@example(raw=make_raw(chol=" 2 5 "))
@example(raw=make_raw(trestbps=130.5))
@example(raw=make_raw(thalach=150.0))
@example(raw=make_raw(oldpeak=float("inf")))
@example(raw=make_raw(oldpeak="inf"))
@example(raw=make_raw(oldpeak=-0.0))
@example(raw=make_raw(oldpeak=10**400))
@example(raw=make_raw(oldpeak=10**5000))
@example(raw=make_raw(age=10**400, oldpeak=-1.0))
@example(raw=make_raw(ca=10**5000, target=10**5000))
@example(raw=make_raw(thalach=2**1023, chol=-(2**1023) + 1))
@example(raw=make_raw(trestbps=str(2**1024 - 2**970 - 1)))
@example(raw=make_raw(age=10**308, chol=str(10**308)))  # each converts; their sum overflows
@example(raw=make_raw(chol=10**400))
@example(raw=make_raw(thalach=str(-(10**400))))
@example(raw=make_raw(age="1" * 5000))
@example(raw=make_raw(age="--" + "1" * 5000))
@example(raw=make_raw(oldpeak="x" * 5000))
@example(raw=make_raw(oldpeak="-" + "1" * 5000))
@example(raw=make_raw(target="--" + "1" * 5000))
@example(raw=make_raw(age=2**53 + 1, chol=str(10**20)))
@example(raw=make_raw(sex=True))
@example(raw=make_raw(age="٥٤", chol="2_50", trestbps=" 130\xa0", target=" 1 "))
@example(raw={name: value for name, value in make_raw().items() if name != "chol"})
def test_validate_case_agrees_with_the_per_field_oracle(mode, raw):
    expected = _outcome(_oracle_validate_case, raw, mode)
    assert _outcome(validate_case, raw, mode) == expected
    if expected[0] == "accepts":
        case, _ = validate_case(dict(raw), mode)
        reference, _ = _oracle_validate_case(dict(raw), mode)
        assert case == reference
        assert hash(case) == hash(reference)
        assert repr(case) == repr(reference)
        assert vars(case) == vars(reference)
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.age = 0
