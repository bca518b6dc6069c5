"""Every JSON file and the predict output: exactly json.dumps(payload, indent=2, sort_keys=True)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heartcbr.dataset import _json_text, _write_json
from heartcbr.reports import write_json

NAN, INF = math.nan, math.inf

TEXTS = st.text() | st.sampled_from(
    ['"per_case": []', "{", "}", "{}", "{!r}", "{0}", 'say "hi"', "back\\slash", "é", "日本", " ", "", "\x00"]
)
INTS = st.integers() | st.booleans() | st.sampled_from([2**63, -(2**63), 2**63 - 1, 10**400, -(10**400)])
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, NAN, INF, -INF])
SCALARS = TEXTS | INTS | FLOATS | st.none()
# Values a record template takes, and values it must hand back to the recursion.
PLAIN_NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
ODD_VALUES = st.sampled_from([True, False, None, NAN, INF, -INF, -0.0, 10**400, "1", [1], {"a": 1}])


@st.composite
def record_lists(draw):
    """Dicts with one key set and plain numbers, some with an odd value or a missing or extra key."""
    keys = draw(st.lists(TEXTS, min_size=1, max_size=5, unique=True))
    records = [{key: draw(PLAIN_NUMBERS) for key in keys} for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(records))
        change = draw(st.sampled_from(["value", "missing", "extra"]))
        if change == "value":
            record[draw(st.sampled_from(keys))] = draw(ODD_VALUES)
        elif change == "missing":
            record.pop(draw(st.sampled_from(keys)), None)
        else:
            record[draw(TEXTS)] = draw(PLAIN_NUMBERS)
    return records


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXTS, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=4)
    )


PAYLOADS = st.recursive(SCALARS | record_lists(), containers, max_leaves=20)


def outcome(encode, payload):
    try:
        return encode(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def stdlib(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
@example([{"a": True, "b": 1}, {"a": 0, "b": 2}])  # a bool prints as true, not True
@example([{"a": 1.5, "b": NAN}, {"a": 0, "b": 2}])  # nan prints as NaN, not nan
@example([{"a": INF}, {"a": -INF}])
@example([{"a": 1e308, "b": 1e308}])  # finite values whose sum overflows
@example({"per_case": [{"x{y}": 1, 'q"': -0.0, "é": 5e-324}], 2: [], 10: {}})
def test_encoder_equals_the_stdlib_indented_encoder(payload):
    # Only a list under a str key goes through the record template.
    for wrapped in (payload, {"per_case": payload}):
        assert outcome(_json_text, wrapped) == outcome(stdlib, wrapped)


@pytest.mark.parametrize(
    "payload",
    [
        {1.5: 0, INF: 1},
        {True: 0},
        {None: 0},
        {NAN: 0},
        {-(2**63): [{"k": 1}]},
        [{"a": 1}, {"b": 1}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{}, {}],
        [[{"a": 1}], ({"a": 2.5},)],
        [{1: 2}, {1: 3}],
        [{"a": np.float64(0.5)}, {"a": np.float64(-0.0)}],
        "per_case",
        None,
        -0.0,
    ],
)
def test_encoder_follows_the_stdlib_on_other_keys_and_shapes(payload):
    for wrapped in (payload, {"per_case": payload}):
        assert _json_text(wrapped) == stdlib(wrapped)


def circular_payloads():
    d, l = {}, []
    d["a"] = d
    l.append(l)
    return [d, {"x": l}, [d]]


@pytest.mark.parametrize(
    "payload",
    [{(1, 2): 0}, {"a": {1, 2}}, [{"a": 1}, {"a": object()}], {1: 0, "a": 1}, [np.array([1, 2])], *circular_payloads()],
)
def test_encoder_rejects_what_the_stdlib_rejects(payload):
    assert outcome(_json_text, payload) == outcome(stdlib, payload)
    assert isinstance(outcome(_json_text, payload), tuple)


def test_written_reports_are_the_stdlib_text_and_a_newline(tmp_path):
    payload = {
        "config": {"weights": [1.0] * 13, "incremental_retain": False},
        "per_case": [{"index": i, "best_similarity": i / 7, "best_case_id": 3 * i} for i in range(50)],
    }
    write_json(tmp_path / "report.json", payload)
    _write_json(tmp_path / "direct.json", payload)
    for name in ("report.json", "direct.json"):
        assert (tmp_path / name).read_bytes() == (stdlib(payload) + "\n").encode("utf-8")
