import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from heartcbr.cases import FEATURE_NAMES, to_feature_vector
from heartcbr.dataset import CaseBase
from heartcbr.engine import retain
from heartcbr.scaling import (
    NormalizationParams,
    fit_from_vectors,
    fit_minmax,
    normalize,
    read_params,
    write_params,
)

from conftest import cases_strategy, make_case

CHOL = FEATURE_NAMES.index("chol")


def test_fit_extrema_from_column():
    cases = [make_case(chol=10), make_case(chol=20), make_case(chol=30)]
    params = fit_minmax(CaseBase.from_cases(cases))
    assert params.mins[CHOL] == 10
    assert params.maxs[CHOL] == 30
    assert params.ranges[CHOL] == 20
    assert not params.degenerate[CHOL]


def test_constant_column_is_degenerate():
    cases = [make_case(chol=5), make_case(chol=5), make_case(chol=5)]
    params = fit_minmax(CaseBase.from_cases(cases))
    assert params.ranges[CHOL] == 0.0
    assert params.degenerate[CHOL]


def test_single_case_training_set_all_degenerate():
    params = fit_minmax(CaseBase.from_cases([make_case()]))
    assert all(params.degenerate)
    assert all(r == 0.0 for r in params.ranges)


def test_fit_accepts_case_base():
    base = CaseBase.from_cases([make_case(chol=100), make_case(chol=300)])
    params = fit_minmax(base)
    assert params.ranges[CHOL] == 200


def test_fit_empty_training_set():
    with pytest.raises(ValueError):
        fit_minmax(CaseBase())
    with pytest.raises(ValueError):
        fit_from_vectors([])


def test_normalize_endpoints_and_midpoint():
    params = fit_from_vectors([(10.0,), (30.0,)])
    assert normalize((10.0,), params) == (0.0,)
    assert normalize((30.0,), params) == (1.0,)
    assert normalize((20.0,), params) == (0.5,)


def test_degenerate_attribute_maps_to_zero():
    params = fit_from_vectors([(5.0,), (5.0,)])
    assert normalize((5.0,), params) == (0.0,)
    assert normalize((99.0,), params) == (0.0,)


def test_out_of_range_values_not_clamped():
    params = fit_from_vectors([(0.0,), (10.0,)])
    assert normalize((15.0,), params) == (1.5,)
    assert normalize((-5.0,), params) == (-0.5,)


def test_length_mismatch_rejected():
    params = fit_from_vectors([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        normalize((1.0,), params)
    with pytest.raises(ValueError):
        fit_from_vectors([(0.0,), (1.0, 2.0)])


def test_params_derive_ranges_and_flags_from_the_extrema():
    params = NormalizationParams((0.0, 2.0, -0.5), (1.0, 2.0, 0.25))
    assert params.ranges == (1.0, 0.0, 0.75)
    assert params.degenerate == (False, True, False)
    assert params == NormalizationParams([0.0, 2.0, -0.5], [1.0, 2.0, 0.25])
    assert repr(params) == "NormalizationParams(mins=(0.0, 2.0, -0.5), maxs=(1.0, 2.0, 0.25))"


@pytest.mark.parametrize(
    "mins, maxs, message",
    [
        ((0.0,), (1.0, 2.0), "equal length"),
        ((1.0,), (0.0,), "below its min"),
        ((math.nan,), (1.0,), "finite"),
        ((0.0,), (math.inf,), "finite"),
        ((-1e308,), (1e308,), "finite"),  # the range overflows
    ],
)
def test_params_reject_bad_extrema(mins, maxs, message):
    with pytest.raises(ValueError, match=message):
        NormalizationParams(mins, maxs)


@given(cases_strategy(min_size=1, max_size=15))
def test_training_values_normalize_into_unit_interval(cases):
    params = fit_minmax(CaseBase.from_cases(cases))
    for case in cases:
        for value in normalize(to_feature_vector(case), params):
            assert 0.0 <= value <= 1.0


@given(cases_strategy(min_size=2, max_size=15))
def test_refit_on_normalized_training_data_gives_unit_extrema(cases):
    params = fit_minmax(CaseBase.from_cases(cases))
    scaled = [normalize(to_feature_vector(c), params) for c in cases]
    refit = fit_from_vectors(scaled)
    for i, degenerate in enumerate(params.degenerate):
        if not degenerate:
            assert refit.mins[i] == 0.0
            assert refit.maxs[i] == 1.0


def test_normalize_is_monotone_per_attribute():
    params = fit_from_vectors([(0.0,), (7.0,)])
    values = [-3.0, 0.0, 1.5, 3.5, 7.0, 11.0]
    scaled = [normalize((v,), params)[0] for v in values]
    assert scaled == sorted(scaled)


def test_sidecar_round_trip(tmp_path):
    cases = [make_case(chol=100, oldpeak=0.0), make_case(chol=300, oldpeak=3.3)]
    params = fit_minmax(CaseBase.from_cases(cases))
    path = tmp_path / "normalization.json"
    write_params(params, path)
    assert read_params(path) == params


@given(cases_strategy(min_size=1, max_size=15))
def test_fit_on_case_base_matrix_equals_row_scan(cases):
    base = CaseBase.from_cases(cases)
    assert fit_minmax(base) == fit_from_vectors(to_feature_vector(c) for c in cases)


def test_fit_follows_cases_added_after_the_matrix_is_built():
    base = CaseBase.from_cases([make_case(chol=100), make_case(chol=300)])
    fit_minmax(base)
    base.add(make_case(chol=50))
    params = fit_minmax(base)
    assert (params.mins[CHOL], params.maxs[CHOL], params.ranges[CHOL]) == (50, 300, 250)


# Cases whose age, chol and oldpeak spread to both sides of any starting
# extrema, with 0.0 and -0.0 mixed in oldpeak (validation accepts -0.0).
widening_cases = st.builds(
    lambda age, chol, oldpeak, target: make_case(age=age, chol=chol, oldpeak=oldpeak, target=target),
    age=st.integers(1, 100),
    chol=st.integers(-50, 1000),
    oldpeak=st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.5]) | st.floats(0.0, 10.0),
    target=st.sampled_from([0, 1]),
)


@settings(max_examples=200, deadline=None)
@given(
    start=st.lists(widening_cases, max_size=6),
    added=st.lists(widening_cases | st.integers(0, 40), min_size=1, max_size=30),
    first_fit=st.integers(0, 30),
)
def test_fit_after_adds_equals_reducing_the_columns(start, added, first_fit):
    # The running extrema must give what reducing the whole matrix gives,
    # signed zeros included, whenever they are first built (first_fit) and
    # after every add from then on. An integer in added repeats that case.
    base = CaseBase.from_cases(start)
    for index, case in enumerate(added):
        if isinstance(case, int):
            cases = base.cases()
            case = cases[case % len(cases)] if cases else make_case()
        base.add(case)
        if index < first_fit:
            continue
        params = fit_minmax(base)
        features = base.arrays()[0]
        assert [repr(x) for x in params.mins] == [repr(x) for x in features.min(axis=0).tolist()]
        assert [repr(x) for x in params.maxs] == [repr(x) for x in features.max(axis=0).tolist()]
        assert params == fit_from_vectors(features.tolist())


def float_reprs(params):
    return [repr(x) for x in params.mins + params.maxs + params.ranges], params.degenerate


@settings(max_examples=200, deadline=None)
@given(
    start=st.lists(widening_cases, min_size=1, max_size=6),
    added=st.lists(widening_cases | st.integers(0, 40), min_size=1, max_size=30),
)
def test_retain_keeps_the_params_object_exactly_while_no_extremum_moves(start, added):
    # An integer in added repeats that stored case with the sign of its
    # oldpeak zero flipped (or as it is, when oldpeak is not zero), so rows
    # that differ from a stored one only by 0.0 against -0.0 come often.
    base = CaseBase.from_cases(start)
    params = fit_minmax(base)
    for case in added:
        if isinstance(case, int):
            case = base.cases()[case % len(base)]
            case = dataclasses.replace(case, oldpeak=-case.oldpeak if case.oldpeak == 0 else case.oldpeak)
        base, refit = retain(case, case.target, base)
        rebuilt = fit_minmax(CaseBase.from_cases(base.cases()))
        assert float_reprs(refit) == float_reprs(rebuilt)
        assert (refit is params) == (float_reprs(rebuilt) == float_reprs(params))
        params = refit


def edited_sidecar(tmp_path, chol):
    """The sidecar with chol's entry updated by a dict ``chol``, without that key if a str, without chol if None.

    Any other ``chol`` replaces the entry.
    """
    params = fit_minmax(CaseBase.from_cases([make_case(chol=100), make_case(chol=300)]))
    path = tmp_path / "normalization.json"
    write_params(params, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if chol is None:
        del payload["chol"]
    elif isinstance(chol, str):
        del payload["chol"][chol]
    elif isinstance(chol, dict):
        payload["chol"].update(chol)
    else:
        payload["chol"] = chol
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


FLAG_MISMATCH = "^degenerate flag must mark exactly the zero ranges$"
NOT_NUMBERS = "^sidecar attribute chol: min, max and range must be JSON numbers$"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"min": math.nan}, "finite"),
        ({"max": math.inf, "range": math.inf}, "finite"),
        ({"range": -math.inf}, "finite"),
        ({"min": 300.0, "max": 100.0, "range": -200.0}, "below its min"),
        ({"range": 150.0}, "not max - min"),
        (None, "^sidecar missing attributes: chol$"),
        *[(key, f"^sidecar attribute chol has no '{key}'$") for key in ("min", "max", "range", "degenerate")],
        ({"degenerate": True}, FLAG_MISMATCH),
        ({"degenerate": 0}, FLAG_MISMATCH),  # a JSON boolean alone is a flag
        ({"min": 300.0, "range": 0.0, "degenerate": "no"}, FLAG_MISMATCH),
        ({"min": 300.0, "range": 0.0, "degenerate": 1}, FLAG_MISMATCH),
        ({"min": 300.0, "range": 0.0, "degenerate": False}, FLAG_MISMATCH),
        (5, "^sidecar attribute chol has no 'min'$"),
        ([100.0, 300.0], "^sidecar attribute chol has no 'min'$"),
        ({"min": None}, NOT_NUMBERS),
        ({"max": "300"}, NOT_NUMBERS),
        ({"range": True}, NOT_NUMBERS),
        ({"max": 10**400}, "finite"),
    ],
    ids=[
        "nan-min", "inf-max", "inf-range", "max-below-min", "range-mismatch", "missing-attribute",
        "no-min", "no-max", "no-range", "no-degenerate",
        "flag-on-nonzero-range", "zero-flag-on-nonzero-range", "string-flag-on-zero-range",
        "one-flag-on-zero-range", "flag-off-zero-range", "entry-not-an-object", "entry-a-list",
        "null-min", "string-max", "boolean-range", "integer-max-past-the-float-range",
    ],
)
def test_read_params_rejects_hand_edited_sidecar(tmp_path, edit, message):
    with pytest.raises(ValueError, match=message) as exc:
        read_params(edited_sidecar(tmp_path, edit))
    assert type(exc.value) is ValueError


def test_read_params_rejects_a_sidecar_that_is_not_an_object(tmp_path):
    path = tmp_path / "normalization.json"
    path.write_text("5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^sidecar missing attributes: age, sex, "):
        read_params(path)
