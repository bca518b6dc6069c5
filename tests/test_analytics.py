import dataclasses
import math
import random
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heartcbr.analytics import (
    CHEST_PAIN_LABELS,
    CORRELATION_COLUMNS,
    StatsTables,
    accuracy,
    dataset_stats,
    pearson_correlation,
)
from heartcbr.cases import FEATURE_NAMES, validate_case
from heartcbr.synthetic import generate_rows

from conftest import cases_strategy, make_case


# --- accuracy ----------------------------------------------------------------


def test_accuracy_all_match():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_none_match():
    assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0


def test_accuracy_fraction():
    assert accuracy([1, 0, 0, 1], [1, 1, 0, 0]) == 0.5


def test_accuracy_headline_ratio():
    predictions = [1] * 1004 + [0] * 21
    truths = [1] * 1025
    assert accuracy(predictions, truths) == 1004 / 1025
    assert round(100 * accuracy(predictions, truths), 2) == 97.95


def test_headline_ratio_is_unique_over_1025():
    # Exactly one correct-count over 1025 rounds to the 97.95 headline.
    matches = [k for k in range(1026) if round(100 * k / 1025, 2) == 97.95]
    assert matches == [1004]


def test_accuracy_errors():
    with pytest.raises(ValueError):
        accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        accuracy([], [])


@given(st.lists(st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])), min_size=1, max_size=50))
def test_accuracy_permutation_invariant(pairs):
    predictions = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    baseline = accuracy(predictions, truths)
    order = list(range(len(pairs)))
    random.Random(0).shuffle(order)
    shuffled = accuracy([predictions[i] for i in order], [truths[i] for i in order])
    assert shuffled == baseline


# --- descriptive statistics -----------------------------------------------------


def small_population():
    cases = [
        make_case(age=50, sex=1, cp=0, thalach=150),
        make_case(age=50, sex=1, cp=0, thalach=170),
        make_case(age=60, sex=0, cp=2, thalach=140),
        make_case(age=60, sex=1, cp=2, thalach=120),
        make_case(age=70, sex=0, cp=3, thalach=110),
    ]
    labels = [1, 0, 1, 1, 0]
    return cases, labels


def test_gender_counts():
    cases, labels = small_population()
    stats = dataset_stats(cases, labels)
    assert stats.gender_counts == {"male": 3, "female": 2}


def test_disease_counts():
    cases, labels = small_population()
    stats = dataset_stats(cases, labels)
    assert stats.disease_counts == {"positive": 3, "negative": 2}


def test_positives_by_gender():
    cases, labels = small_population()
    stats = dataset_stats(cases, labels)
    assert stats.positives_by_gender["male"]["count"] == 2
    assert stats.positives_by_gender["female"]["count"] == 1
    assert stats.positives_by_gender["male"]["percent"] == pytest.approx(200 / 3)
    assert stats.positives_by_gender["female"]["percent"] == pytest.approx(100 / 3)


def test_disease_by_age_and_max_heart_rate():
    cases, labels = small_population()
    stats = dataset_stats(cases, labels)
    assert stats.disease_by_age == {50: 1, 60: 2, 70: 0}
    assert stats.max_heart_rate_by_age == {50: 170, 60: 140, 70: 110}


def test_chest_pain_table():
    cases, labels = small_population()
    stats = dataset_stats(cases, labels)
    assert stats.chest_pain_table[0] == {"positives": 1, "total": 2}
    assert stats.chest_pain_table[1] == {"positives": 0, "total": 0}
    assert stats.chest_pain_table[2] == {"positives": 2, "total": 2}
    assert stats.chest_pain_table[3] == {"positives": 0, "total": 1}


def test_stats_alignment_mismatch():
    cases, labels = small_population()
    with pytest.raises(ValueError):
        dataset_stats(cases, labels[:-1])


def test_stats_no_positives_percentages_are_zero():
    cases, _ = small_population()
    stats = dataset_stats(cases, [0] * len(cases))
    assert stats.positives_by_gender["male"]["percent"] == 0.0
    assert stats.positives_by_gender["female"]["percent"] == 0.0


@given(cases_strategy(min_size=1, max_size=25))
def test_stats_internal_sums_hold(cases):
    labels = [c.target for c in cases]
    stats = dataset_stats(cases, labels)
    n = len(cases)
    assert stats.gender_counts["male"] + stats.gender_counts["female"] == n
    assert stats.disease_counts["positive"] + stats.disease_counts["negative"] == n
    assert sum(e["total"] for e in stats.chest_pain_table.values()) == n
    assert (
        sum(e["positives"] for e in stats.chest_pain_table.values())
        == stats.disease_counts["positive"]
    )
    assert (
        stats.positives_by_gender["male"]["count"]
        + stats.positives_by_gender["female"]["count"]
        == stats.disease_counts["positive"]
    )
    assert sum(stats.disease_by_age.values()) == stats.disease_counts["positive"]


def five_pass_stats(cases, labels):
    """dataset_stats as five Python passes over the cases, the form the C-level passes replaced."""
    if len(cases) != len(labels):
        raise ValueError(
            f"alignment mismatch: {len(cases)} cases vs {len(labels)} labels"
        )

    male = sum(1 for c in cases if c.sex == 1)
    gender_counts = {"male": male, "female": len(cases) - male}

    positive = sum(1 for lab in labels if lab == 1)
    disease_counts = {"positive": positive, "negative": len(cases) - positive}

    male_pos = sum(1 for c, lab in zip(cases, labels) if lab == 1 and c.sex == 1)
    female_pos = positive - male_pos
    positives_by_gender = {
        "male": {
            "count": male_pos,
            "percent": 100.0 * male_pos / positive if positive else 0.0,
        },
        "female": {
            "count": female_pos,
            "percent": 100.0 * female_pos / positive if positive else 0.0,
        },
    }

    disease_by_age: dict[int, int] = {}
    max_heart_rate_by_age: dict[int, int] = {}
    for case, label in zip(cases, labels):
        disease_by_age.setdefault(case.age, 0)
        if label == 1:
            disease_by_age[case.age] += 1
        best = max_heart_rate_by_age.get(case.age)
        if best is None or case.thalach > best:
            max_heart_rate_by_age[case.age] = case.thalach

    chest_pain_table = {code: {"positives": 0, "total": 0} for code in sorted(CHEST_PAIN_LABELS)}
    for case, label in zip(cases, labels):
        entry = chest_pain_table.setdefault(case.cp, {"positives": 0, "total": 0})
        entry["total"] += 1
        if label == 1:
            entry["positives"] += 1

    return StatsTables(
        gender_counts=gender_counts,
        disease_counts=disease_counts,
        positives_by_gender=positives_by_gender,
        disease_by_age=dict(sorted(disease_by_age.items())),
        max_heart_rate_by_age=dict(sorted(max_heart_rate_by_age.items())),
        chest_pain_table=chest_pain_table,
    )


@st.composite
def stats_inputs(draw):
    # Few ages and rates, so one age often holds tied highest rates; chest-pain
    # codes past 0-3, which validation rejects, set on a valid case directly;
    # and labels that equal 1 without being the int 1, or that are truthy but not 1.
    base = make_case()
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(29, 33),
                st.sampled_from([0, 1]),
                st.integers(0, 7),
                st.integers(140, 143),
                st.sampled_from([0, 1, True, False, 1.0, 0.0, 2]),
            ),
            max_size=40,
        )
    )
    cases = [dataclasses.replace(base, age=a, sex=s, cp=c, thalach=t) for a, s, c, t, _ in rows]
    return cases, [label for *_, label in rows]


@settings(max_examples=200, deadline=None)
@given(stats_inputs())
def test_stats_match_the_five_pass_form_by_repr(inputs):
    cases, labels = inputs
    assert repr(dataset_stats(cases, labels)) == repr(five_pass_stats(cases, labels))


def test_stats_match_the_five_pass_form_on_empty_and_misaligned_input():
    assert repr(dataset_stats([], [])) == repr(five_pass_stats([], []))
    cases, labels = small_population()
    with pytest.raises(ValueError) as raised:
        dataset_stats(cases, labels[:-1])
    with pytest.raises(ValueError) as expected:
        five_pass_stats(cases, labels[:-1])
    assert str(raised.value) == str(expected.value)


# --- correlation -----------------------------------------------------------------


def column_cases(*columns):
    """Build cases whose age/trestbps/chol columns carry the given values."""
    n = len(columns[0])
    names = ("age", "trestbps", "chol")
    cases = []
    for i in range(n):
        overrides = {name: col[i] for name, col in zip(names, columns)}
        overrides["target"] = i % 2
        cases.append(make_case(**overrides))
    return cases


def oracle_pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        math.fsum((a - mx) ** 2 for a in x) * math.fsum((b - my) ** 2 for b in y)
    )
    return num / den


def test_correlation_matrix_shape_and_diagonal():
    cases = column_cases([1, 2, 3, 4], [2, 4, 6, 8], [5, 1, 2, 9])
    matrix = pearson_correlation(cases)
    assert len(matrix) == len(CORRELATION_COLUMNS) == 14
    assert all(len(row) == 14 for row in matrix)
    age = CORRELATION_COLUMNS.index("age")
    assert matrix[age][age] == 1.0


def test_correlation_perfectly_linear_columns():
    cases = column_cases([1, 2, 3], [2, 4, 6], [10, 11, 12])
    matrix = pearson_correlation(cases)
    age = CORRELATION_COLUMNS.index("age")
    trestbps = CORRELATION_COLUMNS.index("trestbps")
    assert matrix[age][trestbps] == 1.0


def test_correlation_anti_linear_columns():
    cases = column_cases([1, 2, 3], [6, 4, 2], [10, 11, 12])
    matrix = pearson_correlation(cases)
    age = CORRELATION_COLUMNS.index("age")
    trestbps = CORRELATION_COLUMNS.index("trestbps")
    assert matrix[age][trestbps] == -1.0


def test_correlation_matches_direct_formula():
    x, y = [1, 2, 3], [1, 2, 4]
    cases = column_cases(x, y, [10, 11, 12])
    matrix = pearson_correlation(cases)
    age = CORRELATION_COLUMNS.index("age")
    trestbps = CORRELATION_COLUMNS.index("trestbps")
    expected = oracle_pearson(x, y)
    assert matrix[age][trestbps] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(3 / math.sqrt(2 * 14 / 3))


def test_correlation_constant_column_undefined():
    cases = [make_case(age=50, target=i % 2) for i in range(4)]
    matrix = pearson_correlation(cases)
    age = CORRELATION_COLUMNS.index("age")
    assert all(entry is None for entry in matrix[age])
    assert all(row[age] is None for row in matrix)


def test_correlation_symmetry_and_bounds_on_random_data():
    rng = random.Random(7)
    for _ in range(10):
        cases = [
            make_case(
                age=rng.randint(30, 80),
                trestbps=rng.randint(90, 200),
                chol=rng.randint(120, 560),
                thalach=rng.randint(70, 200),
                oldpeak=round(rng.uniform(0, 6), 1),
                cp=rng.randint(0, 3),
                sex=rng.randint(0, 1),
                target=rng.randint(0, 1),
            )
            for _ in range(10)
        ]
        matrix = pearson_correlation(cases)
        for i in range(14):
            for j in range(14):
                assert matrix[i][j] == matrix[j][i]
                if matrix[i][j] is not None:
                    assert -1.0 <= matrix[i][j] <= 1.0


def test_correlation_requires_two_rows_and_targets():
    with pytest.raises(ValueError):
        pearson_correlation([make_case()])
    raw = make_case().__dict__ | {"target": None}
    from heartcbr.cases import Case

    with pytest.raises(ValueError):
        pearson_correlation([Case(**raw), Case(**raw)])


def per_pair_pearson(cases):
    """The correlation matrix one column pair at a time, each sum its own np.add.reduce call."""
    data = np.array(list(map(attrgetter(*CORRELATION_COLUMNS), cases)), dtype=np.float64)
    n_cols = data.shape[1]
    constant = [bool(data[:, j].min() == data[:, j].max()) for j in range(n_cols)]
    centered = np.ascontiguousarray((data - data.mean(axis=0)).T)
    squares = [float(np.add.reduce(column * column)) for column in centered]

    matrix = [[None] * n_cols for _ in range(n_cols)]
    for i in range(n_cols):
        if constant[i]:
            continue
        matrix[i][i] = 1.0
        for j in range(i + 1, n_cols):
            if constant[j]:
                continue
            r = float(np.add.reduce(centered[i] * centered[j])) / math.sqrt(squares[i] * squares[j])
            r = max(-1.0, min(1.0, r))
            matrix[i][j] = r
            matrix[j][i] = r
    return matrix


@st.composite
def correlation_inputs(draw):
    # Sizes past numpy's 8192-element buffer as well as small ones; a few
    # columns made constant, and sometimes a copied column, which is
    # perfectly correlated.
    n = draw(st.one_of(st.integers(2, 300), st.sampled_from([8191, 8192, 8193, 12_289])))
    seed = draw(st.integers(0, 2**16))
    cases = [validate_case(raw)[0] for raw in generate_rows(n, seed=seed, duplicate_fraction=0.0)]
    for name in draw(st.sets(st.sampled_from(FEATURE_NAMES), max_size=3)):
        cases = [dataclasses.replace(c, **{name: getattr(cases[0], name)}) for c in cases]
    if draw(st.booleans()):
        cases = [dataclasses.replace(c, chol=c.trestbps) for c in cases]
    return cases


@settings(max_examples=40, deadline=None)
@given(correlation_inputs())
def test_correlation_matches_the_per_pair_sums_by_repr(cases):
    # pearson_correlation sums all pairs of one column in one np.add.reduce
    # along rows; each row must be summed exactly as a call of its own sums it.
    assert repr(pearson_correlation(cases)) == repr(per_pair_pearson(cases))
