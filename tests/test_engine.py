import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heartcbr.cases import FEATURE_NAMES, Case, CaseValidationError, _feature_values, to_feature_vector
from heartcbr.dataset import CaseBase, DatasetError, read_case_base, write_case_base
from heartcbr.engine import (
    Prediction,
    RankedMatch,
    SimilarityConfig,
    evaluate,
    global_similarity,
    predict,
    rank_scaled,
    retain,
    retrieve,
    reuse,
)
from heartcbr.scaling import NormalizationParams, fit_minmax, normalize
from heartcbr.synthetic import generate_rows

from conftest import make_case

UNIT_PARAMS = NormalizationParams(mins=(0.0,) * 13, maxs=(1.0,) * 13)


def scaled_vectors(min_value=-0.25, max_value=1.25):
    return st.lists(
        st.floats(min_value, max_value, allow_nan=False), min_size=13, max_size=13
    ).map(tuple)


# --- similarity config --------------------------------------------------------


def test_config_defaults():
    config = SimilarityConfig()
    assert config.weights == (1.0,) * 13
    assert config.weight_sum == 13.0


@pytest.mark.parametrize(
    "weights",
    [(1.0,) * 12, (1.0,) * 14, (-1.0,) + (1.0,) * 12, (0.0,) * 13],
)
def test_config_rejects_bad_weights(weights):
    with pytest.raises(ValueError):
        SimilarityConfig(weights=weights)


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
)
def test_config_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        SimilarityConfig(weights=(bad,) + (1.0,) * 12)


def test_config_rejects_weights_whose_sum_overflows():
    with pytest.raises(ValueError, match="finite sum"):
        SimilarityConfig(weights=(1e308,) * 13)


# --- global similarity --------------------------------------------------------


def test_global_similarity_identical_vectors():
    vec = tuple(i / 13 for i in range(13))
    assert global_similarity(vec, vec, SimilarityConfig(), UNIT_PARAMS) == 1.0


def test_global_similarity_single_attribute_mismatch():
    a = (0.5,) * 13
    b = (0.5,) * 12 + (1.5,)  # local similarity exactly 0 on the last attribute
    score = global_similarity(a, b, SimilarityConfig(), UNIT_PARAMS)
    assert score == 12 / 13


def test_global_similarity_weight_scaling_is_neutral():
    a = (0.0,) * 12 + (0.25,)
    b = (0.0,) * 12 + (0.75,)  # dyadic values keep the arithmetic exact
    base = global_similarity(a, b, SimilarityConfig(), UNIT_PARAMS)
    scaled = global_similarity(
        a, b, SimilarityConfig(weights=(10.0,) * 13), UNIT_PARAMS
    )
    assert scaled == base


def test_global_similarity_requires_13_attributes():
    with pytest.raises(ValueError):
        global_similarity((0.5,) * 12, (0.5,) * 13, SimilarityConfig(), UNIT_PARAMS)


@given(scaled_vectors(), scaled_vectors())
def test_global_similarity_bounds_and_symmetry(a, b):
    config = SimilarityConfig()
    ab = global_similarity(a, b, config, UNIT_PARAMS)
    ba = global_similarity(b, a, config, UNIT_PARAMS)
    assert 0.0 <= ab <= 1.0
    assert ab == ba


@given(scaled_vectors())
def test_global_similarity_self_is_exactly_one(vec):
    assert global_similarity(vec, vec, SimilarityConfig(), UNIT_PARAMS) == 1.0


@given(
    scaled_vectors(0.0, 1.0),
    scaled_vectors(0.0, 1.0),
    st.integers(0, 12),
    st.floats(0.01, 0.5),
)
def test_global_similarity_monotone_in_attribute_distance(a, b, index, delta):
    config = SimilarityConfig()
    before = global_similarity(a, b, config, UNIT_PARAMS)
    direction = 1.0 if b[index] >= a[index] else -1.0
    further = b[:index] + (b[index] + direction * delta,) + b[index + 1 :]
    after = global_similarity(a, further, config, UNIT_PARAMS)
    assert after <= before


# --- retrieve / reuse / predict ------------------------------------------------


def toy_base():
    # Varying attributes have power-of-two column ranges so every scaled
    # value is an exact dyadic and score comparisons are decidable.
    cases = [
        make_case(age=40, chol=100, thalach=100, target=0),
        make_case(age=48, chol=120, thalach=116, target=1),
        make_case(age=56, chol=140, thalach=140, target=0),
        make_case(age=72, chol=164, thalach=164, target=1),
    ]
    base = CaseBase.from_cases(cases)
    return base, fit_minmax(base)


def fraction_ranking(query, rows, ids, targets, weights, degenerate):
    """Exact rational evaluation of the weighted-average similarity."""
    scored = []
    for cid, row, tgt in zip(ids, rows, targets):
        num = Fraction(0)
        den = Fraction(0)
        for a, b, w, deg in zip(query, row, weights, degenerate):
            if deg:
                sim = Fraction(int(a == b))
            else:
                sim = max(Fraction(0), 1 - abs(Fraction(a) - Fraction(b)))
            num += Fraction(w) * sim
            den += Fraction(w)
        scored.append((cid, num / den, tgt))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def test_retrieve_exact_match_ranks_first():
    base, params = toy_base()
    query = make_case(age=56, chol=140, thalach=140)
    ranked = retrieve(query, base, SimilarityConfig(), params)
    assert ranked[0].case_id == 2
    assert ranked[0].score == 1.0


def test_retrieve_single_case_base():
    base = CaseBase.from_cases([make_case(target=1)])
    ranked = retrieve(make_case(age=99), base, SimilarityConfig(), fit_minmax(base))
    assert len(ranked) == 1


def test_retrieve_empty_base_rejected():
    with pytest.raises(ValueError):
        retrieve(make_case(), CaseBase(), SimilarityConfig(), UNIT_PARAMS)


def test_retrieve_matches_exact_rational_oracle():
    base, params = toy_base()
    config = SimilarityConfig()
    query = make_case(age=44, chol=132, thalach=108)
    ranked = retrieve(query, base, config, params)

    scaled_query = normalize(to_feature_vector(query), params)
    rows = [normalize(to_feature_vector(c), params) for c in base.cases()]
    expected = fraction_ranking(
        scaled_query, rows, base.ids(), [c.target for c in base.cases()],
        config.weights, params.degenerate,
    )
    assert [m.case_id for m in ranked] == [cid for cid, _, _ in expected]
    assert [m.score for m in ranked] == [float(score) for _, score, _ in expected]


def test_retrieve_orders_exact_ties_by_ascending_id():
    # Two stored cases are field-identical, so their scores tie exactly.
    cases = [make_case(age=50, target=1), make_case(age=60, target=0), make_case(age=50, target=0)]
    base = CaseBase.from_cases(cases)
    ranked = retrieve(make_case(age=50), base, SimilarityConfig(), fit_minmax(base))
    assert [m.case_id for m in ranked] == [0, 2, 1]


def test_predict_and_evaluate_resolve_exact_ties_to_lowest_id():
    # Cases 0 and 2 are field-identical with opposite targets; the lowest id wins.
    cases = [make_case(age=50, target=1), make_case(age=60, target=0), make_case(age=50, target=0)]
    base = CaseBase.from_cases(cases)
    params = fit_minmax(base)
    prediction = predict(make_case(age=50), base, SimilarityConfig(), params)
    assert (prediction.best_case_id, prediction.predicted_target) == (0, 1)
    assert retrieve(make_case(age=50), base, SimilarityConfig(), params)[0].case_id == 0
    report = evaluate([make_case(age=50, target=0)], base, SimilarityConfig(), params)
    assert (report.per_case[0].best_case_id, report.per_case[0].predicted_target) == (0, 1)


def test_reuse_takes_highest_score():
    ranked = [RankedMatch(7, 0.99, 1), RankedMatch(2, 0.95, 0)]
    assert reuse(ranked) == 1


def test_reuse_breaks_ties_by_lowest_id():
    ranked = [RankedMatch(2, 0.9, 0), RankedMatch(7, 0.9, 1)]
    assert reuse(ranked) == 0
    assert reuse(list(reversed(ranked))) == 0


def test_reuse_single_entry():
    assert reuse([RankedMatch(0, 0.4, 0)]) == 0


def test_reuse_empty_rejected():
    with pytest.raises(ValueError):
        reuse([])


def test_predict_identical_query_returns_stored_solution():
    base, params = toy_base()
    query = make_case(age=48, chol=120, thalach=116)
    prediction = predict(query, base, SimilarityConfig(), params)
    assert prediction.predicted_target == 1
    assert prediction.best_case_id == 1
    assert prediction.best_global_similarity == 1.0
    assert retrieve(query, base, SimilarityConfig(), params)[0] == RankedMatch(1, 1.0, 1)


def test_predict_single_case_base_returns_its_target():
    base = CaseBase.from_cases([make_case(target=1)])
    prediction = predict(make_case(age=20, chol=500), base, SimilarityConfig(), fit_minmax(base))
    assert prediction.predicted_target == 1


def test_predict_has_no_retain_side_effect():
    base, params = toy_base()
    predict(make_case(age=44), base, SimilarityConfig(), params)
    assert len(base) == 4


def test_retrieve_ranks_every_stored_case():
    base, params = toy_base()
    ranked = retrieve(make_case(age=44), base, SimilarityConfig(), params)
    assert sorted(m.case_id for m in ranked) == base.ids()


def test_retrieve_after_retains_equals_retrieve_on_a_base_built_at_once():
    # 40 stored cases leave no spare row: the first retain grows the arrays to
    # 80 rows and the 41st to 160, and two retains widen the chol extrema at
    # both ends.
    base = CaseBase.from_cases(
        [make_case(age=30 + k, chol=200 + 3 * k, target=k % 2) for k in range(40)]
    )
    params = fit_minmax(base)
    config, query = SimilarityConfig(), make_case(age=45, chol=230)
    assert len(retrieve(query, base, config, params)) == 40
    for k in range(45):
        chol = {0: 50, 1: 900}.get(k, 210 + k)
        base, params = retain(make_case(age=45, chol=chol), k % 2, base)
    assert len(base) == 85
    chol_index = FEATURE_NAMES.index("chol")
    assert (params.mins[chol_index], params.maxs[chol_index]) == (50, 900)

    ranked = retrieve(query, base, config, params)
    at_once = CaseBase.from_cases(base.cases())
    assert ranked == retrieve(query, at_once, config, fit_minmax(at_once))
    assert len(ranked) == 85
    for match in ranked:
        assert type(match) is RankedMatch
        assert (type(match.case_id), type(match.score), type(match.target)) == (int, float, int)
    prediction = predict(query, base, config, params)
    assert (prediction.best_case_id, prediction.best_global_similarity, prediction.predicted_target) == ranked[0]


# --- oracle equivalence ---------------------------------------------------------


def weighted_l1_argmin(query, rows, ids, weights):
    """Independent nearest-neighbor oracle; first (lowest id) wins ties."""
    best_id = None
    best_distance = None
    for cid, row in zip(ids, rows):
        distance = 0.0
        for a, b, w in zip(query, row, weights):
            distance += w * abs(a - b)
        if best_distance is None or distance < best_distance:
            best_id = cid
            best_distance = distance
    return best_id


def test_rank_scaled_agrees_with_distance_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(80):
        p = rng.randint(1, 13)
        n = rng.randint(1, 20)
        if rng.random() < 0.5:
            grid = 2 ** rng.choice([3, 4, 5])
            draw = lambda: rng.randrange(grid + 1) / grid
            weights = tuple(float(rng.randint(1, 5)) for _ in range(p))
        else:
            draw = rng.random
            weights = tuple(rng.uniform(0.05, 3.0) for _ in range(p))
        rows = [tuple(draw() for _ in range(p)) for _ in range(n)]
        query = tuple(draw() for _ in range(p))
        ids = list(range(n))
        ranked = rank_scaled(query, rows, ids, [0] * n, weights)
        assert ranked[0].case_id == weighted_l1_argmin(query, rows, ids, weights)


def test_predict_agrees_with_distance_oracle_on_case_instances():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 15)
        cases = [
            make_case(
                age=rng.randint(30, 75),
                trestbps=rng.randint(95, 195),
                chol=rng.randint(130, 550),
                thalach=rng.randint(75, 200),
                oldpeak=round(rng.uniform(0.0, 5.0), 1),
                cp=rng.randint(0, 3),
                target=rng.randint(0, 1),
            )
            for _ in range(n)
        ]
        base = CaseBase.from_cases(cases)
        params = fit_minmax(base)
        # Query drawn inside the per-attribute training extrema: clamp-free.
        query = make_case(
            age=rng.randint(min(c.age for c in cases), max(c.age for c in cases)),
            trestbps=rng.randint(
                min(c.trestbps for c in cases), max(c.trestbps for c in cases)
            ),
            chol=rng.randint(min(c.chol for c in cases), max(c.chol for c in cases)),
            thalach=rng.randint(
                min(c.thalach for c in cases), max(c.thalach for c in cases)
            ),
            oldpeak=round(
                rng.uniform(
                    min(c.oldpeak for c in cases), max(c.oldpeak for c in cases)
                ),
                1,
            ),
            cp=rng.randint(min(c.cp for c in cases), max(c.cp for c in cases)),
        )
        config = SimilarityConfig()
        prediction = predict(query, base, config, params)

        scaled_query = normalize(to_feature_vector(query), params)
        rows = [normalize(to_feature_vector(c), params) for c in base.cases()]
        oracle_id = weighted_l1_argmin(scaled_query, rows, base.ids(), config.weights)
        assert prediction.best_case_id == oracle_id


def test_degenerate_attribute_matches_on_raw_value_only():
    # fbs is 0 in every stored case, so its range is zero; a query with
    # fbs=1 must not match it, although both sides scale to 0.
    base = CaseBase.from_cases(
        [make_case(age=40, fbs=0, target=0), make_case(age=60, fbs=0, target=1)]
    )
    params = fit_minmax(base)
    assert params.degenerate[FEATURE_NAMES.index("fbs")]
    config = SimilarityConfig()

    mismatch = predict(make_case(age=40, fbs=1), base, config, params)
    assert mismatch.best_case_id == 0
    assert mismatch.best_global_similarity < 1.0
    assert mismatch.best_global_similarity == 12 / 13
    assert predict(make_case(age=40, fbs=0), base, config, params).best_global_similarity == 1.0

    report = evaluate([make_case(age=40, fbs=1, target=0)], base, config, params)
    assert report.per_case[0].best_similarity == 12 / 13
    assert retrieve(make_case(age=40, fbs=1), base, config, params)[0].score == 12 / 13


# --- retain -------------------------------------------------------------------


def test_retain_grows_base_by_one_with_fresh_id():
    base, _ = toy_base()
    before = list(base)
    updated, _ = retain(make_case(age=44, target=None), 1, base)
    assert len(updated) == 5
    assert updated.ids()[-1] == 4
    assert list(updated)[:4] == before


def test_retained_case_is_found_by_identical_requery():
    base, params = toy_base()
    query = make_case(age=65, chol=155, thalach=130)
    base, params = retain(query, 1, base)
    prediction = predict(query, base, SimilarityConfig(), params)
    assert prediction.predicted_target == 1
    assert prediction.best_global_similarity == 1.0
    assert prediction.best_case_id == 4


def test_retain_refits_widened_extrema():
    base, params = toy_base()
    chol_index = 4
    assert params.maxs[chol_index] == 164
    base, params = retain(make_case(chol=600), 0, base)
    assert params.maxs[chol_index] == 600
    assert params.mins[chol_index] == 100


def test_retain_rejects_bad_target():
    base, _ = toy_base()
    with pytest.raises(CaseValidationError):
        retain(make_case(), 2, base)


def test_retain_stores_the_query_as_given_with_the_solved_target():
    # A query is validated where it enters the program; retain checks only
    # the target and stores the 13 fields as they are. The case base alone
    # refuses an integer past 2**53, which its float rows cannot hold, and
    # is left as it was.
    base, _ = toy_base()
    queries = [
        make_case(age=2**53, ca=4, oldpeak=2.5, target=None),
        make_case(chol=555, thal=0, target=1),
        make_case(trestbps=99, oldpeak=0.0, target=0),
    ]
    for query in queries:
        base, _ = retain(query, 0, base)
    stored = base.cases()[-3:]
    for case, query in zip(stored, queries):
        assert vars(case) == {**vars(query), "target": 0}
        assert all(getattr(case, name) is getattr(query, name) for name in FEATURE_NAMES)
    assert base.ids()[-3:] == [4, 5, 6]
    before = (base.cases(), [view.tolist() for view in base.arrays()], base.extrema())
    with pytest.raises(DatasetError, match=r"^case 7: age: integer outside \[-2\*\*53, 2\*\*53\]$"):
        retain(dataclasses.replace(queries[0], age=2**53 + 1), 0, base)
    assert (base.cases(), [view.tolist() for view in base.arrays()], base.extrema()) == before


def test_predict_and_retain_on_a_read_base_build_no_stored_case(tmp_path, monkeypatch):
    # What predict --retain does: load, fit, predict, retain, write. The base
    # read from a file builds no Case for its stored rows; retain builds one,
    # the solved query.
    rows = generate_rows(300, seed=3)
    path = tmp_path / "case_base.csv"
    write_case_base(CaseBase.from_cases(Case(**row) for row in rows), path)
    query = make_case(age=61, chol=299, target=None)
    built = []
    init = Case.__init__
    monkeypatch.setattr(Case, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    base = read_case_base(path)
    params = fit_minmax(base)
    prediction = predict(query, base, SimilarityConfig(), params)
    base, params = retain(query, prediction.predicted_target, base)
    write_case_base(base, path)
    assert built == [(*_feature_values(query), prediction.predicted_target)]
    monkeypatch.undo()
    stored = [Case(**row) for row in rows] + [dataclasses.replace(query, target=prediction.predicted_target)]
    assert read_case_base(path).cases() == stored


def test_retain_stores_an_integral_target_as_an_int_and_rejects_a_bool():
    base, _ = toy_base()
    base, _ = retain(make_case(), 1.0, base)
    assert type(base.cases()[-1].target) is int
    with pytest.raises(CaseValidationError):
        retain(make_case(), True, base)
    assert len(base) == 5


# --- evaluate -----------------------------------------------------------------


def two_anchor_setup():
    train = CaseBase.from_cases(
        [make_case(age=40, target=0), make_case(age=60, target=1)]
    )
    test = [
        make_case(age=41, target=0),  # tn
        make_case(age=42, target=1),  # fn
        make_case(age=58, target=0),  # fp
        make_case(age=59, target=1),  # tp
    ]
    return train, test, fit_minmax(train)


def test_evaluate_all_correct_gives_accuracy_one():
    base, params = toy_base()
    test = [make_case(age=40, chol=100, thalach=100, target=0),
            make_case(age=72, chol=164, thalach=164, target=1)]
    report = evaluate(test, base, SimilarityConfig(), params)
    assert report.test_accuracy == 1.0
    assert report.merged_accuracy == 1.0
    assert all(r.best_similarity == 1.0 for r in report.per_case)


def test_evaluate_confusion_counts():
    train, test, params = two_anchor_setup()
    report = evaluate(test, train, SimilarityConfig(), params)
    assert (report.confusion.tp, report.confusion.tn) == (1, 1)
    assert (report.confusion.fp, report.confusion.fn) == (1, 1)
    assert report.confusion.total() == report.n_test == 4
    assert report.test_accuracy == 0.5


def test_evaluate_merged_accuracy_counts_train_as_correct():
    train, test, params = two_anchor_setup()
    report = evaluate(test, train, SimilarityConfig(), params)
    assert report.merged_accuracy == (2 + 2) / 6


def test_evaluate_frozen_base_is_not_mutated():
    train, test, params = two_anchor_setup()
    evaluate(test, train, SimilarityConfig(), params)
    assert len(train) == 2


def test_evaluate_incremental_retain_grows_base_and_changes_predictions():
    def fresh():
        train = CaseBase.from_cases(
            [make_case(age=40, target=0), make_case(age=80, target=1)]
        )
        test = [make_case(age=56, target=1), make_case(age=61, target=1)]
        return train, test, fit_minmax(train)

    train, test, params = fresh()
    frozen = evaluate(test, train, SimilarityConfig(), params)
    assert [r.predicted_target for r in frozen.per_case] == [0, 1]
    assert len(train) == 2

    train, test, params = fresh()
    incremental = evaluate(test, train, SimilarityConfig(), params, incremental_retain=True)
    # The first query is retained with its predicted label 0 and becomes the
    # nearest neighbor of the second query.
    assert [r.predicted_target for r in incremental.per_case] == [0, 0]
    assert len(train) == 4


def test_evaluate_is_deterministic():
    def run():
        train, test, params = two_anchor_setup()
        return evaluate(test, train, SimilarityConfig(), params)

    assert run() == run()


def test_evaluate_matches_per_case_predict():
    base, params = toy_base()
    test = [make_case(age=a, chol=c, thalach=t, target=0)
            for a, c, t in [(44, 132, 108), (70, 160, 150), (40, 100, 100)]]
    report = evaluate(test, base, SimilarityConfig(), params)
    for case, result in zip(test, report.per_case):
        prediction = predict(case, base, SimilarityConfig(), params)
        assert result.predicted_target == prediction.predicted_target
        assert result.best_case_id == prediction.best_case_id
        assert result.best_similarity == prediction.best_global_similarity


def test_evaluate_rejects_empty_or_unlabelled_test_sets():
    base, params = toy_base()
    with pytest.raises(ValueError):
        evaluate([], base, SimilarityConfig(), params)
    raw = make_case().__dict__ | {"target": None}
    unlabelled = Case(**raw)
    with pytest.raises(ValueError):
        evaluate([unlabelled], base, SimilarityConfig(), params)


def test_prediction_dataclass_shape():
    base, params = toy_base()
    query = make_case(age=44)
    prediction = predict(query, base, SimilarityConfig(), params)
    assert isinstance(prediction, Prediction)
    assert [f.name for f in dataclasses.fields(Prediction)] == [
        "predicted_target", "best_case_id", "best_global_similarity"
    ]
    assert prediction == predict(query, base, SimilarityConfig(), params)
    assert hash(prediction) == hash(dataclasses.astuple(prediction))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prediction.best_case_id = 0
    ranked = retrieve(query, base, SimilarityConfig(), params)
    assert prediction.best_global_similarity == max(m.score for m in ranked)
    stored_targets = dict(zip(base.ids(), (c.target for c in base.cases())))
    assert prediction.predicted_target == stored_targets[prediction.best_case_id]
