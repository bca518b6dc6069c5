"""The numpy retrieval kernel against a pure-Python per-pair scorer.

The oracle below is the scorer the engine used before it was vectorised: one
query-case pair at a time, attributes in order, sequential sums. The kernel
must reproduce its scores bit for bit and pick the same best case (lowest id
on ties) through every entry point: frozen ``evaluate`` (in blocks),
incremental ``evaluate`` (predict + retain), ``predict`` and ``retrieve``.
"""

import dataclasses
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from heartcbr import engine
from heartcbr.cases import FEATURE_NAMES, to_feature_vector, validate_case
from heartcbr.dataset import CaseBase
from heartcbr.engine import SimilarityConfig, evaluate, global_similarity, predict, retrieve
from heartcbr.scaling import NormalizationParams, fit_from_vectors, fit_minmax, normalize
from heartcbr.synthetic import generate_rows

from conftest import in_domain_raw, make_case


def oracle_score(query, row, weights, degenerate, weight_sum):
    num = 0.0
    for a, b, w, deg in zip(query, row, weights, degenerate):
        if deg:
            sim = 1.0 if a == b else 0.0
        else:
            diff = a - b
            if diff < 0.0:
                diff = -diff
            sim = 1.0 - diff
            if sim < 0.0:
                sim = 0.0
        num += w * sim
    return num / weight_sum


def oracle_scores(query, stored, weights):
    """Scores of a raw query against raw stored rows, scaling fitted on the rows.

    Degenerate attributes keep their raw values, so they match only on equal
    raw values.
    """
    params = fit_from_vectors(stored)

    def prepared(vector):
        scaled = normalize(vector, params)
        return tuple(x if deg else s for x, s, deg in zip(vector, scaled, params.degenerate))

    q = prepared(query)
    degenerate = params.degenerate
    weight_sum = oracle_sum(weights)
    return [oracle_score(q, prepared(row), weights, degenerate, weight_sum) for row in stored]


def oracle_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def oracle_best(scores):
    best = max(scores)
    return scores.index(best), best


def assert_python_types(result):
    assert type(result.best_similarity) is float
    assert type(result.best_case_id) is int
    assert type(result.predicted_target) is int


def check_kernel(base_cases, queries, weights, block_pairs):
    config = SimilarityConfig(weights=tuple(weights))
    stored = [to_feature_vector(c) for c in base_cases]
    targets = [c.target for c in base_cases]
    base = CaseBase.from_cases(base_cases)
    params = fit_from_vectors(stored)

    with mock.patch.object(engine, "BLOCK_PAIRS", block_pairs):
        frozen = evaluate(queries, base, config, params)
    assert len(base) == len(base_cases)
    assert len(frozen.per_case) == len(queries)
    for query, result in zip(queries, frozen.per_case):
        scores = oracle_scores(to_feature_vector(query), stored, weights)
        best_id, best_score = oracle_best(scores)
        assert (result.best_case_id, result.best_similarity) == (best_id, best_score)
        assert result.predicted_target == targets[best_id]
        assert_python_types(result)

        prediction = predict(query, base, config, params, top_k=1)
        assert (prediction.best_case_id, prediction.best_global_similarity) == (best_id, best_score)
        assert type(prediction.best_global_similarity) is float
        assert type(prediction.best_case_id) is int
        ranked = retrieve(query, base, config, params)
        expected = sorted(zip(range(len(scores)), scores, targets), key=lambda m: (-m[1], m[0]))
        assert [tuple(m) for m in ranked] == expected
        assert all(type(m.score) is float and type(m.case_id) is int for m in ranked)

    # Incremental: query i sees the base grown by queries 0..i-1 with their
    # predicted targets, and scaling refitted on the grown base.
    grown = CaseBase.from_cases(base_cases)
    incremental = evaluate(queries, grown, config, params, incremental_retain=True)
    assert len(incremental.per_case) == len(queries)
    rows, labels = list(stored), list(targets)
    for query, result in zip(queries, incremental.per_case):
        vector = to_feature_vector(query)
        best_id, best_score = oracle_best(oracle_scores(vector, rows, weights))
        assert (result.best_case_id, result.best_similarity) == (best_id, best_score)
        assert result.predicted_target == labels[best_id]
        assert_python_types(result)
        rows.append(vector)
        labels.append(result.predicted_target)
    assert len(grown) == len(rows)


case_records = in_domain_raw().map(lambda raw: validate_case(raw, "strict")[0])
WIDENABLE = ("age", "trestbps", "chol", "thalach")  # integer attributes without a code list
weight_vectors = st.lists(
    st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.7]), min_size=13, max_size=13
).filter(lambda ws: sum(ws) > 0)


@st.composite
def kernel_inputs(draw):
    base = draw(st.lists(case_records, min_size=1, max_size=10))
    # Exact duplicates of stored rows, possibly under another target.
    for index in draw(st.lists(st.integers(0, len(base) - 1), max_size=5)):
        base.append(dataclasses.replace(base[index], target=draw(st.sampled_from([0, 1]))))
    # Constant (degenerate) columns.
    for name in draw(st.sets(st.sampled_from(FEATURE_NAMES), max_size=5)):
        base = [dataclasses.replace(c, **{name: getattr(base[0], name)}) for c in base]
    # Queries from the whole domain fall outside narrow training extrema, so
    # the clamp is used; some repeat stored rows.
    queries = draw(st.lists(case_records, min_size=1, max_size=12))
    for index in draw(st.lists(st.integers(0, len(base) - 1), max_size=3)):
        queries.append(base[index])
    # Queries past the current extrema of an attribute, below or above, at
    # any position: incremental evaluate retains them, so the next query is
    # scored under new scaling and the cached scaled rows must be redone.
    widenings = st.tuples(st.sampled_from(WIDENABLE), st.sampled_from([-1, 1]))
    for name, step in draw(st.lists(widenings, max_size=3)):
        values = [getattr(c, name) for c in base + queries]
        value = (min(values) if step < 0 else max(values)) + step * draw(st.integers(1, 20))
        query = dataclasses.replace(draw(st.sampled_from(queries)), **{name: value})
        queries.insert(draw(st.integers(0, len(queries))), query)
    weights = draw(weight_vectors)
    # A few queries per block, so most runs cross block boundaries.
    block_pairs = draw(st.integers(1, 3 * len(base)))
    return base, queries, weights, block_pairs


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_oracle(inputs):
    check_kernel(*inputs)


def test_kernel_matches_oracle_on_constructed_edge_cases():
    # Two duplicate rows with different targets, a constant fbs column, a
    # query far outside the training extrema, a zero weight and 7 queries in
    # blocks of 2.
    base = [
        make_case(age=40, chol=200, fbs=0, target=1),
        make_case(age=40, chol=200, fbs=0, target=0),
        make_case(age=60, chol=300, fbs=0, target=0),
    ]
    queries = [
        make_case(age=40, chol=200, fbs=0),
        make_case(age=40, chol=200, fbs=1),
        make_case(age=90, chol=600, fbs=0),
        make_case(age=10, chol=100, fbs=1),
        make_case(age=50, chol=250, fbs=0),
        make_case(age=60, chol=300, fbs=1),
        make_case(age=61, chol=299, fbs=0),
    ]
    weights = [1.0] * 13
    weights[FEATURE_NAMES.index("sex")] = 0.0
    check_kernel(base, queries, weights, block_pairs=2 * len(base))

    frozen = CaseBase.from_cases(base)
    report = evaluate(queries, frozen, SimilarityConfig(), fit_minmax(frozen))
    assert [r.best_case_id for r in report.per_case[:2]] == [0, 0]
    assert report.per_case[0].best_similarity == 1.0
    assert report.per_case[1].best_similarity < 1.0


UNEVEN_WEIGHTS = (0.25, 1.0, 3.7)


def test_global_similarity_adds_attributes_in_order():
    # One query against one case is a 1 x 1 plane per attribute, the shape in
    # which a reduction over the attribute axis sums the 13 terms pairwise.
    # With uneven weights that changes the last bit of about one score in six.
    rng = random.Random(13)
    unit = NormalizationParams((0.0,) * 13, (1.0,) * 13, (1.0,) * 13, (False,) * 13)
    for _ in range(2000):
        weights = tuple(rng.choice(UNEVEN_WEIGHTS) for _ in range(13))
        query = [rng.uniform(-0.5, 1.5) for _ in range(13)]
        case = [rng.uniform(-0.5, 1.5) for _ in range(13)]
        expected = oracle_score(query, case, weights, unit.degenerate, oracle_sum(weights))
        assert global_similarity(query, case, SimilarityConfig(weights), unit) == expected


def test_kernel_matches_oracle_in_every_attribute_group_size():
    # One query against 10 stored cases is broadcast in groups of
    # BLOCK_PAIRS // 10 attributes: 1, 4 (4 + 4 + 4 + 1) and 13 below. A base
    # of one case has only degenerate attributes, and predict scores a query
    # against it as one group of 13 planes of 1 x 1.
    rng = random.Random(7)
    cases = [validate_case(raw)[0] for raw in generate_rows(40, seed=3, duplicate_fraction=0.0)]
    for block_pairs in (10, 40, 130):
        weights = [rng.choice(UNEVEN_WEIGHTS) for _ in range(13)]
        with mock.patch.object(engine, "BLOCK_PAIRS", block_pairs):
            check_kernel(cases[:10], cases[10:20], weights, block_pairs)
    for query in cases[20:]:
        weights = [rng.choice(UNEVEN_WEIGHTS) for _ in range(13)]
        check_kernel(cases[:1], [query], weights, block_pairs=1)
