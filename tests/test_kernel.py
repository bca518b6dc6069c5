"""The numpy retrieval kernel against a pure-Python per-pair scorer.

The oracle below is the scorer the engine used before it was vectorised: one
query-case pair at a time, attributes in order, sequential sums. The kernel
must reproduce its scores bit for bit and pick the same best case (lowest id
on ties) through every entry point: frozen ``evaluate`` (in blocks),
incremental ``evaluate`` (predict + retain), ``predict`` and ``retrieve``.
The kernel scores each distinct stored row once; the oracle scores every
row, so copies of a row must expand back to every id unchanged. The kernel
sets numpy's ufunc buffer size for itself, so its scores must not depend on
the caller's setting, which it must leave as it found it, in every thread.
"""

import contextlib
import dataclasses
import math
import random
import struct
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from heartcbr import engine
from heartcbr.cases import FEATURE_NAMES, to_feature_vector, validate_case
from heartcbr.dataset import CaseBase
from heartcbr.engine import SimilarityConfig, evaluate, global_similarity, predict, retrieve, reuse
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


def oracle_scores(query, stored, weights, params=None):
    """Scores of a raw query against raw stored rows, scaling fitted on the rows unless given.

    Degenerate attributes keep their raw values, so they match only on equal
    raw values.
    """
    params = params or fit_from_vectors(stored)

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

        prediction = predict(query, base, config, params)
        assert (prediction.best_case_id, prediction.best_global_similarity) == (best_id, best_score)
        assert type(prediction.best_global_similarity) is float
        assert type(prediction.best_case_id) is int
        ranked = retrieve(query, base, config, params)
        expected = sorted(zip(range(len(scores)), scores, targets), key=lambda m: (-m[1], m[0]))
        assert [tuple(m) for m in ranked] == expected
        assert all(type(m.score) is float and type(m.case_id) is int for m in ranked)
        assert (prediction.best_case_id, prediction.best_global_similarity, prediction.predicted_target) == expected[0]

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
    unit = NormalizationParams((0.0,) * 13, (1.0,) * 13)
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


def far_query(base):
    """A query more than one scaled unit from every stored case in every attribute: each local similarity is 0."""
    values = {}
    for name in FEATURE_NAMES:
        column = [getattr(c, name) for c in base]
        values[name] = 2 * max(column) - min(column) + 1  # past the max by range + 1
    return dataclasses.replace(base[0], **values)


@st.composite
def signed_zero_inputs(draw):
    base = draw(st.lists(case_records, min_size=1, max_size=8))
    if draw(st.booleans()):  # attribute 0 (age) degenerate
        base = [dataclasses.replace(c, age=base[0].age) for c in base]
    weights = draw(weight_vectors.filter(lambda ws: sum(ws[1:]) > 0))
    weights[0] = draw(st.sampled_from([0.0, -0.0]))
    queries = draw(st.lists(case_records, max_size=4)) + [far_query(base)]
    return base, queries, weights


@settings(max_examples=100, deadline=None)
@given(signed_zero_inputs())
def test_scores_equal_the_oracle_by_repr_with_a_signed_zero_first_weight(inputs):
    # The kernel seeds its sum with the first weighted plane, which is -0.0
    # under a -0.0 weight where the oracle adds it to 0.0. Every score,
    # printed, must still be the oracle's, and the far query's 0.0, not -0.0.
    base_cases, queries, weights = inputs
    config = SimilarityConfig(weights=tuple(weights))
    base = CaseBase.from_cases(base_cases)
    params = fit_minmax(base)
    stored = [to_feature_vector(c) for c in base_cases]
    report = evaluate(queries, base, config, params)
    for query, result in zip(queries, report.per_case):
        expected = oracle_scores(to_feature_vector(query), stored, weights)
        by_id = sorted(retrieve(query, base, config, params))
        assert [repr(m.score) for m in by_id] == [repr(score) for score in expected]
        best = repr(max(expected))
        assert repr(result.best_similarity) == best
        assert repr(predict(query, base, config, params).best_global_similarity) == best
    assert repr(report.per_case[-1].best_similarity) == "0.0"


# Two values per attribute, so a row can be changed in one attribute alone.
OTHER_VALUE = {
    "age": (40, 41), "sex": (0, 1), "cp": (0, 1), "trestbps": (120, 121), "chol": (200, 201),
    "fbs": (0, 1), "restecg": (0, 1), "thalach": (150, 151), "exang": (0, 1),
    "oldpeak": (1.0, 1.5), "slope": (0, 1), "ca": (0, 1), "thal": (1, 2),
}


def with_other_value(case, name, target):
    low, high = OTHER_VALUE[name]
    value = high if getattr(case, name) == low else low
    return dataclasses.replace(case, **{name: value}, target=target)


@st.composite
def collapse_inputs(draw):
    """A base full of near and exact copies, queries that retain more copies."""
    base = draw(st.lists(case_records, min_size=1, max_size=8))
    zero_weight = draw(st.sampled_from(FEATURE_NAMES))
    targets = st.sampled_from([0, 1])
    for index in draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8)):
        case, target = base[index], draw(targets)
        kind = draw(st.sampled_from(["copy", "signed zero", "zero weight"]))
        if kind == "copy":  # an exact copy, possibly under another target
            base.append(dataclasses.replace(case, target=target))
        elif kind == "signed zero":  # oldpeak 0.0 and -0.0, otherwise equal
            base.append(dataclasses.replace(case, oldpeak=0.0))
            base.append(dataclasses.replace(case, oldpeak=-0.0, target=target))
        else:  # differs only in an attribute of weight 0: ties, but is another row
            base.append(with_other_value(case, zero_weight, target))
    queries = draw(st.lists(case_records, max_size=4))
    for index in draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=6)):
        queries.append(dataclasses.replace(base[index], oldpeak=draw(st.sampled_from([0.0, -0.0]))))
        queries.append(base[index])
    # Incremental evaluate retains every query, so repeating one stores a copy
    # of a retained row.
    for index in draw(st.lists(st.integers(0, len(queries) - 1), max_size=4)):
        queries.insert(draw(st.integers(0, len(queries))), queries[index])
    weights = draw(weight_vectors)
    weights[FEATURE_NAMES.index(zero_weight)] = 0.0
    if not any(weights):
        weights[(FEATURE_NAMES.index(zero_weight) + 1) % 13] = 1.0
    block_pairs = draw(st.integers(1, 3 * len(base)))
    return base, queries, weights, block_pairs


def assert_distinct_index(cases, base):
    """``base.distinct()`` against a pairwise comparison of the raw rows."""
    rows = [struct.pack("13d", *to_feature_vector(c)) for c in cases]
    first, columns = base.distinct()
    assert len(columns) == len(cases)
    for row, bits in enumerate(rows):
        # The same bits in every raw value (so 0.0 is not -0.0), whatever the targets.
        lowest = min(r for r, other in enumerate(rows) if other == bits)
        assert first[columns[row]] == lowest
    # Numbered in order of first occurrence, one column per distinct row.
    assert np.all(np.diff(first) > 0)
    assert columns[first].tolist() == list(range(len(first)))


@settings(max_examples=150, deadline=None)
@given(collapse_inputs())
def test_duplicate_collapse_matches_oracle(inputs):
    base_cases, queries, weights, block_pairs = inputs
    check_kernel(base_cases, queries, weights, block_pairs)

    every = base_cases + queries
    scratch = CaseBase.from_cases(every)
    assert_distinct_index(every, scratch)
    # The index extended one added row at a time, as retain does, equals one
    # built at once.
    grown = CaseBase.from_cases(base_cases)
    for case in queries:
        grown.distinct()
        grown.add(case)
    for built, extended in zip(scratch.distinct(), grown.distinct()):
        assert built.tolist() == extended.tolist()


def test_duplicate_collapse_keeps_the_lowest_id_and_every_row():
    # Rows 0 and 2 are one distinct row (targets 0 and 1); row 1 differs
    # only in the sign of oldpeak's zero and row 3 only in sex, weighted 0,
    # so both tie with them but keep their own columns.
    base_cases = [
        make_case(oldpeak=0.0, target=0),
        make_case(oldpeak=-0.0, target=1),
        make_case(oldpeak=0.0, target=1),
        make_case(oldpeak=0.0, sex=0, target=1),
        make_case(age=70, oldpeak=2.0, target=1),
    ]
    base = CaseBase.from_cases(base_cases)
    first, columns = base.distinct()
    assert first.tolist() == [0, 1, 3, 4]
    assert columns.tolist() == [0, 1, 0, 2, 3]
    weights = [1.0] * 13
    weights[FEATURE_NAMES.index("sex")] = 0.0
    config = SimilarityConfig(tuple(weights))
    params = fit_minmax(base)
    query = make_case(oldpeak=-0.0, target=1)
    prediction = predict(query, base, config, params)
    assert (prediction.predicted_target, prediction.best_case_id) == (0, 0)
    ranked = retrieve(query, base, config, params)
    assert [m.case_id for m in ranked] == [0, 1, 2, 3, 4]
    assert {m.score for m in ranked[:4]} == {1.0}
    check_kernel(base_cases, [query, base_cases[3], make_case(sex=0)], weights, block_pairs=4)


@st.composite
def tie_inputs(draw):
    """collapse_inputs with up to four attributes made constant (degenerate) across the base."""
    base, queries, weights, _ = draw(collapse_inputs())
    for name in draw(st.sets(st.sampled_from(FEATURE_NAMES), max_size=4)):
        base = [dataclasses.replace(c, **{name: getattr(base[0], name)}) for c in base]
    return base, queries, weights


@settings(max_examples=150, deadline=None)
@given(tie_inputs())
def test_the_three_lowest_id_tie_rules_agree(inputs):
    # predict takes first[argmax] of the distinct-row scores, retrieve sorts
    # every id by (-score, id), and reuse takes the max over (score, -id).
    base_cases, queries, weights = inputs
    base = CaseBase.from_cases(base_cases)
    config, params = SimilarityConfig(tuple(weights)), fit_minmax(base)
    for query in queries:
        prediction = predict(query, base, config, params)
        ranked = retrieve(query, base, config, params)
        best = ranked[0]
        assert prediction.best_case_id == best.case_id
        assert prediction.best_global_similarity.hex() == best.score.hex()
        assert prediction.predicted_target == best.target
        assert reuse(ranked) == best.target
        # With each target swapped for its id, reuse names the case it picks,
        # whatever order it reads them in.
        assert reuse([m._replace(target=m.case_id) for m in reversed(ranked)]) == best.case_id


def test_subnormal_range_scores_without_a_warning():
    # Stored oldpeak 0.0 and 5e-324 leave a subnormal range, so a query with
    # oldpeak 6.2 scales to inf; the clamp scores that attribute 0.
    base_cases = [make_case(oldpeak=0.0), make_case(oldpeak=5e-324, target=0)]
    query = make_case(oldpeak=6.2)
    base = CaseBase.from_cases(base_cases)
    expected = oracle_scores(to_feature_vector(query), [to_feature_vector(c) for c in base_cases], [1.0] * 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prediction = predict(query, base, SimilarityConfig(), fit_minmax(base))
        report = evaluate([query], base, SimilarityConfig(), fit_minmax(base))
        ranked = retrieve(query, base, SimilarityConfig(), fit_minmax(base))
    assert math.isfinite(prediction.best_global_similarity)
    assert (prediction.best_case_id, prediction.best_global_similarity) == oracle_best(expected)
    assert [m.score for m in ranked] == expected
    assert report.per_case[0].best_similarity == max(expected)


@pytest.fixture
def clamp_calls(monkeypatch):
    """Shapes of the planes the kernel clamps, through a counting ``np.maximum`` (``CaseBase.add`` calls it too)."""
    calls = []
    maximum = np.maximum

    def counting(planes, *args, **kwargs):
        calls.append(np.shape(planes))
        return maximum(planes, *args, **kwargs)

    monkeypatch.setattr(np, "maximum", counting)
    return calls


def assert_scores_match_oracle(queries, base_cases, params, weights=(1.0,) * 13):
    """Frozen evaluate, predict and retrieve agree with the oracle under ``params``, bit for bit."""
    config = SimilarityConfig(tuple(weights))
    base = CaseBase.from_cases(base_cases)
    stored = [to_feature_vector(c) for c in base_cases]
    report = evaluate(queries, base, config, params)
    for query, result in zip(queries, report.per_case):
        expected = oracle_scores(to_feature_vector(query), stored, weights, params)
        best_id, best_score = oracle_best(expected)
        assert (result.best_case_id, result.best_similarity.hex()) == (best_id, best_score.hex())
        prediction = predict(query, base, config, params)
        assert (prediction.best_case_id, prediction.best_global_similarity.hex()) == (best_id, best_score.hex())
        ranked = sorted(retrieve(query, base, config, params))
        assert [m.score.hex() for m in ranked] == [score.hex() for score in expected]


def test_in_range_frozen_blocks_skip_the_clamp(clamp_calls):
    # Queries inside the training extrema scale into [0, 1], as every stored
    # row does, so no local similarity can fall below 0 and no block clamps.
    cases = [validate_case(raw)[0] for raw in generate_rows(300, seed=11)]
    base_cases, queries = cases[:200], cases[200:]
    params = fit_from_vectors(map(to_feature_vector, base_cases))
    in_range = [
        q for q in queries
        if all(lo <= x <= hi for x, lo, hi in zip(to_feature_vector(q), params.mins, params.maxs))
    ]
    assert len(in_range) > 50
    # Blocks of 8 queries, and single queries, split into groups of attributes.
    with mock.patch.object(engine, "BLOCK_PAIRS", 8 * len(base_cases)):
        assert_scores_match_oracle(in_range, base_cases, params)
    assert clamp_calls == []
    # One query scored in one group of all 13 attributes clamps unchecked.
    predict(in_range[0], CaseBase.from_cases(base_cases), SimilarityConfig(), params)
    assert len(clamp_calls) == 1
    # global_similarity and rank_scaled clamp whatever their inputs.
    global_similarity([0.5] * 13, [0.5] * 13, SimilarityConfig(), params)
    engine.rank_scaled([0.5] * 13, [[0.5] * 13], [0], [1], [1.0] * 13)
    assert len(clamp_calls) == 3


@mock.patch.object(engine, "BLOCK_PAIRS", 1)  # one attribute per group: every block is checked
def test_blocks_that_can_score_below_zero_clamp(clamp_calls):
    # Each input below puts a value outside [0, 1] into the block or the base
    # and so must clamp. The base varies in every attribute, so that value is
    # the only reason to. Each agrees with the oracle bit for bit, which the
    # first three could not without the clamp: a local similarity falls below 0.
    base = [validate_case(raw)[0] for raw in generate_rows(30, seed=17, duplicate_fraction=0.0)]
    fitted = fit_minmax(CaseBase.from_cases(base))
    assert not any(fitted.degenerate)
    ages = [c.age for c in base]
    far = 2 * max(ages) - min(ages) + 1  # past the max by range + 1: scales above 2

    # A query outside the training extrema.
    assert_scores_match_oracle([dataclasses.replace(base[0], age=far)], base, fitted)
    assert clamp_calls
    clamp_calls.clear()

    # Params fitted on a narrower base than the one scored: the query scales
    # into [0, 1], but the added stored row does not.
    wider = base + [dataclasses.replace(base[1], age=far)]
    assert_scores_match_oracle([base[2]], wider, fitted)
    assert clamp_calls
    clamp_calls.clear()

    # A subnormal range: oldpeak 6.2 scales to inf.
    tiny = [dataclasses.replace(c, oldpeak=5e-324 * (i % 2)) for i, c in enumerate(base)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        query = dataclasses.replace(base[3], oldpeak=6.2)
        assert_scores_match_oracle([query], tiny, fit_minmax(CaseBase.from_cases(tiny)))
    assert clamp_calls
    clamp_calls.clear()

    # A degenerate attribute keeps its raw value, age 40 here, which is
    # outside [0, 1]: the clamp stays, though it cannot change that plane.
    constant_age = [dataclasses.replace(c, age=40) for c in base]
    assert_scores_match_oracle([base[4]], constant_age, fit_minmax(CaseBase.from_cases(constant_age)))
    assert clamp_calls


AMBIENT_BUFSIZES = (64, 8192, 1 << 16)


@contextlib.contextmanager
def numpy_bufsize(size):
    previous = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(previous)


def test_kernel_scores_do_not_depend_on_numpy_bufsize():
    # Case counts below KERNEL_BUFSIZE, between it and numpy's default of
    # 8192 and above that, for one query and for several, with attribute 5
    # degenerate: it matches on equal values alone.
    rng = random.Random(29)
    weights = tuple(rng.choice(UNEVEN_WEIGHTS) for _ in range(13))
    degenerate = tuple(j == 5 for j in range(13))
    weight_sum = oracle_sum(weights)

    def row():
        return [float(rng.choice((0, 1, 2))) if deg else rng.uniform(-0.5, 1.5) for deg in degenerate]

    queries = [row() for _ in range(5)]
    for n_cases in (100, 1000, 9000):
        stored = [row() for _ in range(n_cases)]
        expected = np.array(
            [[oracle_score(q, c, weights, degenerate, weight_sum) for c in stored] for q in queries]
        )
        cases = np.array(stored).T.copy()
        for n_queries in (1, len(queries)):
            for ambient in AMBIENT_BUFSIZES:
                with numpy_bufsize(ambient):
                    scores = engine._score_block(
                        np.array(queries[:n_queries]), cases, weights, degenerate, weight_sum
                    )
                    assert np.getbufsize() == ambient
                bits = expected[:n_queries].view(np.int64)
                assert np.array_equal(scores.view(np.int64), bits), (n_cases, n_queries, ambient)

    # A case matrix with 12 attributes against 13 weights raises inside the
    # kernel, which still puts the caller's buffer size back.
    for ambient in AMBIENT_BUFSIZES:
        with numpy_bufsize(ambient):
            with pytest.raises(ValueError):
                engine._score_block(np.array(queries), cases[:12], weights, degenerate, weight_sum)
            assert np.getbufsize() == ambient


def test_kernel_leaves_other_threads_bufsize_alone():
    cases = [validate_case(raw)[0] for raw in generate_rows(200, seed=5)]
    base = CaseBase.from_cases(cases[:150])
    params = fit_minmax(base)
    ready, done = threading.Event(), threading.Event()
    seen = []

    def other():
        np.setbufsize(64)
        ready.set()
        done.wait(timeout=30)
        seen.append(np.getbufsize())

    thread = threading.Thread(target=other)
    thread.start()
    try:
        assert ready.wait(timeout=30)
        ambient = np.getbufsize()
        for query in cases[150:]:
            predict(query, base, SimilarityConfig(), params)
        assert np.getbufsize() == ambient
    finally:
        done.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen == [64]
