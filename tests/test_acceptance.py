"""Acceptance suite: one test per release criterion, a pass line printed each.

Criteria 1-3 measure fidelity against the public 1025-row dataset and are
skipped with an explicit reason when that file is not on disk (see README
for how to provide it); every other criterion is self-contained. Run with
``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from heartcbr.analytics import dataset_stats, pearson_correlation
from heartcbr.baselines import (
    TrapezoidalParams,
    TriangularParams,
    backprop_deltas,
    forward,
    init_mlp,
    trapezoidal_membership,
    triangular_membership,
)
from heartcbr.cases import to_feature_vector
from heartcbr.cli import main
from heartcbr.dataset import CaseBase, parse_csv, split_sequential
from heartcbr.engine import (
    SimilarityConfig,
    evaluate,
    global_similarity,
    predict,
    rank_scaled,
    retain,
)
from heartcbr.scaling import NormalizationParams, fit_minmax, normalize
from heartcbr.synthetic import write_synthetic_dataset

from conftest import REAL_DATASET, make_case, requires_real_dataset

UNIT_PARAMS = NormalizationParams(mins=(0.0,) * 13, maxs=(1.0,) * 13)


def announce(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


# --- 1. dataset fidelity ---------------------------------------------------------


@requires_real_dataset
def test_criterion_1_dataset_fidelity():
    started = time.perf_counter()
    cases = parse_csv(REAL_DATASET)
    split = split_sequential(cases, 0.6)
    male = sum(1 for case in cases if case.sex == 1)
    elapsed = time.perf_counter() - started

    assert len(cases) == 1025
    assert len(split.train) == 615
    assert len(split.test) == 410
    assert male == 713
    assert len(cases) - male == 312
    assert elapsed < 1.0
    announce(1, "dataset fidelity")


# --- 2. prediction-derived statistics ----------------------------------------------


@requires_real_dataset
def test_criterion_2_prediction_statistics():
    cases = parse_csv(REAL_DATASET)
    split = split_sequential(cases, 0.6)
    params = fit_minmax(split.train)
    report = evaluate(split.test, split.train, SimilarityConfig(), params)

    merged_labels = [case.target for case in split.train.cases()]
    merged_labels.extend(r.predicted_target for r in report.per_case)
    stats = dataset_stats(cases, merged_labels)

    positives = stats.disease_counts["positive"]
    assert abs(positives - 535) <= 10

    assert abs(stats.positives_by_gender["male"]["percent"] - 57.76) <= 2.0
    assert abs(stats.positives_by_gender["female"]["percent"] - 42.24) <= 2.0

    expected_chest_pain = {0: 120, 1: 134, 2: 223, 3: 58}
    total_deviation = sum(
        abs(stats.chest_pain_table[code]["positives"] - expected)
        for code, expected in expected_chest_pain.items()
    )
    assert total_deviation <= 10
    announce(2, "prediction-derived statistics")


# --- 3. accuracy reproduction -------------------------------------------------------


@requires_real_dataset
def test_criterion_3_accuracy_reproduction():
    cases = parse_csv(REAL_DATASET)
    split = split_sequential(cases, 0.6)
    params = fit_minmax(split.train)

    started = time.perf_counter()
    report = evaluate(split.test, split.train, SimilarityConfig(), params)
    elapsed = time.perf_counter() - started

    print(
        f"[acceptance] merged_accuracy={report.merged_accuracy:.6f} "
        f"test_accuracy={report.test_accuracy:.6f} elapsed={elapsed:.2f}s"
    )
    assert abs(100.0 * report.merged_accuracy - 97.95) <= 1.5
    assert 0.0 <= report.test_accuracy <= 1.0  # reported alongside, no target value
    assert elapsed < 10.0
    announce(3, "accuracy reproduction")


# --- 4. similarity axioms -----------------------------------------------------------


def test_criterion_4_similarity_axioms():
    rng = random.Random(20240809)
    config = SimilarityConfig()

    # Bounds, self-similarity and symmetry: exact, including values whose
    # local similarity clamps at zero.
    for _ in range(1000):
        x = tuple(rng.uniform(-0.25, 1.25) for _ in range(13))
        y = tuple(rng.uniform(-0.25, 1.25) for _ in range(13))
        score = global_similarity(x, y, config, UNIT_PARAMS)
        assert 0.0 <= score <= 1.0
        assert global_similarity(x, x, config, UNIT_PARAMS) == 1.0
        assert score == global_similarity(y, x, config, UNIT_PARAMS)

    # Weight-scale invariance of values: dyadic grids and scale factors keep
    # every product exact, so equality is bitwise.
    grid = 1 << 20
    scales = (0.125, 0.25, 0.5, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0, 16.0)
    for _ in range(1000):
        x = tuple(rng.randrange(grid + 1) / grid for _ in range(13))
        y = tuple(rng.randrange(grid + 1) / grid for _ in range(13))
        weights = tuple(rng.randrange(0, 41) / 8 for _ in range(13))
        if sum(weights) == 0:
            weights = weights[:-1] + (1.0,)
        factor = rng.choice(scales)
        scaled = tuple(factor * w for w in weights)
        assert global_similarity(
            x, y, SimilarityConfig(weights=weights), UNIT_PARAMS
        ) == global_similarity(x, y, SimilarityConfig(weights=scaled), UNIT_PARAMS)

    # Weight-scale invariance of rankings.
    for _ in range(1000):
        n = rng.randint(2, 8)
        rows = [tuple(rng.randrange(grid + 1) / grid for _ in range(13)) for _ in range(n)]
        query = tuple(rng.randrange(grid + 1) / grid for _ in range(13))
        weights = tuple(rng.randrange(1, 41) / 8 for _ in range(13))
        factor = rng.choice(scales)
        scaled = tuple(factor * w for w in weights)
        ids = list(range(n))
        targets = [0] * n
        first = rank_scaled(query, rows, ids, targets, weights)
        second = rank_scaled(query, rows, ids, targets, scaled)
        assert [m.case_id for m in first] == [m.case_id for m in second]
        assert [m.score for m in first] == [m.score for m in second]

    # Monotonicity: moving one attribute further away never raises the score.
    for _ in range(1000):
        x = tuple(rng.random() for _ in range(13))
        y = tuple(rng.random() for _ in range(13))
        index = rng.randrange(13)
        delta = rng.uniform(0.001, 0.5)
        direction = 1.0 if y[index] >= x[index] else -1.0
        further = y[:index] + (y[index] + direction * delta,) + y[index + 1 :]
        assert global_similarity(x, further, config, UNIT_PARAMS) <= global_similarity(
            x, y, config, UNIT_PARAMS
        )

    announce(4, "similarity axioms")


# --- 5. oracle equivalence -----------------------------------------------------------


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


def test_criterion_5_oracle_equivalence():
    rng = random.Random(555)
    checked = 0

    # Scaled toy instances, 1..13 attributes: half continuous, half on coarse
    # dyadic grids where exact score ties are decidable in both routes.
    for trial in range(400):
        p = rng.randint(1, 13)
        n = rng.randint(1, 20)
        if trial % 2 == 0:
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
        checked += 1

    # Full 13-attribute instances through the Case-level predict path, with
    # queries drawn inside the training extrema so nothing clamps.
    for trial in range(150):
        n = rng.randint(3, 20)
        cases = [
            make_case(
                age=rng.randint(30, 75),
                trestbps=rng.randint(95, 195),
                chol=rng.randint(130, 550),
                thalach=rng.randint(75, 200),
                oldpeak=round(rng.uniform(0.0, 5.0), 1),
                cp=rng.randint(0, 3),
                slope=rng.randint(0, 2),
                target=rng.randint(0, 1),
            )
            for _ in range(n)
        ]
        base = CaseBase.from_cases(cases)
        params = fit_minmax(base)
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
            slope=rng.randint(min(c.slope for c in cases), max(c.slope for c in cases)),
        )
        config = SimilarityConfig()
        prediction = predict(query, base, config, params)

        scaled_query = normalize(to_feature_vector(query), params)
        rows = [normalize(to_feature_vector(c), params) for c in base.cases()]
        oracle_id = weighted_l1_argmin(scaled_query, rows, base.ids(), config.weights)
        assert prediction.best_case_id == oracle_id
        stored = dict(zip(base.ids(), base.cases()))
        assert prediction.predicted_target == stored[oracle_id].target
        checked += 1

    assert checked >= 500
    announce(5, "oracle equivalence")


# --- 6. retain semantics --------------------------------------------------------------


def test_criterion_6_retain_semantics():
    base = CaseBase.from_cases(
        [
            make_case(age=40, chol=100, thalach=100, target=0),
            make_case(age=48, chol=120, thalach=116, target=1),
            make_case(age=56, chol=140, thalach=140, target=0),
            make_case(age=72, chol=164, thalach=164, target=1),
        ]
    )
    params = fit_minmax(base)
    size_before = len(base)
    chol_index = 4
    assert params.maxs[chol_index] == 164.0

    query = make_case(age=66, chol=300, thalach=125)
    base, params = retain(query, 1, base)

    assert len(base) == size_before + 1
    assert params.maxs[chol_index] == 300.0  # widened extrema refitted

    prediction = predict(query, base, SimilarityConfig(), params)
    assert prediction.predicted_target == 1
    assert prediction.best_global_similarity == 1.0
    assert prediction.best_case_id == base.ids()[-1]
    announce(6, "retain semantics")


# --- 7. baseline math ------------------------------------------------------------------


def test_criterion_7_baseline_math():
    rng = random.Random(777)

    # Membership breakpoints, random parameter sets.
    for _ in range(100):
        a = rng.uniform(-5, 5)
        m = a + rng.uniform(0.1, 4)
        b = m + rng.uniform(0.1, 4)
        tri = TriangularParams(a, m, b)
        assert triangular_membership(a, tri) == 0.0
        assert triangular_membership(m, tri) == 1.0
        assert triangular_membership(b, tri) == 0.0
        mid_rise = (a + m) / 2
        assert triangular_membership(mid_rise, tri) == pytest.approx(
            (mid_rise - a) / (m - a), abs=1e-12
        )
        mid_fall = (m + b) / 2
        assert triangular_membership(mid_fall, tri) == pytest.approx(
            (b - mid_fall) / (b - m), abs=1e-12
        )

    for _ in range(100):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(0, 3)
        c = b + rng.uniform(0, 3)
        d = c + rng.uniform(0.1, 3)
        trap = TrapezoidalParams(a, b, c, d)
        assert trapezoidal_membership(b, trap) == 1.0
        assert trapezoidal_membership(c, trap) == 1.0
        assert trapezoidal_membership(a, trap) == (1.0 if b == a else 0.0)
        assert trapezoidal_membership(d, trap) == (1.0 if d == c else 0.0)
        if b > a:
            mid = (a + b) / 2
            assert trapezoidal_membership(mid, trap) == pytest.approx(
                (mid - a) / (b - a), abs=1e-12
            )
        if d > c:
            mid = (c + d) / 2
            assert trapezoidal_membership(mid, trap) == pytest.approx(
                (d - mid) / (d - c), abs=1e-12
            )

    # Delta rules versus central finite differences of 0.5 * sum((t - o)^2)
    # on 100 random small networks.
    np_rng = np.random.default_rng(778)
    step = 1e-6
    for trial in range(100):
        sizes = (
            int(np_rng.integers(1, 5)),
            int(np_rng.integers(1, 5)),
            int(np_rng.integers(1, 4)),
        )
        model = init_mlp(sizes=sizes, seed=1000 + trial)
        x = tuple(np_rng.uniform(-1, 1, sizes[0]))
        t = tuple(np_rng.uniform(0, 1, sizes[2]))

        hidden, outputs = forward(model, x)
        out_deltas, hidden_deltas = backprop_deltas(model, hidden, outputs, t)
        analytic_out = -np.outer(out_deltas, np.append(hidden, 1.0))
        analytic_hidden = -np.outer(hidden_deltas, np.append(np.asarray(x), 1.0))

        def loss():
            _, o = forward(model, x)
            diff = np.asarray(t) - o
            return 0.5 * float(np.dot(diff, diff))

        for analytic, weights in (
            (analytic_hidden, model.w_hidden),
            (analytic_out, model.w_out),
        ):
            for idx in np.ndindex(weights.shape):
                original = weights[idx]
                weights[idx] = original + step
                up = loss()
                weights[idx] = original - step
                down = loss()
                weights[idx] = original
                numeric = (up - down) / (2 * step)
                scale = max(1.0, abs(numeric), abs(analytic[idx]))
                assert abs(numeric - analytic[idx]) <= 1e-5 * scale

    announce(7, "baseline math")


# --- 8. correlation -----------------------------------------------------------------


def oracle_pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.fsum((a - mx) ** 2 for a in x)
    sy = math.fsum((b - my) ** 2 for b in y)
    if sx == 0.0 or sy == 0.0:
        return None
    return num / math.sqrt(sx * sy)


def test_criterion_8_correlation():
    rng = random.Random(888)
    for _ in range(20):
        cases = [
            make_case(
                age=rng.randint(30, 80),
                sex=rng.randint(0, 1),
                cp=rng.randint(0, 3),
                trestbps=rng.randint(90, 200),
                chol=rng.randint(120, 560),
                fbs=rng.randint(0, 1),
                restecg=rng.randint(0, 2),
                thalach=rng.randint(70, 200),
                exang=rng.randint(0, 1),
                oldpeak=round(rng.uniform(0, 6), 1),
                slope=rng.randint(0, 2),
                ca=rng.randint(0, 3),
                thal=rng.randint(1, 3),
                target=rng.randint(0, 1),
            )
            for _ in range(10)
        ]
        matrix = pearson_correlation(cases)
        columns = list(zip(*(to_feature_vector(c) + (float(c.target),) for c in cases)))

        assert len(matrix) == 14
        for i in range(14):
            for j in range(14):
                assert matrix[i][j] == matrix[j][i]
                expected = oracle_pearson(columns[i], columns[j])
                if expected is None:
                    assert matrix[i][j] is None
                    continue
                assert matrix[i][j] is not None
                assert -1.0 <= matrix[i][j] <= 1.0
                if i == j:
                    assert matrix[i][j] == 1.0
                else:
                    assert abs(matrix[i][j] - expected) <= 1e-12
    announce(8, "correlation")


# --- 9. determinism ------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "records.csv"
    write_synthetic_dataset(data, 240, seed=99, out_of_domain=3)
    for name in ("first", "second"):
        rc = main(["evaluate", "--input", str(data), "--out-dir", str(tmp_path / name)])
        assert rc == 0
    for artifact in ("evaluation_report.json", "per_case.csv"):
        first = (tmp_path / "first" / artifact).read_bytes()
        second = (tmp_path / "second" / artifact).read_bytes()
        assert first == second
    report = json.loads((tmp_path / "first" / "evaluation_report.json").read_text())
    assert {"test_accuracy", "merged_accuracy", "confusion", "per_case"} <= report.keys()
    announce(9, "determinism")
