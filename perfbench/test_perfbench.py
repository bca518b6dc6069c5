"""Tests of the benchmark itself: smoke runs of every workload and its gates.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import math
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import reference
import run
import speed
import workloads
from heartcbr import engine, scaling

SEED = 5


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name, trace):
    result = run.run_workload(name, SEED, 0.5, trace, size="smoke")["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == (run.PER_LAYER if trace else run.END_TO_END)
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
        assert entry["value"] > 0 or trace


def _corrupt(expected: dict, name: str) -> dict:
    bad = copy.deepcopy(expected)
    entries = bad["smoke"][name]
    index = SEED % workloads.INPUT_SETS
    if name == "eval-frozen":
        entries[index]["per_case.csv"] = "0" * 64
    elif name == "eval-retain":
        entries[index] = "0" * 64
    else:
        entries[index]["w_out"][0][0] += 1e-9
    return bad


@pytest.mark.parametrize("name", ["eval-frozen", "eval-retain", "train-nn"])
def test_gate_fails_every_operation_on_a_wrong_expectation(name):
    bad = _corrupt(workloads.load_expected(), name)
    result = run.run_workload(name, SEED, 0.2, False, size="smoke", expected=bad)["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_a_failing_cli_process_fails_every_operation(monkeypatch):
    # Children that cannot import heartcbr exit nonzero.
    monkeypatch.setattr(workloads, "_child_env", lambda: {"PATH": "/nonexistent", "PYTHONPATH": ""})
    result = run.run_workload("eval-retain", SEED, 0.2, False, size="smoke")["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_chunk_results_must_equal_the_whole_run_bit_for_bit():
    def result(index, score, best=3):
        return SimpleNamespace(index=index, true_target=1, predicted_target=0, best_similarity=score, best_case_id=best)

    whole = [result(i, 0.5 + i / 10) for i in range(4)]
    chunk = [result(0, 0.7), result(1, 0.8)]  # indices count from the chunk's start
    assert workloads.same_results(chunk, whole, 2)
    assert not workloads.same_results(chunk, whole, 1)
    assert not workloads.same_results(chunk, whole, 3)  # runs past the end
    assert not workloads.same_results([result(0, 0.7), result(1, 0.8, best=4)], whole, 2)
    assert not workloads.same_results([result(0, 0.7), result(1, 0.8000000000000002)], whole, 2)


def test_drop_last_keeps_operations_attempted():
    m = workloads.Measurement(unit="op", op="query")
    for _ in range(5):
        m.attempted += 1
        m.time_unit(lambda: None)
        m.ops += 1
    m.finish()
    m.drop_last(2)
    assert (len(m.unit_s), len(m.unit_cal), len(m.unit_traced), m.ops, m.attempted) == (3, 3, 3, 3, 5)
    assert len(m.unit_nominal_s()) == 3


def test_reference_matches_engine_bit_for_bit():
    rng = random.Random(11)
    base = [[rng.randint(0, 9) + rng.choice((0.0, 0.5)) for _ in range(13)] for _ in range(40)]
    params = scaling.fit_from_vectors(base)
    config = engine.SimilarityConfig(weights=tuple(rng.uniform(0.1, 3.0) for _ in range(13)))
    scorer = reference.ReferenceScorer(base, config.weights)
    for _ in range(10):
        query = [rng.randint(-2, 11) + 0.5 for _ in range(13)]  # some fall outside the extrema
        want = [
            engine.global_similarity(scaling.normalize(query, params), scaling.normalize(row, params), config, params)
            for row in base
        ]
        assert [repr(s) for s in scorer.scores(query)] == [repr(s) for s in want]


def test_reference_flags_wrong_answers():
    scores, ids = [0.5, 0.9, 0.9, 0.1], [0, 1, 2, 3]
    assert reference.best_match(scores, ids) == (1, 0.9, 2)
    assert reference.disagreement(scores, ids, 1, 0.9) is None
    assert "reference says 1" in reference.disagreement(scores, ids, 2, 0.9)
    assert "best score" in reference.disagreement(scores, ids, 1, 0.9000000000000001)
    assert "outside [0, 1]" in reference.disagreement([1.5, 0.2], [0, 1], 0, 1.5)
    assert "outside [0, 1]" in reference.disagreement([float("nan"), 0.2], [0, 1], 1, 0.2)


def test_rescale_divides_by_the_bracketing_calibrations():
    samples = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert speed.rescale([3.0, 4.0], [0, 1], samples) == [3.0 / 1.5, 4.0 / 2.0]


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "train-nn", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--size", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["setup_s"] == {"value": result["metrics"]["setup_s"]["value"], "unit": "s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-nn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
