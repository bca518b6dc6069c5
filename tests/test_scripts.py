import hashlib
import importlib.util
import json
import subprocess
import sys

import pytest

from heartcbr.cli import main
from heartcbr.synthetic import write_synthetic_dataset

from conftest import REPO_ROOT, subprocess_env


@pytest.mark.parametrize("flags", [[], ["--incremental-retain"]], ids=["frozen", "incremental"])
def test_run_full_pipeline_prints_comparison_and_writes_reports(tmp_path, synthetic_csv, flags):
    out = tmp_path / "out"
    command = [
        sys.executable, str(REPO_ROOT / "scripts" / "run_full_pipeline.py"),
        "--input", str(synthetic_csv), "--out-dir", str(out), "--epochs", "2", *flags,
    ]
    result = subprocess.run(command, env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr

    evaluation = json.loads((out / "evaluation_report.json").read_text(encoding="utf-8"))
    nn = json.loads((out / "mlp_report.json").read_text(encoding="utf-8"))
    assert evaluation["config"]["incremental_retain"] is bool(flags)
    rows = {line[:28].strip(): line[28:].split() for line in result.stdout.splitlines()}
    assert rows["method"] == ["test", "accuracy", "merged", "accuracy"]
    assert rows["case-based reasoning"] == [
        f"{evaluation['test_accuracy']:.4f}", f"{evaluation['merged_accuracy']:.4f}"
    ]
    assert rows["backpropagation 13-3-2"] == [f"{nn['test_accuracy']:.4f}", "-"]
    for name in ("split_manifest.json", "per_case.csv", "correlation.csv", "predicted_chest_pain.csv", "mlp_model.json"):
        assert (out / name).exists(), name


def test_bench_scale_records_stages_and_the_run_all_digests(tmp_path):
    out = tmp_path / "bench.json"
    script = str(REPO_ROOT / "scripts" / "bench_scale.py")
    for label, sizes in (("first", ["120"]), ("second", [])):
        command = [
            sys.executable, script, "--label", label, "--out", str(out), "--repeats", "2",
            "--sizes", *sizes, "--incremental-sizes", "120", "--predict-sizes",
        ]
        result = subprocess.run(command, env=subprocess_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    bench = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(bench) == ["first", "second"]  # a second label keeps the first
    runs = bench["first"]["runs"]
    assert [(run["rows"], run["mode"]) for run in runs] == [(120, "frozen"), (120, "incremental")]
    assert bench["second"]["runs"][0]["digests"] == runs[1]["digests"]
    for run in runs:
        stages = run["stages_s"]
        assert sorted(stages) == ["correlate", "evaluate", "fit", "parse", "split", "stats", "write"]
        assert 0 < sum(stages.values()) <= run["run_all_s"]
        assert 0 < run["distinct_ratio"] <= 1

    # The digests are those of run-all itself on the same seeded data.
    data = write_synthetic_dataset(tmp_path / "synthetic_120.csv", 120, seed=7)
    assert main(["run-all", "--input", str(data), "--out-dir", str(tmp_path / "direct")]) == 0
    for name, digest in runs[0]["digests"].items():
        assert hashlib.sha256((tmp_path / "direct" / name).read_bytes()).hexdigest() == digest


def test_bench_scale_times_predict_and_retain_on_the_persisted_base(tmp_path):
    out = tmp_path / "bench.json"
    command = [
        sys.executable, str(REPO_ROOT / "scripts" / "bench_scale.py"), "--out", str(out), "--repeats", "2",
        "--sizes", "--incremental-sizes", "--predict-sizes", "120",
    ]
    result = subprocess.run(command, env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["current"]["runs"]
    modes = [(run["rows"], run["mode"], run["base_rows"]) for run in runs]
    assert modes == [(120, "predict", 72), (120, "predict-retain", 72)]
    for run in runs:
        stages = run["stages_s"]
        assert sorted(stages) == ["fit", "load", "parse", "predict", "retain", "write"]
        assert 0 < sum(stages.values()) <= run["wall_s"]
        # Stage times are rounded to 0.1 ms, so a retain into 72 rows may read 0.
        assert (stages["write"] > 0) == (run["mode"] == "predict-retain")
        assert stages["retain"] == 0 or run["mode"] == "predict-retain"

    # The digests are those of the CLI itself: the base as split, then as one retain leaves it.
    data = write_synthetic_dataset(tmp_path / "synthetic_120.csv", 120, seed=7)
    split = tmp_path / "split"
    assert main(["split", "--input", str(data), "--out-dir", str(split)]) == 0
    query = tmp_path / "query.csv"
    query.write_text("".join((split / "test.csv").read_text(encoding="utf-8").splitlines(True)[:2]))
    for run, retain in zip(runs, ([], ["--retain"])):
        assert main(["predict", "--case-base", str(split / "case_base.csv"), "--query", str(query), *retain]) == 0
        digest = hashlib.sha256((split / "case_base.csv").read_bytes()).hexdigest()
        assert run["digests"]["case_base.csv"] == digest


def test_bench_scale_keeps_the_fastest_run_of_every_call_under_one_label(tmp_path):
    # Two checkouts are compared in interleaved rounds of one call each, so a
    # label gathers its runs over calls: one run per size and mode, the fastest.
    out = tmp_path / "bench.json"
    script = str(REPO_ROOT / "scripts" / "bench_scale.py")
    first = None
    for sizes in (["120"], ["120", "60"]):
        command = [
            sys.executable, script, "--label", "round", "--out", str(out), "--repeats", "1",
            "--sizes", *sizes, "--incremental-sizes", "--predict-sizes",
        ]
        result = subprocess.run(command, env=subprocess_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        runs = json.loads(out.read_text(encoding="utf-8"))["round"]["runs"]
        first = first or runs[0]
    assert [(run["rows"], run["repeats"]) for run in runs] == [(120, 2), (60, 1)]
    assert runs[0]["run_all_s"] <= first["run_all_s"]
    assert runs[0]["digests"] == first["digests"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_scale_keeps_the_fastest_time_of_each_stage(tmp_path, monkeypatch):
    # The faster run-all has the slower parse: a stage keeps its own minimum.
    bench_scale = load_script("bench_scale")
    stages = dict.fromkeys(bench_scale.STAGES["run-all"], 0.01)
    slow = {"run_all_s": 2.0, "stages_s": {**stages, "parse": 0.1, "evaluate": 1.5}, "digests": {"f": "x"}}
    fast = {"run_all_s": 1.5, "stages_s": {**stages, "parse": 0.3, "evaluate": 0.9}, "digests": {"f": "x"}}
    fastest = {"run_all_s": 1.5, "stages_s": {**stages, "parse": 0.1, "evaluate": 0.9}, "digests": {"f": "x"}}

    runs = iter([slow, fast])
    monkeypatch.setattr(bench_scale, "timed_run_all", lambda *args: next(runs))
    run = bench_scale.measure(20, "frozen", 2, tmp_path)
    assert {key: run[key] for key in fastest} == fastest
    assert run["repeats"] == 2

    # Two calls under one label merge the same way.
    out = tmp_path / "bench.json"
    runs = iter([slow, fast])
    argv = ["bench_scale.py", "--out", str(out), "--sizes", "20", "--incremental-sizes", "--predict-sizes"]
    argv += ["--repeats", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_scale.main() == 0
    assert bench_scale.main() == 0
    [run] = json.loads(out.read_text(encoding="utf-8"))["current"]["runs"]
    assert {key: run[key] for key in fastest} == fastest
    assert run["repeats"] == 2
