import json
import subprocess
import sys

import pytest

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
