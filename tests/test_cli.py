import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from heartcbr import dataset
from heartcbr.baselines import evaluate_mlp, init_mlp
from heartcbr.cases import FEATURE_NAMES, to_feature_vector
from heartcbr.cli import main
from heartcbr.dataset import CaseBase, parse_csv, read_case_base, split_sequential, write_case_base, write_cases
from heartcbr.engine import SimilarityConfig, evaluate, predict
from heartcbr.reports import prediction_to_dict
from heartcbr.scaling import fit_minmax, normalize, read_params, write_params
from heartcbr.synthetic import write_synthetic_dataset

from conftest import make_case, subprocess_env


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- split -------------------------------------------------------------------


def test_split_writes_counts_manifest_and_artifacts(tmp_path, synthetic_csv):
    rc = main(["split", "--input", str(synthetic_csv), "--out-dir", str(tmp_path)])
    assert rc == 0
    train = parse_csv(tmp_path / "train.csv")
    test = parse_csv(tmp_path / "test.csv")
    assert len(train) == 72
    assert len(test) == 48
    manifest = read_json(tmp_path / "split_manifest.json")
    assert manifest == {"total": 120, "train": 72, "test": 48, "train_fraction": 0.6}
    assert len(read_case_base(tmp_path / "case_base.csv")) == 72
    assert (tmp_path / "normalization.json").exists()


def test_split_fraction_half_on_ten_rows(tmp_path):
    data = tmp_path / "ten.csv"
    write_synthetic_dataset(data, 10, seed=1)
    out = tmp_path / "out"
    rc = main(["split", "--input", str(data), "--train-fraction", "0.5", "--out-dir", str(out)])
    assert rc == 0
    assert len(parse_csv(out / "train.csv")) == 5
    assert len(parse_csv(out / "test.csv")) == 5


def test_split_missing_input_flag_is_usage_error():
    assert main(["split"]) == 2


def test_split_nonexistent_input_reports_stage(tmp_path, capsys):
    rc = main(["split", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "parse" in capsys.readouterr().err


def test_bad_fraction_is_usage_error(tmp_path, synthetic_csv):
    rc = main(["split", "--input", str(synthetic_csv), "--train-fraction", "1.5"])
    assert rc == 2


def test_strict_mode_rejects_out_of_domain_file(tmp_path, synthetic_csv, capsys):
    rc = main(["split", "--input", str(synthetic_csv), "--strict", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "parse" in capsys.readouterr().err


# --- evaluate ----------------------------------------------------------------


def test_evaluate_writes_report_and_per_case(tmp_path, synthetic_csv):
    rc = main(["evaluate", "--input", str(synthetic_csv), "--out-dir", str(tmp_path)])
    assert rc == 0
    report = read_json(tmp_path / "evaluation_report.json")
    assert report["n_train"] == 72
    assert report["n_test"] == 48
    assert 0.0 <= report["test_accuracy"] <= 1.0
    assert 0.0 <= report["merged_accuracy"] <= 1.0
    confusion = report["confusion"]
    assert confusion["tp"] + confusion["tn"] + confusion["fp"] + confusion["fn"] == 48
    assert len(report["per_case"]) == 48
    assert report["config"]["incremental_retain"] is False
    lines = (tmp_path / "per_case.csv").read_text().splitlines()
    assert lines[0] == "index,true_target,predicted_target,best_similarity,best_case_id"
    assert len(lines) == 49


def test_evaluate_is_byte_deterministic(tmp_path, synthetic_csv):
    for name in ("a", "b"):
        rc = main(["evaluate", "--input", str(synthetic_csv), "--out-dir", str(tmp_path / name)])
        assert rc == 0
    for artifact in ("evaluation_report.json", "per_case.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_evaluate_incremental_retain_flag(tmp_path, synthetic_csv):
    rc = main(
        ["evaluate", "--input", str(synthetic_csv), "--incremental-retain", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    report = read_json(tmp_path / "evaluation_report.json")
    assert report["config"]["incremental_retain"] is True


def test_evaluate_malformed_weights_is_usage_error(tmp_path, synthetic_csv):
    rc = main(["evaluate", "--input", str(synthetic_csv), "--weights", "1,2,3"])
    assert rc == 2
    rc = main(["evaluate", "--input", str(synthetic_csv), "--weights", ",".join(["x"] * 13)])
    assert rc == 2


@pytest.mark.parametrize("bad", ["inf", "nan", "-1"])
def test_evaluate_invalid_weight_value_is_an_error(tmp_path, synthetic_csv, capsys, bad):
    weights = ",".join([bad] + ["1"] * 12)
    args = ["--input", str(synthetic_csv), f"--weights={weights}", "--out-dir", str(tmp_path)]
    rc = main(["evaluate", *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weights:")
    assert "finite and non-negative" in err
    assert not (tmp_path / "evaluation_report.json").exists()


def test_evaluate_custom_weights_recorded(tmp_path, synthetic_csv):
    weights = ",".join(["2"] * 13)
    rc = main(
        ["evaluate", "--input", str(synthetic_csv), "--weights", weights, "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    report = read_json(tmp_path / "evaluation_report.json")
    assert report["config"]["weights"] == [2.0] * 13


# --- predict -----------------------------------------------------------------


@pytest.fixture
def split_dir(tmp_path, synthetic_csv):
    out = tmp_path / "split"
    assert main(["split", "--input", str(synthetic_csv), "--out-dir", str(out)]) == 0
    return out


def query_flags(case):
    flags = []
    for name in FEATURE_NAMES:
        value = getattr(case, name)
        flags.extend([f"--{name}", repr(float(value)) if name == "oldpeak" else str(value)])
    return flags


def test_predict_stored_case_returns_its_target(split_dir, capsys):
    stored = parse_csv(split_dir / "train.csv")[0]
    rc = main(["predict", "--case-base", str(split_dir / "case_base.csv"), *query_flags(stored)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted_target"] == stored.target
    assert payload["best_global_similarity"] == 1.0
    assert payload["retained"] is False


def test_predict_retain_twice_grows_base_by_two(split_dir, capsys):
    stored = parse_csv(split_dir / "train.csv")[3]
    base_path = split_dir / "case_base.csv"
    payload = None
    for _ in range(2):
        rc = main(["predict", "--case-base", str(base_path), "--retain", *query_flags(stored)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
    assert len(read_case_base(base_path)) == 74
    assert payload["retained"] is True
    assert payload["case_base_size"] == 74


def test_predict_from_single_row_query_csv(split_dir, tmp_path, capsys):
    stored = parse_csv(split_dir / "train.csv")[1]
    query_path = tmp_path / "query.csv"
    from heartcbr.dataset import write_cases

    write_cases([stored], query_path)
    rc = main(
        ["predict", "--case-base", str(split_dir / "case_base.csv"), "--query", str(query_path)]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_global_similarity"] == 1.0


def test_predict_retain_past_the_largest_id_fails_and_leaves_both_files(tmp_path, capsys):
    cases = [make_case(age=54), make_case(age=61, target=0), make_case(chol=199)]
    base_path, sidecar = tmp_path / "case_base.csv", tmp_path / "normalization.json"
    base = CaseBase([(0, cases[0]), (1, cases[1]), (2**63 - 1, cases[2])])
    write_case_base(base, base_path)
    write_params(fit_minmax(base), sidecar)
    before = base_path.read_bytes(), sidecar.read_bytes()
    query_path = tmp_path / "query.csv"
    write_cases(cases[1:2], query_path)
    rc = main(["predict", "--case-base", str(base_path), "--query", str(query_path), "--retain"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: retain: no case id left: the last id is 9223372036854775807, the largest below 2**63\n"
    assert (base_path.read_bytes(), sidecar.read_bytes()) == before


def test_predict_rejects_multi_row_query(split_dir, tmp_path, capsys):
    cases = parse_csv(split_dir / "train.csv")[:2]
    query_path = tmp_path / "query.csv"
    from heartcbr.dataset import write_cases

    write_cases(cases, query_path)
    rc = main(
        ["predict", "--case-base", str(split_dir / "case_base.csv"), "--query", str(query_path)]
    )
    assert rc == 1
    assert "exactly one row" in capsys.readouterr().err


def test_predict_missing_case_base(tmp_path, capsys):
    rc = main(["predict", "--case-base", str(tmp_path / "missing.csv"), "--age", "50"])
    assert rc == 1
    assert "case base" in capsys.readouterr().err


def test_predict_incomplete_query_flags(split_dir, capsys):
    rc = main(["predict", "--case-base", str(split_dir / "case_base.csv"), "--age", "50"])
    assert rc == 1
    assert "missing query fields" in capsys.readouterr().err


def test_predict_fits_the_scaling_from_the_case_base_not_a_stale_sidecar(tmp_path, capsys):
    # The crash window of a two-file retain: case_base.csv holds a retained
    # chol=900 query, normalization.json is left from before it.
    data = write_synthetic_dataset(tmp_path / "data.csv", 200, seed=3)
    split_dir = tmp_path / "split"
    assert main(["split", "--input", str(data), "--out-dir", str(split_dir)]) == 0
    base_path, sidecar = split_dir / "case_base.csv", split_dir / "normalization.json"
    before_retain = sidecar.read_bytes()
    first, *queries = parse_csv(split_dir / "test.csv")
    widened = query_flags(first)
    widened[widened.index("--chol") + 1] = "900"
    assert main(["predict", "--case-base", str(base_path), "--retain", *widened]) == 0
    sidecar.write_bytes(before_retain)
    capsys.readouterr()

    base = read_case_base(base_path)
    params, stale = fit_minmax(base), read_params(sidecar)
    assert params.maxs[FEATURE_NAMES.index("chol")] == 900 > stale.maxs[FEATURE_NAMES.index("chol")]
    config = SimilarityConfig()
    stale_answers = 0
    for query in queries:
        assert main(["predict", "--case-base", str(base_path), *query_flags(query)]) == 0
        wanted = predict(query, base, config, params)
        assert json.loads(capsys.readouterr().out) == prediction_to_dict(wanted, False, len(base))
        stale_answers += predict(query, base, config, stale) != wanted
    assert stale_answers > 0  # the stale sidecar would have changed some answers
    assert sidecar.read_bytes() == before_retain


def test_chained_predict_retain_equals_the_incremental_evaluate(tmp_path, capsys):
    data = write_synthetic_dataset(tmp_path / "data.csv", 100, seed=3)
    split_dir, eval_dir = tmp_path / "split", tmp_path / "evaluate"
    assert main(["split", "--input", str(data), "--out-dir", str(split_dir)]) == 0
    assert main(["evaluate", "--input", str(data), "--incremental-retain", "--out-dir", str(eval_dir)]) == 0
    per_case = read_json(eval_dir / "evaluation_report.json")["per_case"]
    capsys.readouterr()

    base_path, query_path = split_dir / "case_base.csv", tmp_path / "query.csv"
    queries = parse_csv(split_dir / "test.csv")
    assert len(queries) == len(per_case) == 40
    for query, row in zip(queries, per_case):
        write_cases([query], query_path)
        assert main(["predict", "--case-base", str(base_path), "--query", str(query_path), "--retain"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert (printed["predicted_target"], printed["best_case_id"], printed["best_global_similarity"]) == (
            row["predicted_target"], row["best_case_id"], row["best_similarity"]
        )

    split = split_sequential(parse_csv(data))
    evaluate(split.test, split.train, SimilarityConfig(), fit_minmax(split.train), incremental_retain=True)
    assert len(split.train) == 100
    assert read_case_base(base_path) == split.train


def test_plain_predict_writes_no_file(split_dir, capsys):
    (split_dir / "normalization.json").unlink()
    before = {path.name: path.read_bytes() for path in split_dir.iterdir()}
    stored = parse_csv(split_dir / "train.csv")[0]
    assert main(["predict", "--case-base", str(split_dir / "case_base.csv"), *query_flags(stored)]) == 0
    assert {path.name: path.read_bytes() for path in split_dir.iterdir()} == before


def test_predict_normalization_flag_is_usage_error(split_dir):
    stored = parse_csv(split_dir / "train.csv")[0]
    args = ["predict", "--case-base", str(split_dir / "case_base.csv"), *query_flags(stored)]
    assert main([*args, "--normalization", str(split_dir / "normalization.json")]) == 2


def test_predict_retain_keeps_the_mode_of_the_files_it_replaces(split_dir, capsys):
    base_path, sidecar = split_dir / "case_base.csv", split_dir / "normalization.json"
    base_path.chmod(0o600)
    sidecar.chmod(0o640)
    stored = parse_csv(split_dir / "train.csv")[3]
    assert main(["predict", "--case-base", str(base_path), "--retain", *query_flags(stored)]) == 0
    assert (base_path.stat().st_mode & 0o777, sidecar.stat().st_mode & 0o777) == (0o600, 0o640)


def test_predict_retain_failing_inside_the_case_base_write_leaves_both_files(split_dir, monkeypatch, capsys):
    case_fields, rows = dataset._case_fields, []

    def failing_at_row_10_of_73(case):
        rows.append(case)
        if len(rows) == 10:
            raise OSError("No space left on device")
        return case_fields(case)

    monkeypatch.setattr("heartcbr.dataset._case_fields", failing_at_row_10_of_73)
    before = {path.name: path.read_bytes() for path in split_dir.iterdir()}
    stored = parse_csv(split_dir / "train.csv")[3]
    rc = main(["predict", "--case-base", str(split_dir / "case_base.csv"), "--retain", *query_flags(stored)])
    assert rc == 1
    assert capsys.readouterr().err == "error: write: No space left on device\n"
    assert {path.name: path.read_bytes() for path in split_dir.iterdir()} == before


def test_predict_retain_failing_inside_the_sidecar_write_keeps_the_new_base(split_dir, monkeypatch, capsys):
    def half_written(path, payload):
        Path(path).write_text(json.dumps(payload)[:100], encoding="utf-8")
        raise OSError("No space left on device")

    monkeypatch.setattr("heartcbr.scaling._write_json", half_written)
    base_path, sidecar = split_dir / "case_base.csv", split_dir / "normalization.json"
    names, old_sidecar = sorted(path.name for path in split_dir.iterdir()), sidecar.read_bytes()
    stored = parse_csv(split_dir / "train.csv")[3]
    rc = main(["predict", "--case-base", str(base_path), "--retain", *query_flags(stored)])
    assert rc == 1
    assert capsys.readouterr().err == "error: write: No space left on device\n"
    assert sorted(path.name for path in split_dir.iterdir()) == names
    assert sidecar.read_bytes() == old_sidecar
    assert len(read_case_base(base_path)) == 73


def test_predict_invalid_field_value(split_dir, capsys):
    stored = parse_csv(split_dir / "train.csv")[0]
    flags = query_flags(stored)
    flags[flags.index("--chol") + 1] = "abc"
    rc = main(["predict", "--case-base", str(split_dir / "case_base.csv"), *flags])
    assert rc == 1


# --- stats and correlate -------------------------------------------------------


def test_stats_tables(tmp_path, synthetic_csv):
    rc = main(["stats", "--input", str(synthetic_csv), "--out-dir", str(tmp_path)])
    assert rc == 0
    cases = parse_csv(synthetic_csv)
    male = sum(1 for c in cases if c.sex == 1)
    lines = (tmp_path / "true_gender_counts.csv").read_text().splitlines()
    assert lines == ["gender,count", f"male,{male}", f"female,{len(cases) - male}"]

    for prefix in ("true", "predicted"):
        for table in (
            "gender_counts",
            "disease_counts",
            "positives_by_gender",
            "disease_by_age",
            "max_heart_rate_by_age",
            "chest_pain",
        ):
            assert (tmp_path / f"{prefix}_{table}.csv").exists()

    chest = (tmp_path / "predicted_chest_pain.csv").read_text().splitlines()[1:]
    totals = sum(int(line.split(",")[2]) for line in chest)
    assert totals == len(cases)


def test_correlate_matrix_csv(tmp_path, synthetic_csv):
    rc = main(["correlate", "--input", str(synthetic_csv), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "correlation.csv").read_text().splitlines()
    assert len(lines) == 15
    header = lines[0].split(",")
    assert header[0] == "attribute"
    assert len(header) == 15
    age_row = lines[1].split(",")
    assert age_row[0] == "age"
    assert age_row[1] == "1.0"


def test_correlate_constant_column_undefined(tmp_path):
    from heartcbr.synthetic import generate_rows, write_csv

    data = tmp_path / "const.csv"
    rows = generate_rows(20, seed=3)
    for row in rows:
        row["restecg"] = 1
    write_csv(data, rows)
    rc = main(["correlate", "--input", str(data), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "correlation.csv").read_text().splitlines()
    restecg_row = next(line for line in lines if line.startswith("restecg,"))
    assert "undefined" in restecg_row


def test_correlation_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a long dot product across threads, which reorders its sum.
    data = write_synthetic_dataset(tmp_path / "data.csv", 10250, seed=7)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        command = [sys.executable, "-m", "heartcbr", "correlate", "--input", str(data), "--out-dir", str(out)]
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out / "correlation.csv").read_bytes())
    assert outputs[0] == outputs[1]


# --- train-nn ------------------------------------------------------------------


def test_train_nn_is_seed_reproducible(tmp_path, clean_synthetic_csv):
    args = ["train-nn", "--input", str(clean_synthetic_csv), "--epochs", "5", "--seed", "3"]
    for name in ("a", "b"):
        assert main([*args, "--out-dir", str(tmp_path / name)]) == 0
    for artifact in ("mlp_report.json", "mlp_model.json", "mlp_training_log.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_train_nn_rejects_zero_epochs(tmp_path, clean_synthetic_csv, capsys):
    rc = main(
        ["train-nn", "--input", str(clean_synthetic_csv), "--epochs", "0", "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "train" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_train_nn_rejects_non_finite_eta(tmp_path, clean_synthetic_csv, capsys, eta):
    args = ["train-nn", "--input", str(clean_synthetic_csv), "--eta", eta, "--out-dir", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: train: ")
    assert not list(tmp_path.glob("mlp_*"))


def test_train_nn_zero_eta_equals_untrained_model(tmp_path, clean_synthetic_csv):
    rc = main(
        [
            "train-nn", "--input", str(clean_synthetic_csv),
            "--epochs", "3", "--eta", "0", "--seed", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    report = read_json(tmp_path / "mlp_report.json")

    cases = parse_csv(clean_synthetic_csv)
    split = split_sequential(cases, 0.6)
    params = fit_minmax(split.train)
    test_vectors = [normalize(to_feature_vector(c), params) for c in split.test]
    test_labels = [c.target for c in split.test]
    untrained = init_mlp(seed=5)
    assert report["test_accuracy"] == evaluate_mlp(untrained, test_vectors, test_labels)
    assert report["sizes"] == [13, 3, 2]


# --- run-all --------------------------------------------------------------------


def test_run_all_emits_full_output_set(tmp_path, synthetic_csv):
    rc = main(["run-all", "--input", str(synthetic_csv), "--out-dir", str(tmp_path)])
    assert rc == 0
    expected = [
        "train.csv",
        "test.csv",
        "case_base.csv",
        "normalization.json",
        "split_manifest.json",
        "evaluation_report.json",
        "per_case.csv",
        "correlation.csv",
    ]
    expected += [
        f"{prefix}_{table}.csv"
        for prefix in ("true", "predicted")
        for table in (
            "gender_counts",
            "disease_counts",
            "positives_by_gender",
            "disease_by_age",
            "max_heart_rate_by_age",
            "chest_pain",
        )
    ]
    for name in expected:
        assert (tmp_path / name).exists(), name


# SHA-256 of the files run-all writes on synthetic sets (seed 7) of 1,025,
# 10,250 and 102,500 rows. The 1,025-row report digests were recorded with the
# pure-Python per-pair scorer that preceded the numpy kernel, and its other
# 18 files with the duplicate-collapse kernel, before the CSV and JSON writers
# were merged into one each; the 10,250-row ones with the kernel before retain
# widened the extrema incrementally and cached the scaled rows, the
# 102,500-row ones with the kernel that scored one attribute at a time over
# row-major cases. Any change to a score, a tie-break, the scaling, a table or
# a file format shows here. The 102,500-row run takes minutes, so it is marked
# slow and runs only with ``-m slow``.
REPORT_DIGESTS = {
    1025: {
        "frozen": {
            "case_base.csv": "6da8a4c4ce038d945dac09f76a65efb08870be5aa3167803db18273c2bc00aa4",
            "correlation.csv": "e772c6f7814a10e4db6c4574333d44984f1b83177855c0ac0b99c66267abf119",
            "evaluation_report.json": "4f6da02474e2e54ace11eb5b0dd46a585fbdd4a9498114f2d926606e4e788532",
            "normalization.json": "4c164b3aa540f3fe0c11fef659665e055ebdbf4ea78fd7b905e512d8a197a6dc",
            "per_case.csv": "6420591ec7ad1c42e3c68f61d4275d859bcd4cf0c1dec55815e706671592f37f",
            "predicted_chest_pain.csv": "1dbf4f085b925aee6d5d7bc1849422dabcfd711b58f9ba88306893f1c48d0540",
            "predicted_disease_by_age.csv": "4a712de671e8d77645b528818feddabe1278310a2b2170000e8347b47da5e15f",
            "predicted_disease_counts.csv": "25c8b989ef70bd09a0bc211cf6bcfd0b5333dbfd76552636d3fb6633f5d69e49",
            "predicted_gender_counts.csv": "43e7e0dc30b0f90209b3af0216f03aeb8f212d8990680c7fc77d677a09d06823",
            "predicted_max_heart_rate_by_age.csv": "6826dd8f3a5dffecd7b279f388568982e0e899b33f04e0d30617746fbfabcc87",
            "predicted_positives_by_gender.csv": "bbc50b31148c060249709dc662f8fc0b1100f01fcc07be3719c99847a76f1189",
            "split_manifest.json": "e9d43c526dce999cd6efd683342ede9927e81d721ad94b3e4c28bab695aa6886",
            "test.csv": "d890d5e11448297961c6e0309215f81fe41121377b5d6bf17d0c5afdd5405964",
            "train.csv": "8f12c464f0ed2776c900a10a3f896d2f4b4b7e321752c98875bfd0ce5f3f06cd",
            "true_chest_pain.csv": "bf2b9a83f750d08d8a55f373716835ca2905eaabbb00a4b551cf35ac636333d5",
            "true_disease_by_age.csv": "1ea06357aa28e0330544de2ff4a7f77dc9f993b6720dd6e54ea80862be321f10",
            "true_disease_counts.csv": "25c8b989ef70bd09a0bc211cf6bcfd0b5333dbfd76552636d3fb6633f5d69e49",
            "true_gender_counts.csv": "43e7e0dc30b0f90209b3af0216f03aeb8f212d8990680c7fc77d677a09d06823",
            "true_max_heart_rate_by_age.csv": "6826dd8f3a5dffecd7b279f388568982e0e899b33f04e0d30617746fbfabcc87",
            "true_positives_by_gender.csv": "f09e5daead1a4c18b636478b32656042ed310f4fdeade94c07b436328c965175",
        },
        "incremental": {
            "case_base.csv": "6da8a4c4ce038d945dac09f76a65efb08870be5aa3167803db18273c2bc00aa4",
            "correlation.csv": "e772c6f7814a10e4db6c4574333d44984f1b83177855c0ac0b99c66267abf119",
            "evaluation_report.json": "cd5f7cb98cf54ff3937b18291f24de0a5e4405e4feae3892b20f54222087afb3",
            "normalization.json": "4c164b3aa540f3fe0c11fef659665e055ebdbf4ea78fd7b905e512d8a197a6dc",
            "per_case.csv": "39c08262d1fec719f77b6eca662b61157b613feed3750f65b32cc696fe00675f",
            "predicted_chest_pain.csv": "1ba132083dba38f32b9ac92897c779a3a6772f5fd53901189caf232c86503413",
            "predicted_disease_by_age.csv": "a7dadcd37bde984dc629d9cacfdd2757c4db194a150b8c18fdcbad5a8293a931",
            "predicted_disease_counts.csv": "9fe4fd8192ec58eeb306ef1c1e86bee6d983fa6dc655b98997427a0ef9caab0b",
            "predicted_gender_counts.csv": "43e7e0dc30b0f90209b3af0216f03aeb8f212d8990680c7fc77d677a09d06823",
            "predicted_max_heart_rate_by_age.csv": "6826dd8f3a5dffecd7b279f388568982e0e899b33f04e0d30617746fbfabcc87",
            "predicted_positives_by_gender.csv": "3f3c7880a4328ee5155eab78d7144cabcf2329d49a8a9b11f2f1b661a5c93464",
            "split_manifest.json": "e9d43c526dce999cd6efd683342ede9927e81d721ad94b3e4c28bab695aa6886",
            "test.csv": "d890d5e11448297961c6e0309215f81fe41121377b5d6bf17d0c5afdd5405964",
            "train.csv": "8f12c464f0ed2776c900a10a3f896d2f4b4b7e321752c98875bfd0ce5f3f06cd",
            "true_chest_pain.csv": "bf2b9a83f750d08d8a55f373716835ca2905eaabbb00a4b551cf35ac636333d5",
            "true_disease_by_age.csv": "1ea06357aa28e0330544de2ff4a7f77dc9f993b6720dd6e54ea80862be321f10",
            "true_disease_counts.csv": "25c8b989ef70bd09a0bc211cf6bcfd0b5333dbfd76552636d3fb6633f5d69e49",
            "true_gender_counts.csv": "43e7e0dc30b0f90209b3af0216f03aeb8f212d8990680c7fc77d677a09d06823",
            "true_max_heart_rate_by_age.csv": "6826dd8f3a5dffecd7b279f388568982e0e899b33f04e0d30617746fbfabcc87",
            "true_positives_by_gender.csv": "f09e5daead1a4c18b636478b32656042ed310f4fdeade94c07b436328c965175",
        },
    },
    10250: {
        "frozen": {
            "evaluation_report.json": "86a3690692fd68b0fe3d96cfeae756a4b950d72478be77035b1802333ec1bbd9",
            "per_case.csv": "95a74fb18c0d221bf97b194f03b66849d30078aa034f5ae106f97caabd15e0bc",
        },
        "incremental": {
            "evaluation_report.json": "685b4961b53cab5bcf307f5ccf9526725159e6d1f85fa653366b30482dc04e1c",
            "per_case.csv": "4a295783058b6cae7e80aa8955beb951593ed297d2f1d4360ff70056206865ef",
        },
    },
    102500: {
        "frozen": {
            "evaluation_report.json": "b7d60c35a059ba1009fc40cfa68bfb5c402c28b1eefc777568829e717b5c3130",
            "per_case.csv": "14fe15ba3311d703725ee3a6760e175be26caf8d16e74c523edecb89cca6e815",
        },
    },
}


@pytest.fixture(scope="module")
def seed7_csv(tmp_path_factory):
    """Path of the synthetic seed-7 set with the given number of rows, written once."""
    paths = {}

    def path_for(rows):
        if rows not in paths:
            paths[rows] = tmp_path_factory.mktemp("data") / f"synthetic_{rows}.csv"
            write_synthetic_dataset(paths[rows], rows, seed=7)
        return paths[rows]

    return path_for


@pytest.mark.parametrize(
    "rows, mode",
    [
        pytest.param(
            rows,
            mode,
            id=mode if rows == 1025 else f"{mode}-{rows}",
            marks=pytest.mark.slow if rows > 10250 else (),
        )
        for rows in REPORT_DIGESTS
        for mode in REPORT_DIGESTS[rows]
    ],
)
def test_run_all_reports_are_byte_identical_to_recorded_digests(tmp_path, seed7_csv, rows, mode):
    flags = ["--incremental-retain"] if mode == "incremental" else []
    rc = main(["run-all", "--input", str(seed7_csv(rows)), "--out-dir", str(tmp_path), *flags])
    assert rc == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REPORT_DIGESTS[rows][mode]
    }
    assert digests == REPORT_DIGESTS[rows][mode]


# SHA-256 of the files train-nn writes for TRAIN_NN_ARGS on the 1,025-row
# synthetic set (seed 7), recorded before the CSV and JSON writers were merged.
TRAIN_NN_ARGS = ["--epochs", "3", "--seed", "3"]
TRAIN_NN_DIGESTS = {
    "mlp_model.json": "8ee3b9a9c26530b5f85c9765c2a1543490882b20320275e89d370df24f16c0e8",
    "mlp_report.json": "0ff5dffdf6d8acf367c073d14fcccdb216d389c844ee3a55b324e7b7d7789579",
    "mlp_training_log.csv": "62f57f7917c75418ae648c0ec8ab36647b363a80d752d87a86cedd8b869748c3",
}


def test_train_nn_files_are_byte_identical_to_recorded_digests(tmp_path, seed7_csv):
    args = ["train-nn", "--input", str(seed7_csv(1025)), "--out-dir", str(tmp_path), *TRAIN_NN_ARGS]
    assert main(args) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in TRAIN_NN_DIGESTS
    }
    assert digests == TRAIN_NN_DIGESTS


def test_run_all_incremental_retain_predicted_stats_cover_every_row(tmp_path, synthetic_csv):
    args = ["--input", str(synthetic_csv), "--out-dir", str(tmp_path), "--incremental-retain"]
    rc = main(["run-all", *args])
    assert rc == 0
    report = read_json(tmp_path / "evaluation_report.json")
    rows = (tmp_path / "predicted_disease_counts.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(int(line.rsplit(",", 1)[1]) for line in rows) == report["n_train"] + report["n_test"]


# --- failure behaviour ------------------------------------------------------------

SPLIT_FILES = ["case_base.csv", "normalization.json", "split_manifest.json", "test.csv", "train.csv"]
NO_TRAIN_TARGET = "error: split: case 5: stored cases must have a target"
EMPTY_SIDE = "error: split: split of 1 cases at fraction 3/5 leaves an empty side"

# (input, command) -> (exit code, stderr line, files in --out-dir or None when it
# was never made). A 50-row file splits 30 / 20; "test-side" has no target on
# row 40 (test case 10), "train-side" none on row 5. split reads no target of
# a test row, so it alone succeeds on "test-side".
FAILURES = {
    ("test-side", "split"): (0, None, SPLIT_FILES),
    ("test-side", "evaluate"): (1, "error: evaluate: test case 10 is missing a target", None),
    ("test-side", "stats"): (1, "error: stats: every input row needs a target", None),
    ("test-side", "correlate"): (1, "error: correlate: case 40 is missing a target", None),
    ("test-side", "run-all"): (1, "error: evaluate: test case 10 is missing a target", SPLIT_FILES),
    ("test-side", "train-nn"): (1, "error: train-nn: every test row needs a target", None),
    ("train-side", "split"): (1, NO_TRAIN_TARGET, None),
    ("train-side", "evaluate"): (1, NO_TRAIN_TARGET, None),
    ("train-side", "stats"): (1, "error: stats: every input row needs a target", None),
    ("train-side", "correlate"): (1, "error: correlate: case 5 is missing a target", None),
    ("train-side", "run-all"): (1, NO_TRAIN_TARGET, None),
    ("train-side", "train-nn"): (1, NO_TRAIN_TARGET, None),
    ("one-row", "split"): (1, EMPTY_SIDE, None),
    ("one-row", "evaluate"): (1, EMPTY_SIDE, None),
    ("one-row", "stats"): (1, EMPTY_SIDE, None),
    ("one-row", "correlate"): (1, "error: correlate: correlation requires at least two cases", None),
    ("one-row", "run-all"): (1, EMPTY_SIDE, None),
    ("one-row", "train-nn"): (1, EMPTY_SIDE, None),
}


@pytest.fixture(scope="module")
def failing_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("failing")
    full = write_synthetic_dataset(directory / "full.csv", 50, seed=3)
    lines = full.read_text(encoding="utf-8").splitlines()

    def without_target(row):
        edited = list(lines)
        edited[row + 1] = edited[row + 1].rsplit(",", 1)[0] + ","
        return edited

    paths = {}
    for name, content in [
        ("test-side", without_target(40)),
        ("train-side", without_target(5)),
        ("one-row", lines[:2]),
    ]:
        paths[name] = directory / f"{name}.csv"
        paths[name].write_text("\n".join(content) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("source, command", list(FAILURES), ids="-".join)
def test_failure_exit_code_message_and_leftover_files(tmp_path, capsys, failing_inputs, source, command):
    rc_want, err_want, files_want = FAILURES[source, command]
    out = tmp_path / "out"
    rc = main([command, "--input", str(failing_inputs[source]), "--out-dir", str(out)])
    assert rc == rc_want
    err = capsys.readouterr().err
    assert err == ("" if err_want is None else err_want + "\n")
    files = sorted(p.name for p in out.iterdir()) if out.exists() else None
    assert files == files_want


# --- option scope -----------------------------------------------------------------


def test_predict_rejects_incremental_retain(split_dir):
    stored = parse_csv(split_dir / "train.csv")[0]
    args = ["predict", "--case-base", str(split_dir / "case_base.csv"), *query_flags(stored)]
    assert main([*args, "--incremental-retain"]) == 2


def test_predict_accepts_weights(split_dir, capsys):
    stored = parse_csv(split_dir / "train.csv")[0]
    weights = ",".join(["2"] + ["1"] * 12)
    args = ["predict", "--case-base", str(split_dir / "case_base.csv"), *query_flags(stored)]
    assert main([*args, "--weights", weights]) == 0
    assert json.loads(capsys.readouterr().out)["best_global_similarity"] == 1.0


def test_stats_accepts_incremental_retain(tmp_path, synthetic_csv):
    # evaluate and run-all take the flag in the tests above.
    args = ["stats", "--input", str(synthetic_csv), "--out-dir", str(tmp_path), "--incremental-retain"]
    assert main(args) == 0
    rows = (tmp_path / "predicted_disease_counts.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(int(line.rsplit(",", 1)[1]) for line in rows) == 120


# evaluate is covered by test_evaluate_invalid_weight_value_is_an_error.
@pytest.mark.parametrize("command", ["stats", "run-all", "predict"])
def test_non_finite_weight_is_an_error_on_stats_run_all_and_predict(tmp_path, synthetic_csv, capsys, command):
    weights = ",".join(["inf"] + ["1"] * 12)
    if command == "predict":
        args = ["--case-base", str(tmp_path / "case_base.csv"), "--age", "50"]
    else:
        args = ["--input", str(synthetic_csv)]
    rc = main([command, *args, "--weights", weights, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: weights:")
    assert not (tmp_path / "out").exists()
