"""The benchmark's workloads: inputs, set-up, timed loop and correctness gate.

Every workload drives heartcbr through its public API or its CLI as one
closed-loop caller: the next operation starts only after the previous one
returned, in this one process, with at most one child process at a time.

Inputs come from ``heartcbr.synthetic``. ``--seed`` picks one of
INPUT_SETS input sets (seed modulo INPUT_SETS); the expected outputs of every
set are committed in ``expected.json``, so every seed is checked against the
outputs of heartcbr 0.1.0 as committed with the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from heartcbr import analytics, baselines, dataset, engine, reports, scaling, synthetic
from heartcbr.cases import to_feature_vector

import reference
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
CLI_SHIM = HERE / "cli_shim.py"

INPUT_SETS = 32
# Each run sets up at least SETUP_MIN times and for at least SETUP_BUDGET_S
# seconds (at most SETUP_MAX times) and reports the median, since one set-up
# takes only milliseconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 100, 1.0
TRAIN_FRACTION = Fraction(3, 5)
FROZEN_CHUNK = 24  # eval-frozen test rows per timed evaluate call
WEIGHTS = (1.0,) * 13
MLP_ETA = 0.1
CHILD_TIMEOUT_S = 120
CLI_RUNS = 3  # untimed real CLI processes per eval-retain run
# The config block the CLI writes into evaluation_report.json for a default run-all.
REPORT_CONFIG = {
    "incremental_retain": False,
    "train_fraction": 0.6,
    "validation_mode": "lenient",
    "weights": list(WEIGHTS),
}


@dataclass(frozen=True)
class Size:
    frozen_rows: int  # eval-frozen dataset, 30 % exact duplicates
    paper_rows: int  # eval-retain and train-nn dataset, no duplicates
    epochs: int  # train-nn epochs per run


SIZES = {
    "full": Size(frozen_rows=1200, paper_rows=1025, epochs=2),
    "smoke": Size(frozen_rows=200, paper_rows=100, epochs=1),
}


@dataclass
class Inputs:
    """Generated input files of one run, plus the raw rows for the reference."""

    work: Path
    input_set: int
    size: Size
    csv: Path
    rows: list[dict]

    @property
    def n_train(self) -> int:
        return int(len(self.rows) * TRAIN_FRACTION)

    def features(self, rows: list[dict]) -> list[list[float]]:
        names = synthetic.HEADER[:-1]
        return [[float(row[name]) for name in names] for row in rows]


@dataclass
class Measurement:
    """What one run of a workload measured.

    With a tracer, every other timed operation is traced, so traced and
    untraced operations share the same stretch of time on a machine whose
    speed drifts, and their ratio is the tracing overhead. Set-ups are all
    traced.
    """

    unit: str  # what one latency sample is
    op: str  # what throughput counts
    tracer: tracing.Tracer | None = None
    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)
    unit_traced: list[bool] = field(default_factory=list)
    # speed.calibrate() samples in time order, and the one taken just before
    # each set-up and each timed operation.
    cal_s: list[float] = field(default_factory=list)
    setup_cal: list[int] = field(default_factory=list)
    unit_cal: list[int] = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)

    def _instrumented(self, traced: bool):
        return tracing.instrumented(self.tracer if traced else None)

    def _calibrate(self) -> int:
        self.cal_s.append(speed.calibrate())
        return len(self.cal_s) - 1

    def time_setup(self, setup):
        """Run ``setup`` once, record its time and return its result."""
        self.setup_cal.append(self._calibrate())
        with self._instrumented(self.tracer is not None):
            started = time.perf_counter()
            state = setup()
            self.setup_s.append(time.perf_counter() - started)
        return state

    def finish(self) -> None:
        """Close the timed loop: the last calibration sample and the peak memory."""
        self._calibrate()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def setup_nominal_s(self) -> list[float]:
        return speed.rescale(self.setup_s, self.setup_cal, self.cal_s)

    def unit_nominal_s(self) -> list[float]:
        return speed.rescale(self.unit_s, self.unit_cal, self.cal_s)

    def next_traced(self) -> bool:
        """Whether the next timed operation is a traced one."""
        return self.tracer is not None and len(self.unit_s) % 2 == 1

    def drop_last(self, n: int) -> None:
        """Leave the last ``n`` timed operations out of the timings; they stay attempted and checked.

        A workload whose operations get dearer along a pass drops an
        unfinished last pass, so that every position in a pass weighs the
        same in every run, however far the run got.
        """
        if n:
            del self.unit_s[-n:], self.unit_traced[-n:], self.unit_cal[-n:]
            self.ops -= n

    def time_unit(self, fn, *args, **kwargs):
        """Run one timed operation, record its time (also if it raises) and return its result."""
        traced = self.next_traced()
        if traced:
            self.tracer.request = len(self.unit_s)
        self.unit_traced.append(traced)
        self.unit_cal.append(self._calibrate())
        with self._instrumented(traced):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.unit_s.append(time.perf_counter() - started)
                if self.tracer is not None:
                    self.tracer.request = -1


def make_inputs(workload: str, size_name: str, seed: int, work: Path) -> Inputs:
    size = SIZES[size_name]
    input_set = seed % INPUT_SETS
    if workload == "eval-frozen":
        rows = synthetic.generate_rows(size.frozen_rows, seed=input_set)
    else:
        rows = synthetic.generate_rows(size.paper_rows, seed=input_set, duplicate_fraction=0.0)
    work.mkdir(parents=True, exist_ok=True)
    csv_path = work / "input.csv"
    synthetic.write_csv(csv_path, rows)
    return Inputs(work, input_set, size, csv_path, rows)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)


def repeated_setup(m: Measurement, setup):
    """Run ``setup`` as often as the set-up budget asks; return the last result."""
    while True:
        state = m.time_setup(setup)
        n = len(m.setup_s)
        if n >= SETUP_MAX or (n >= SETUP_MIN and sum(m.setup_s) >= SETUP_BUDGET_S):
            return state


def split_csv(csv_path: Path):
    cases = dataset.parse_csv(csv_path)
    split = dataset.split_sequential(cases, TRAIN_FRACTION)
    return cases, split


def split_properties(inputs: Inputs, m: Measurement) -> None:
    """Input properties that decide what duplicate collapsing can save.

    They describe the test rows against the initial case base (the train
    split), scored by the reference scorer.
    """
    train = inputs.features(inputs.rows[: inputs.n_train])
    test = inputs.features(inputs.rows[inputs.n_train :])
    distinct = {tuple(row) for row in train}
    m.layer["engine.distinct_case_ratio"] = len(distinct) / len(train)
    m.layer["engine.exact_match_queries"] = sum(1 for row in test if tuple(row) in distinct)
    scorer = reference.ReferenceScorer(train, WEIGHTS)
    ids = list(range(len(train)))
    m.layer["engine.top_score_ties"] = sum(
        1 for row in test if reference.best_match(scorer.scores(row), ids)[2] > 1
    )


# -- eval-frozen --------------------------------------------------------------


def frozen_reports(cases, split, report, out: Path) -> None:
    """The run-all work after evaluate: statistics, correlation and report files."""
    truths = [case.target for case in cases]
    true_stats = analytics.dataset_stats(cases, truths)
    merged = [case.target for _, case in split.train]
    merged.extend(r.predicted_target for r in report.per_case)
    predicted_stats = analytics.dataset_stats(cases, merged)
    matrix = analytics.pearson_correlation(cases)
    payload = reports.evaluation_report_to_dict(report, REPORT_CONFIG)
    reports.write_json(out / "evaluation_report.json", payload)
    reports.write_per_case_csv(out / "per_case.csv", report)
    reports.write_stats_tables(out, "true", true_stats)
    reports.write_stats_tables(out, "predicted", predicted_stats)
    reports.write_correlation_csv(out / "correlation.csv", matrix)


def frozen_iteration(cases, split, params, out: Path):
    """One whole run-all over the frozen base; returns the report."""
    report = engine.evaluate(split.test, split.train, engine.SimilarityConfig(), params)
    frozen_reports(cases, split, report, out)
    return report


def frozen_digests(out: Path) -> dict[str, str]:
    return {name: _sha256((out / name).read_bytes()) for name in ("evaluation_report.json", "per_case.csv")}


def same_results(chunk, whole, offset: int) -> bool:
    """Whether a chunk's per-case results equal the whole run's from ``offset`` on."""
    want = whole[offset : offset + len(chunk)]
    return len(want) == len(chunk) and all(
        (a.true_target, a.predicted_target, a.best_case_id) == (b.true_target, b.predicted_target, b.best_case_id)
        and repr(a.best_similarity) == repr(b.best_similarity)
        for a, b in zip(chunk, want)
    )


def eval_frozen(inputs: Inputs, seconds: float, tracer, expected) -> Measurement:
    """Batch run-all over a frozen base, timed in short steps.

    One untimed run-all first warms up and gives the report the committed
    digests check. Each timed pass then evaluates the test rows FROZEN_CHUNK
    at a time against the same frozen base, every chunk checked against that
    report, and ends with one step of statistics, correlation and report
    writes. Short steps give a p95 of hundreds of samples, and a machine
    speed that the calibration around each step follows.
    """
    m = Measurement(unit="evaluate call or stats+reports step", op="query", tracer=tracer)
    out = inputs.work / "out"
    out.mkdir(exist_ok=True)
    n_test = len(inputs.rows) - inputs.n_train

    def setup():
        cases, split = split_csv(inputs.csv)
        return cases, split, scaling.fit_minmax(split.train)

    cases, split, params = repeated_setup(m, setup)
    config = engine.SimilarityConfig()
    whole = None
    try:
        whole = frozen_iteration(cases, split, params, out)
    except Exception:
        _report_failure("eval-frozen run-all raised:\n" + traceback.format_exc())
    gate_ok = whole is not None and frozen_digests(out) == expected
    # One pass: the chunks in order, then the stats+reports step (chunk None).
    steps = [(i, split.test[i : i + FROZEN_CHUNK]) for i in range(0, n_test, FROZEN_CHUNK)]
    if whole is not None:
        steps.append((n_test, None))
    evaluated = [0] * len(steps)  # timed evaluate calls per chunk
    deadline = time.perf_counter() + seconds
    while not m.unit_s or time.perf_counter() < deadline:
        step = len(m.unit_s) % len(steps)
        offset, chunk = steps[step]
        if chunk is None:
            try:
                m.time_unit(frozen_reports, cases, split, whole, out)
            except Exception:
                gate_ok = False
                _report_failure("eval-frozen reports raised:\n" + traceback.format_exc())
                continue
            if frozen_digests(out) != expected:
                gate_ok = False
            m.layer["reports.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            continue
        m.attempted += len(chunk)
        evaluated[step] += 1
        try:
            # Looked up at call time, so that a traced run records the call.
            report = m.time_unit(lambda: engine.evaluate(chunk, split.train, config, params))
        except Exception:
            gate_ok = False
            _report_failure("eval-frozen evaluate raised:\n" + traceback.format_exc())
            continue
        m.ops += len(chunk)
        if whole is not None and not same_results(report.per_case, whole.per_case, offset):
            gate_ok = False
            _report_failure(f"eval-frozen queries {offset}+: a chunk differs from the whole run")
    m.finish()
    if not gate_ok:
        _report_failure("eval-frozen outputs differ from the committed digests")
        m.failed = m.attempted
        return m
    # Independent reference on a fixed sample of the whole run.
    train = inputs.features(inputs.rows[: inputs.n_train])
    test = inputs.features(inputs.rows[inputs.n_train :])
    scorer = reference.ReferenceScorer(train, WEIGHTS)
    ids = split.train.ids()
    for index in reference.sample_indices(n_test):
        result = whole.per_case[index]
        why = reference.disagreement(
            scorer.scores(test[index]), ids, result.best_case_id, result.best_similarity
        )
        if why:
            m.failed += evaluated[index // FROZEN_CHUNK]
            _report_failure(f"eval-frozen query {index}: {why}")
    m.layer["engine.pairs_scored"] = min(FROZEN_CHUNK, n_test) * len(split.train)
    return m


# -- eval-retain --------------------------------------------------------------


def persist_split(inputs: Inputs, directory: Path):
    """Write the persisted split the way ``heartcbr split`` does; return its test cases."""
    directory.mkdir(parents=True, exist_ok=True)
    _, split = split_csv(inputs.csv)
    dataset.write_case_base(split.train, directory / "case_base.csv")
    scaling.write_params(scaling.fit_minmax(split.train), directory / "normalization.json")
    return split.test


def retain_cycle(query, base, params):
    """One eval-retain operation: predict, then retain with the predicted label."""
    prediction = engine.predict(query, base, engine.SimilarityConfig(), params)
    base, params = engine.retain(query, prediction.predicted_target, base)
    return prediction, base, params


def extrema_moved(old, new) -> bool:
    """Whether a refit after retain changed any attribute's min or max."""
    return old.mins != new.mins or old.maxs != new.maxs


def sequence_digest(sequence) -> str:
    lines = "".join(f"{t},{i},{s!r}\n" for t, i, s in sequence)
    return _sha256(lines.encode("utf-8"))


def eval_retain(inputs: Inputs, seconds: float, tracer, expected) -> Measurement:
    m = Measurement(unit="predict+retain cycle", op="query", tracer=tracer)
    split_dir = inputs.work / "split"
    test = persist_split(inputs, split_dir)

    def setup():
        base = dataset.read_case_base(split_dir / "case_base.csv")
        return base, scaling.read_params(split_dir / "normalization.json")

    passes: list[list] = []  # (predicted, best id, best score) per query, per pass
    moved = 0  # retains whose refit moved an extremum
    gate_ok = True
    repeated_setup(m, setup)
    deadline = time.perf_counter() + seconds
    complete = 0
    while not passes or time.perf_counter() < deadline:
        base, params = m.time_setup(setup)
        current: list = []
        passes.append(current)
        for query in test:
            if complete and time.perf_counter() >= deadline:
                break
            m.attempted += 1
            try:
                prediction, base, new_params = m.time_unit(retain_cycle, query, base, params)
            except Exception:
                gate_ok = False
                _report_failure("eval-retain cycle raised:\n" + traceback.format_exc())
                break
            m.ops += 1
            moved += extrema_moved(params, new_params)
            params = new_params
            current.append(
                (prediction.predicted_target, prediction.best_case_id, prediction.best_global_similarity)
            )
        else:
            complete += 1
            if sequence_digest(current) != expected:
                gate_ok = False
    m.finish()
    m.drop_last(len(passes[-1]) if len(passes) > complete else 0)
    full = passes[0]
    if not gate_ok or any(p != full[: len(p)] for p in passes):
        _report_failure("eval-retain predictions differ from the committed digest")
        m.failed = m.attempted
        return m
    cli_error = check_cli(inputs, split_dir, test, m)
    if cli_error:
        _report_failure(f"eval-retain CLI check: {cli_error}")
        m.failed = m.attempted
        return m
    # Reference on a fixed sample: query i sees the base grown by queries 0..i-1.
    base_rows = inputs.features(inputs.rows[: inputs.n_train])
    test_rows = inputs.features(inputs.rows[inputs.n_train :])
    for index in reference.sample_indices(len(test)):
        grown = base_rows + test_rows[:index]
        scorer = reference.ReferenceScorer(grown, WEIGHTS)
        _, best_id, best_score = full[index]
        why = reference.disagreement(scorer.scores(test_rows[index]), list(range(len(grown))), best_id, best_score)
        if why:
            m.failed += sum(1 for p in passes if len(p) > index)
            _report_failure(f"eval-retain query {index}: {why}")
    m.layer["scaling.refit_change_ratio"] = moved / m.ops
    return m


# -- the CLI, checked beside eval-retain ----------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_copy(src: Path, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for name in ("case_base.csv", "normalization.json"):
        shutil.copyfile(src / name, dst / name)


def _roundtrip_error(live: Path, base, params) -> str | None:
    """Compare the persisted files with the in-process case base and scaling."""
    buffer = io.StringIO()
    dataset.write_case_base(base, buffer)
    if (live / "case_base.csv").read_text(encoding="utf-8") != buffer.getvalue():
        return "case_base.csv differs from the in-process case base"
    if dataset.read_case_base(live / "case_base.csv") != base:
        return "case_base.csv does not read back to the in-process case base"
    mirror = live.parent / "expected_normalization.json"
    scaling.write_params(params, mirror)
    if (live / "normalization.json").read_bytes() != mirror.read_bytes():
        return "normalization.json differs from the in-process scaling"
    if scaling.read_params(live / "normalization.json") != params:
        return "normalization.json does not read back to the in-process scaling"
    return None


def check_cli(inputs: Inputs, split_dir: Path, test, m: Measurement) -> str | None:
    """Run CLI_RUNS real ``python -m heartcbr predict --retain`` processes; say what went wrong.

    They start from a fresh copy of the persisted split and take the first
    test rows in order. Each must exit 0 and print what ``predict`` and
    ``retain`` give for the same query sequence without the CLI, and the
    files they leave must equal that state, byte for byte and read back. A
    traced run starts them through cli_shim.py, which times the import of
    ``heartcbr.cli`` and records spans inside the child. They are not timed:
    process start-up on a shared machine varies far beyond the benchmark's
    bounds.
    """
    live = inputs.work / "cli"
    _fresh_copy(split_dir, live)
    env = _child_env()
    spans = inputs.work / "child_spans.json"
    base = dataset.read_case_base(split_dir / "case_base.csv")
    params = scaling.read_params(split_dir / "normalization.json")
    for k, query in enumerate(test[:CLI_RUNS]):
        query_csv = inputs.work / f"q{k}.csv"
        synthetic.write_csv(query_csv, [inputs.rows[inputs.n_train + k]])
        args = ["predict", "--case-base", str(live / "case_base.csv"), "--query", str(query_csv), "--retain"]
        if m.tracer is None:
            command = [sys.executable, "-m", "heartcbr", *args]
        else:
            command = [sys.executable, str(CLI_SHIM), str(spans), *args]
        try:
            proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"query {k}: no exit within {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0:
            return f"query {k} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
        prediction, base, params = retain_cycle(query, base, params)
        wanted = reports.prediction_to_dict(prediction, True, len(base))
        try:
            printed = json.loads(proc.stdout)
        except json.JSONDecodeError:
            printed = None
        if printed != wanted:
            return f"query {k}: printed {proc.stdout.strip()!r}, without the CLI {wanted!r}"
        if m.tracer is not None:
            m.tracer.merge(json.loads(spans.read_text(encoding="utf-8")), qid=-1)
    m.layer["dataset.case_base_bytes"] = (live / "case_base.csv").stat().st_size
    return _roundtrip_error(live, base, params)


# -- train-nn -----------------------------------------------------------------


def train_setup(csv_path: Path):
    """What ``heartcbr train-nn`` does before training: split, fit, scale."""
    _, split = split_csv(csv_path)
    params = scaling.fit_minmax(split.train)
    train_cases = split.train.cases()
    return (
        [scaling.normalize(to_feature_vector(c), params) for c in train_cases],
        [c.target for c in train_cases],
        [scaling.normalize(to_feature_vector(c), params) for c in split.test],
        [c.target for c in split.test],
    )


def train_iteration(state, epochs: int, seed: int):
    train_v, train_l, test_v, test_l = state
    model, _ = baselines.train_mlp(train_v, train_l, epochs, MLP_ETA, seed)
    return model, baselines.evaluate_mlp(model, test_v, test_l)


def train_matches(model, accuracy: float, expected: dict) -> bool:
    if accuracy != expected["test_accuracy"]:
        return False
    for got, want in ((model.w_hidden, expected["w_hidden"]), (model.w_out, expected["w_out"])):
        flat_got = [x for row in got.tolist() for x in row]
        flat_want = [x for row in want for x in row]
        if len(flat_got) != len(flat_want) or any(abs(a - b) > 1e-12 for a, b in zip(flat_got, flat_want)):
            return False
    return True


def train_nn(inputs: Inputs, seconds: float, tracer, expected) -> Measurement:
    m = Measurement(unit="train+evaluate run", op="weight update", tracer=tracer)
    updates = inputs.n_train * inputs.size.epochs
    gate_ok = True
    state = repeated_setup(m, lambda: train_setup(inputs.csv))
    deadline = time.perf_counter() + seconds
    while not m.unit_s or time.perf_counter() < deadline:
        m.attempted += updates
        try:
            model, accuracy = m.time_unit(train_iteration, state, inputs.size.epochs, inputs.input_set)
        except Exception:
            gate_ok = False
            _report_failure("train-nn run raised:\n" + traceback.format_exc())
            continue
        m.ops += updates
        if not train_matches(model, accuracy, expected):
            gate_ok = False
    m.finish()
    if not gate_ok:
        _report_failure("train-nn accuracy or weights differ from the committed values")
        m.failed = m.attempted
    return m


WORKLOADS = {
    "eval-frozen": eval_frozen,
    "eval-retain": eval_retain,
    "train-nn": train_nn,
}
