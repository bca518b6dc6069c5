#!/usr/bin/env python3
"""Time ``run-all``, ``predict`` and ``predict --retain`` on synthetic data at 1k, 10k and 100k rows.

For each size and mode this writes the seed-7 synthetic dataset and runs a
command in-process ``--repeats`` times, keeping the fastest wall time and
the fastest time of each stage (each stage's own minimum, so the stages may
come from different runs):

- ``frozen`` and ``incremental``: ``heartcbr run-all`` (with
  ``--incremental-retain``), staged parse, split, fit, evaluate, stats,
  correlate and write. It records the share of distinct raw rows in the
  initial case base and the SHA-256 digests of ``evaluation_report.json``
  and ``per_case.csv``.
- ``predict`` and ``predict-retain``: ``heartcbr predict`` (with
  ``--retain``) of the first test row against the size's persisted base,
  which ``heartcbr split`` writes once, untimed (61,500 rows at 102,500).
  Each run starts from a fresh copy of the base. Stages: load, fit, parse
  (the query), predict, retain, write. It records the SHA-256 digests of
  ``case_base.csv`` after the run and of the printed prediction.

Results are stored under ``--label`` in the output file and entries under
other labels are kept, so runs of two checkouts can sit side by side:

    PYTHONPATH=src python3 scripts/bench_scale.py --label change
    PYTHONPATH=src python3 scripts/bench_scale.py --sizes 1025 --incremental-sizes --predict-sizes --repeats 1

A label that is already in the file gains the new runs: each size and mode
keeps its fastest wall time and stage times over all calls (``repeats``
counts the runs), and its digests must not change. To compare two
checkouts, interleave them round by round, one ``--repeats 1`` call per
checkout per round, for at least three rounds. The host's speed drifts
over minutes, so running one checkout's repeats and then the other's reads
that drift as a difference between them.
Every ``run-all`` of a call writes into one output directory, so only the
first writes new files and the later ones overwrite them; with ``--repeats
2`` or more, each run of a size after its first rewrites files of that size,
as a rerun into an old ``--out-dir`` does. The script times whichever
``heartcbr`` PYTHONPATH points at:

    for round in 1 2 3; do
        PYTHONPATH=../parent/src python3 scripts/bench_scale.py --label before --repeats 1
        PYTHONPATH=src python3 scripts/bench_scale.py --label after --repeats 1
    done
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from heartcbr import cli
from heartcbr.dataset import parse_csv, split_sequential
from heartcbr.synthetic import write_synthetic_dataset

SEED = 7
STAGES = {
    "run-all": ("parse", "split", "fit", "evaluate", "stats", "correlate", "write"),
    "predict": ("load", "fit", "parse", "predict", "retain", "write"),
}
DIGESTED = ("evaluation_report.json", "per_case.csv")
PERSISTED = ("case_base.csv", "normalization.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed_main(argv: list[str], stages: tuple[str, ...]) -> tuple[float, dict, str]:
    """One in-process CLI run: wall time, seconds per stage, and what it printed."""
    seconds = dict.fromkeys(stages, 0.0)
    # The commands call every step through cli._stage with the step's stage
    # name, so timing that one function splits the run by stage.
    stage = cli._stage

    def timed_stage(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = stage(name, fn, *args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - start
        return result

    printed = io.StringIO()
    cli._stage = timed_stage
    try:
        with contextlib.redirect_stdout(printed):
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        cli._stage = stage
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} failed (exit {rc})")
    return wall, {name: round(value, 4) for name, value in seconds.items()}, printed.getvalue()


def timed_run_all(csv_path: Path, out: Path, incremental: bool) -> dict:
    """One in-process ``run-all``: wall time, seconds per stage, digests."""
    argv = ["run-all", "--input", str(csv_path), "--out-dir", str(out)]
    if incremental:
        argv.append("--incremental-retain")
    wall, stages, _ = timed_main(argv, STAGES["run-all"])
    return {
        "run_all_s": round(wall, 4),
        "stages_s": stages,
        "digests": {name: _sha256((out / name).read_bytes()) for name in DIGESTED},
    }


def timed_predict(split_dir: Path, query_csv: Path, live: Path, retain: bool) -> dict:
    """One in-process ``predict`` (``--retain``) on a fresh copy of the persisted base in ``live``."""
    live.mkdir(exist_ok=True)
    for name in PERSISTED:
        shutil.copyfile(split_dir / name, live / name)
    argv = ["predict", "--case-base", str(live / "case_base.csv"), "--query", str(query_csv)]
    if retain:
        argv.append("--retain")
    wall, stages, printed = timed_main(argv, STAGES["predict"])
    return {
        "wall_s": round(wall, 4),
        "stages_s": stages,
        "digests": {
            "case_base.csv": _sha256((live / "case_base.csv").read_bytes()),
            "stdout": _sha256(printed.encode()),
        },
    }


def _wall(run: dict) -> float:
    return run["run_all_s"] if "run_all_s" in run else run["wall_s"]


def _fastest(runs: list[dict], repeats: int) -> dict:
    """The fastest of ``runs``, with each stage's minimum over them all and ``repeats``."""
    stages = {name: min(run["stages_s"][name] for run in runs) for name in runs[0]["stages_s"]}
    return dict(min(runs, key=_wall), stages_s=stages, repeats=repeats)


def measure(rows: int, mode: str, repeats: int, scratch: Path) -> dict:
    csv_path = write_synthetic_dataset(scratch / f"synthetic_{rows}.csv", rows, seed=SEED)
    if mode in ("frozen", "incremental"):
        runs = [timed_run_all(csv_path, scratch / "out", mode == "incremental") for _ in range(repeats)]
        # The initial case base of run-all (default train fraction), numbered as the kernel does.
        train = split_sequential(parse_csv(csv_path)).train
        facts = {"distinct_ratio": round(len(train.distinct()[0]) / len(train), 4)}
    else:
        split_dir = scratch / f"split_{rows}"
        if not (split_dir / "case_base.csv").exists():
            argv = ["split", "--input", str(csv_path), "--out-dir", str(split_dir)]
            timed_main(argv, ("parse", "split", "write", "fit"))
        query_csv = scratch / f"query_{rows}.csv"
        query_csv.write_text("".join((split_dir / "test.csv").read_text(encoding="utf-8").splitlines(True)[:2]))
        runs = [timed_predict(split_dir, query_csv, scratch / "live", mode == "predict-retain") for _ in range(repeats)]
        with open(split_dir / "case_base.csv", "rb") as base:
            facts = {"base_rows": sum(1 for _ in base) - 1}
    if any(run["digests"] != runs[0]["digests"] for run in runs):
        raise SystemExit(f"{rows} rows {mode}: digests differ between repeats")
    return {"rows": rows, "mode": mode, **facts, **_fastest(runs, repeats)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current", help="name the results are stored under")
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--sizes", type=int, nargs="*", default=[1025, 10250, 102500])
    parser.add_argument("--incremental-sizes", type=int, nargs="*", default=[1025, 10250])
    parser.add_argument("--predict-sizes", type=int, nargs="*", default=[1025, 10250, 102500])
    parser.add_argument("--repeats", type=int, default=3, help="runs per configuration; the fastest is kept")
    args = parser.parse_args()

    configurations = [(rows, "frozen") for rows in args.sizes]
    configurations += [(rows, "incremental") for rows in args.incremental_sizes]
    configurations += [(rows, mode) for rows in args.predict_sizes for mode in ("predict", "predict-retain")]
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for rows, mode in configurations:
            run = measure(rows, mode, args.repeats, Path(scratch))
            print(f"{run['rows']:>7} {run['mode']:<14} {_wall(run):.3f} s", file=sys.stderr)
            runs.append(run)

    out = Path(args.out)
    results = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    new = {(run["rows"], run["mode"]): run for run in runs}
    runs = []
    for kept in results.get(args.label, {}).get("runs", []):
        run = new.pop((kept["rows"], kept["mode"]), None)
        if run is not None:
            if kept["digests"] != run["digests"]:
                raise SystemExit(f"{run['rows']} rows {run['mode']}: digests differ from the earlier calls")
            kept = _fastest([kept, run], kept.get("repeats", 0) + run["repeats"])
        runs.append(kept)
    runs += new.values()  # configurations no earlier call ran
    results[args.label] = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "seed": SEED,
        "runs": runs,
    }
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
