#!/usr/bin/env python3
"""Write expected.json: the outputs each benchmark input set must reproduce.

    python3 perfbench/make_expected.py

For every size and input set it records the SHA-256 of eval-frozen's
``evaluation_report.json`` and ``per_case.csv``, the SHA-256 of eval-retain's
per-query (predicted_target, best_case_id, best_similarity) sequence, and
train-nn's test accuracy and final weights. Regenerate it only from code
whose outputs are known good: the benchmark counts every difference from
these values as a failure.
"""

import json
import shutil
import sys

import run  # puts src/ on the import path
import workloads


def expected_for(size: str, input_set: int) -> dict:
    work = run.WORK_ROOT / f"expected-{size}-{input_set}"
    try:
        inputs = workloads.make_inputs("eval-frozen", size, input_set, work / "frozen")
        cases, split = workloads.split_csv(inputs.csv)
        out = inputs.work / "out"
        out.mkdir()
        workloads.frozen_iteration(cases, split, workloads.scaling.fit_minmax(split.train), out)
        frozen = workloads.frozen_digests(out)

        inputs = workloads.make_inputs("eval-retain", size, input_set, work / "paper")
        test = workloads.persist_split(inputs, inputs.work / "split")
        base = workloads.dataset.read_case_base(inputs.work / "split" / "case_base.csv")
        params = workloads.scaling.read_params(inputs.work / "split" / "normalization.json")
        sequence = []
        for query in test:
            prediction, base, params = workloads.retain_cycle(query, base, params)
            sequence.append((prediction.predicted_target, prediction.best_case_id, prediction.best_global_similarity))

        state = workloads.train_setup(inputs.csv)
        model, accuracy = workloads.train_iteration(state, inputs.size.epochs, input_set)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "eval-frozen": frozen,
        "eval-retain": workloads.sequence_digest(sequence),
        "train-nn": {"test_accuracy": accuracy, "w_hidden": model.w_hidden.tolist(), "w_out": model.w_out.tolist()},
    }


def main() -> int:
    expected = {}
    for size in workloads.SIZES:
        per_set = [expected_for(size, s) for s in range(workloads.INPUT_SETS)]
        expected[size] = {name: [entry[name] for entry in per_set] for name in per_set[0]}
        print(f"{size}: {workloads.INPUT_SETS} input sets", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
