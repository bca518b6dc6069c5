#!/usr/bin/env python3
"""heartcbr benchmark: time the program from outside and check its outputs.

    python3 perfbench/run.py --workload eval-frozen --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``, so
nothing needs installing. ``--trace 0`` measures the end-to-end metrics with
no instrumentation. ``--trace 1`` traces every other operation and reports
the per-layer metrics plus the tracing overhead. End-to-end times are
rescaled to a nominal machine speed (see speed.py); the unscaled ones are
printed too. Human readable lines come first; the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Spans of a traced run are written to ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "heartcbr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no heartcbr package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


_bootstrap()

import numpy  # noqa: E402

import heartcbr  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# Per-layer metrics read off the spans. Times of a layer the workload never
# calls read 0.
CALL_MEDIAN = {  # median duration of one call
    "dataset.parse_csv.s": ("dataset.parse_csv", 1.0),
    "scaling.fit_minmax.s": ("scaling.fit_minmax", 1.0),
    "engine.evaluate.s": ("engine.evaluate", 1.0),
    "analytics.pearson_correlation.s": ("analytics.pearson_correlation", 1.0),
    "engine.predict.ms": ("engine.predict", 1e3),
    "engine.retain.ms": ("engine.retain", 1e3),
    "cli.import.ms": ("cli.import", 1e3),
    "dataset.read_case_base.ms": ("dataset.read_case_base", 1e3),
    "scaling.read_params.ms": ("scaling.read_params", 1e3),
    "dataset.write_case_base.ms": ("dataset.write_case_base", 1e3),
    "scaling.write_params.ms": ("scaling.write_params", 1e3),
}
PER_REQUEST = {  # median over the requests that call the layer of the time spent in it
    "scaling.normalize.s": "scaling.normalize",
    "engine.rank_scaled.s": "engine.rank_scaled",
    "engine.reuse.s": "engine.reuse",
    "analytics.dataset_stats.s": "analytics.dataset_stats",
    "reports.write.s": "reports.write",
}
LEAF_MEAN = {  # mean duration of one call of a high-frequency function
    "cases.validate_case.us_per_row": ("cases.validate_case", 1e6),
    "baselines.forward.us": ("baselines.forward", 1e6),
    "baselines.backprop_deltas.us": ("baselines.backprop_deltas", 1e6),
    "baselines.update_weights.us": ("baselines.update_weights", 1e6),
}

DESCRIPTIONS = {
    "eval-frozen": "{rows} rows, 30% exact duplicates; evaluate {test} queries against a frozen base of {train}",
    "eval-retain": "{rows} rows, no duplicates; predict+retain {test} queries, base grows from {train}",
    "train-nn": "{rows} rows, no duplicates; 13-3-2 MLP, {epochs} epochs per run over {train} rows, evaluated on {test}",
}
OP_NAMES = {"query": ("throughput_qps", "queries/s"), "weight update": ("updates_per_s", "updates/s")}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "heartcbr": heartcbr.__version__,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(m: workloads.Measurement, nominal: bool = True) -> dict[str, float]:
    """The end-to-end metrics, times rescaled to nominal speed unless ``nominal`` is False."""
    setups = m.setup_nominal_s() if nominal else m.setup_s
    units = m.unit_nominal_s() if nominal else m.unit_s
    return {
        "setup_s": _median(setups),
        "throughput_per_s": m.ops / sum(units),
        "latency_p50_ms": _percentile(units, 50) * 1e3,
        "latency_p95_ms": _percentile(units, 95) * 1e3,
        "peak_rss_mb": m.peak_rss_mb,
    }


def per_layer(tracer: tracing.Tracer, m: workloads.Measurement, n_test: int) -> dict[str, float]:
    traced = [i for i, flag in enumerate(m.unit_traced) if flag]
    units = m.unit_nominal_s()
    untraced = [t for t, flag in zip(units, m.unit_traced) if not flag]
    values = {name: 0.0 for name in PER_LAYER}
    for metric, (span, scale) in CALL_MEDIAN.items():
        values[metric] = _median(tracer.durations_s(span)) * scale
    for metric, span in PER_REQUEST.items():
        values[metric] = _median([t for t in tracer.per_request_s(span, traced) if t > 0])
    for metric, (leaf, scale) in LEAF_MEAN.items():
        calls, total_ns = tracer.leaf_totals(leaf)
        values[metric] = total_ns / 1e9 / calls * scale if calls else 0.0
    values.update(m.layer)
    if values["engine.pairs_scored"]:
        values["engine.ns_per_pair"] = values["engine.evaluate.s"] * 1e9 / values["engine.pairs_scored"]
    retains = tracer.spans("engine.retain")
    if retains:
        retain_ids = set(retains)
        refits = sum(1 for i in tracer.spans("scaling.fit_minmax") if tracer.parent[i] in retain_ids)
        values["scaling.refits"] = refits * n_test / len(retains)
    trainings = len(tracer.spans("baselines.train_mlp"))
    if trainings:
        values["baselines.updates"] = tracer.leaf_totals("baselines.update_weights", under="baselines.train_mlp")[0] / trainings
    if traced and untraced:
        values["trace.overhead_ratio"] = _median([units[i] for i in traced]) / _median(untraced)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full", expected: dict | None = None) -> dict:
    """Run one workload; ``result`` is the object printed as the last line."""
    expected = workloads.load_expected() if expected is None else expected
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(name, size, seed, work)
        want = expected[size][name][inputs.input_set] if name in expected[size] else None
        measure = workloads.WORKLOADS[name]
        tracer = tracing.Tracer() if trace else None
        m = measure(inputs, seconds, tracer, want)
        if not trace:
            metrics = end_to_end(m)
        else:
            if name != "train-nn":  # the only workload that never retrieves
                workloads.split_properties(inputs, m)
            metrics = per_layer(tracer, m, len(inputs.rows) - inputs.n_train)
            tracer.write(
                WORK_ROOT / "traces" / f"{name}-seed{seed}-{size}.json",
                {"workload": name, "seed": seed, "input_set": inputs.input_set, "machine": machine()},
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = _units()
    n_train = inputs.n_train
    return {
        "inputs": {
            "input_set": inputs.input_set,
            "rows": len(inputs.rows),
            "train": n_train,
            "test": len(inputs.rows) - n_train,
            "epochs": inputs.size.epochs,
        },
        "measurement": m,
        "result": {
            "correct": m.attempted > 0 and m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def report_lines(name: str, seed: int, size: str, trace: bool, run: dict) -> list[str]:
    m, result, inputs = run["measurement"], run["result"], run["inputs"]
    lines = [
        f"perfbench {name} seed={seed} size={size} trace={int(trace)}",
        "machine: " + " ".join(f"{k}={v}" for k, v in machine().items()),
        f"input set {inputs['input_set']}: " + DESCRIPTIONS[name].format(**inputs),
    ]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    if not trace:
        alias, alias_unit = OP_NAMES[m.op]
        throughput = result["metrics"]["throughput_per_s"]["value"]
        lines.append(f"  {alias:<32} {throughput:>14.6g} {alias_unit}  (one op = one {m.op})")
        lines.append(f"  latency samples: {len(m.unit_s)} (one sample = one {m.unit}); set-ups: {len(m.setup_s)}")
        raw = end_to_end(m, nominal=False)
        lines.append(
            f"  times above are rescaled to nominal speed (see speed.py); calibration median"
            f" {_median(m.cal_s) * 1e3:.4g} ms against {speed.NOMINAL_S * 1e3:g} ms nominal. Unscaled:"
            f" setup_s {raw['setup_s']:.6g}, throughput_per_s {raw['throughput_per_s']:.6g},"
            f" latency_p50_ms {raw['latency_p50_ms']:.6g}, latency_p95_ms {raw['latency_p95_ms']:.6g}"
        )
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines.append(f"  {'error_rate':<32} {rate:>14.6g} failed/attempted ({result['failed']} of {result['attempted']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heartcbr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; smoke runs in seconds and is for tests")
    args = parser.parse_args(argv)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in report_lines(args.workload, args.seed, args.size, bool(args.trace), run):
        print(line)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
