"""Traced stand-in for ``python -m heartcbr``, used by the CLI check of traced eval-retain runs.

    python3 perfbench/cli_shim.py SPANS_JSON predict --case-base ... --retain

It times the import of ``heartcbr.cli``, runs the CLI's ``main`` with the
package's functions wrapped by the benchmark's tracer, and writes the spans
to SPANS_JSON when the CLI returns. Output and exit status are the CLI's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = tracing.Tracer()
    started = time.perf_counter_ns()
    import heartcbr.cli

    tracer.record("cli.import", started, time.perf_counter_ns())
    try:
        with tracing.instrumented(tracer):
            return heartcbr.cli.main(sys.argv[2:])
    finally:
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
