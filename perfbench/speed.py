"""Rescaling of wall-clock times to a nominal machine speed.

On a shared cloud VM the speed of one core switches between states up to
1.8 times apart, for seconds to minutes at a time, as other tenants load the
host; CPU time drifts with wall time, so
neither is steady from one run to the next. Each workload therefore times a
fixed calibration loop just before every set-up and every timed operation,
and once after the last. An operation's time is reported rescaled to the
speed at which that loop takes NOMINAL_S seconds, using the mean of the two
calibration samples that bracket it. The unscaled times are printed beside
the rescaled ones.
"""

from __future__ import annotations

import time
from typing import Sequence

# A fixed reference: what calibrate() takes at a middling speed of a shared
# 2.0 GHz Xeon vCPU under Python 3.11 (its fastest is about 3.2 ms).
NOMINAL_S = 0.0036
ROUNDS = 1000
TEXT_VALUES = 300

_QUERY = tuple(i / 13.0 for i in range(13))
_CASE = tuple((i * 7 % 13) / 13.0 for i in range(13))
_VALUES = tuple(i / 7.0 for i in range(TEXT_VALUES))


def calibrate() -> float:
    """Seconds one run of a fixed workload takes.

    Half of it is a loop shaped like the engine's scoring loop; the other
    half formats, parses and sorts rows of numbers, which allocates as the
    program's CSV, case and ranking code does. Under load from other tenants
    that code slows more than plain arithmetic does, so the mix follows the
    workloads more closely than either half alone.
    """
    started = time.perf_counter()
    total = 0.0
    for _ in range(ROUNDS):
        num = 0.0
        for a, b in zip(_QUERY, _CASE):
            diff = a - b
            if diff < 0.0:
                diff = -diff
            sim = 1.0 - diff
            if sim < 0.0:
                sim = 0.0
            num += sim
        total += num / 13.0
    rows = [{"a": str(x), "b": repr(x * 3.0), "c": int(x)} for x in _VALUES]
    text = "\n".join(",".join((row["a"], row["b"], str(row["c"]))) for row in rows)
    parsed = [tuple(float(v) for v in line.split(",")) for line in text.split("\n")]
    parsed.sort(key=lambda t: (-t[1], t[0]))
    return time.perf_counter() - started


def rescale(times: Sequence[float], before: Sequence[int], samples: Sequence[float]) -> list[float]:
    """``times[i]`` at nominal speed; ``samples[before[i]]`` and the next sample bracket it."""
    return [
        t * NOMINAL_S / ((samples[j] + samples[min(j + 1, len(samples) - 1)]) / 2)
        for t, j in zip(times, before)
    ]
