"""Pure-Python reference scorer, independent of heartcbr.

It works on the raw rows the synthetic generator produced, not on anything
the program parsed, and fits its own extrema. The arithmetic follows the
documented method step by step in float64 and in attribute order:

    scaled = (x - min) / range           per attribute, query and case alike
    sim    = max(0, 1 - |scaled_q - scaled_c|)
             (a zero-range attribute matches on equal raw values only)
    score  = (w_1 * sim_1 + ... + w_13 * sim_13) / (w_1 + ... + w_13)

summed left to right, so its scores must equal the program's bit for bit.
"""

from __future__ import annotations

from typing import Sequence

Row = Sequence[float]


def _extrema(base: Sequence[Row]) -> tuple[list[float], list[float]]:
    width = len(base[0])
    lows = [float(base[0][j]) for j in range(width)]
    highs = list(lows)
    for row in base:
        for j in range(width):
            value = float(row[j])
            if value < lows[j]:
                lows[j] = value
            elif value > highs[j]:
                highs[j] = value
    return lows, highs


class ReferenceScorer:
    """Scores queries against one fixed set of raw case rows."""

    def __init__(self, base: Sequence[Row], weights: Sequence[float]):
        if not base:
            raise ValueError("reference scorer needs at least one case")
        self.weights = [float(w) for w in weights]
        self.weight_sum = 0.0
        for w in self.weights:
            self.weight_sum += w
        self.lows, highs = _extrema(base)
        self.ranges = [hi - lo for lo, hi in zip(self.lows, highs)]
        self.raw = [[float(x) for x in row] for row in base]
        self.scaled = [self._scale(row) for row in self.raw]

    def _scale(self, row: Row) -> list[float]:
        return [
            0.0 if rng == 0.0 else (float(x) - lo) / rng
            for x, lo, rng in zip(row, self.lows, self.ranges)
        ]

    def scores(self, query: Row) -> list[float]:
        """Global similarity of ``query`` to every case, in case order."""
        raw_q = [float(x) for x in query]
        scaled_q = self._scale(raw_q)
        out = []
        for raw_c, scaled_c in zip(self.raw, self.scaled):
            num = 0.0
            for j, w in enumerate(self.weights):
                if self.ranges[j] == 0.0:
                    sim = 1.0 if raw_q[j] == raw_c[j] else 0.0
                else:
                    diff = scaled_q[j] - scaled_c[j]
                    if diff < 0.0:
                        diff = -diff
                    sim = 1.0 - diff
                    if sim < 0.0:
                        sim = 0.0
                num += w * sim
            out.append(num / self.weight_sum)
        return out


def best_match(scores: Sequence[float], ids: Sequence[int]) -> tuple[int, float, int]:
    """(best id, best score, cases tied at that score); lowest id wins ties."""
    best_index = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best_index] or (
            scores[i] == scores[best_index] and ids[i] < ids[best_index]
        ):
            best_index = i
    top = scores[best_index]
    return ids[best_index], top, sum(1 for s in scores if s == top)


def disagreement(scores: Sequence[float], ids: Sequence[int], best_id: int, best_score: float) -> str | None:
    """Why the program's answer for one query is wrong, or None if it agrees."""
    for case_id, score in zip(ids, scores):
        if not 0.0 <= score <= 1.0:
            return f"case {case_id} scores {score!r}, outside [0, 1]"
    ref_id, ref_score, _ = best_match(scores, ids)
    if best_id != ref_id:
        return f"best case {best_id}, reference says {ref_id}"
    if repr(best_score) != repr(ref_score):
        return f"best score {best_score!r}, reference says {ref_score!r}"
    return None


def sample_indices(n: int, count: int = 16) -> list[int]:
    """A fixed, evenly spread sample of query positions."""
    return sorted({i * n // count for i in range(min(count, n))})
