"""Retrieve / reuse / revise / retain cycle over a min-max scaled case memory.

Retrieval scores every stored case against the query with a weighted average
of per-attribute similarities; reuse copies the solution of the single best
match. The revise stage is a recorded no-op for binary outcomes, and retain
appends the solved raw query to the case memory and refits the scaling from
the extrema the case base widens as it grows. :func:`evaluate` runs the
cycle over a test set, retaining each case in turn when asked to.

One numpy kernel, :func:`_score_block`, computes every score over a block of
queries x cases. It broadcasts ``|q - c|``, ``1 - d`` and the clamp at 0 over
a group of attributes at once, as many as fit BLOCK_PAIRS scores (all 13 for
one query against a paper-sized base, one for a full block of a frozen
evaluate), then adds ``w * sim`` into ``num`` one attribute at a time, in
order, and divides once by the sequential weight sum. That is the float64
operation sequence of a per-pair loop (no np.sum, np.add.reduce, dot or
matmul, which reorder additions), so scores lie in [0, 1], self-similarity is
exactly 1.0 and scores are symmetric, bit for bit. Degenerate (zero-range)
attributes match on equal raw values. :func:`evaluate` holds at most
BLOCK_PAIRS scores at once.

The kernel runs under a ufunc buffer of KERNEL_BUFSIZE elements and puts the
caller's buffer size back when it returns or raises. With numpy's default
buffer, the iterator copies the operand broadcast along the case axis into
its buffer whenever that axis is shorter than the buffer, which costs more
than the arithmetic; a small buffer lets it read that operand in place. Every
ufunc in the kernel is elementwise, so the buffer size changes how the work
is split up, never the bits. numpy keeps the setting per context (per thread
before numpy 2.0), so no other thread sees the change.

The kernel scores each distinct raw feature row of the case base once
(:meth:`CaseBase.distinct`): identical rows get identical scores under any
weights and scaling, so copies of a row cost nothing. Distinct rows are in
order of first occurrence, so the best case is ``first[argmax]``, the lowest
id among the best-scoring rows as ids only increase. :func:`retrieve` expands
the scores back to every stored id through ``columns`` and sorts by
(-score, id); :func:`predict` never sorts.

The scaled distinct rows are cached on the case base, attribute-major, while
the scaling parameters stay equal, so a predict after a retain scales the new
row alone (none when it repeats a stored row); a refit that moves an
extremum rescales the base once, at the next predict.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .analytics import CaseResult, ConfusionCounts, EvaluationReport
from .cases import N_FEATURES, Case, CaseValidationError
from .dataset import CaseBase, feature_matrix
from .scaling import NormalizationParams, fit_minmax

logger = logging.getLogger(__name__)

BLOCK_PAIRS = 32_768  # query-case scores that evaluate holds at once
KERNEL_BUFSIZE = 512  # elements of numpy's ufunc buffer while the kernel runs


def _sequential_sum(values: Sequence[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class SimilarityConfig:
    """Per-attribute weights of the similarity score.

    Weights default to 1.0 each; only their ratios matter because the score
    divides by their sum. They must be finite and non-negative, not all zero.
    Ties are always resolved toward the lowest case id.
    """

    weights: tuple[float, ...] = (1.0,) * N_FEATURES

    def __post_init__(self):
        if len(self.weights) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} weights, got {len(self.weights)}")
        if not all(map(math.isfinite, self.weights)) or min(self.weights) < 0:
            raise ValueError("weights must be finite and non-negative")
        if not 0.0 < self.weight_sum < math.inf:
            raise ValueError("weights must not all be zero and must have a finite sum")

    @property
    def weight_sum(self) -> float:
        return _sequential_sum(self.weights)


class RankedMatch(NamedTuple):
    case_id: int
    score: float
    target: int


_new_match = partial(tuple.__new__, RankedMatch)  # RankedMatch._make without its Python frame


@dataclass(frozen=True)
class Prediction:
    """Outcome of retrieve + reuse: the reused solution and the best case it came from."""

    predicted_target: int
    best_case_id: int
    best_global_similarity: float


def _score_block(queries, cases, weights, degenerate, weight_sum: float) -> np.ndarray:
    """Scores of every query row against every case column, shape (queries, cases).

    ``queries`` is row-major (queries x attributes), ``cases`` attribute-major
    (attributes x cases). Values are scaled (range 1), but degenerate
    attributes match only on equal values. Attributes are broadcast in groups
    that fill one buffer of at most max(BLOCK_PAIRS, queries x cases) scores,
    then added into ``num`` one plane at a time, in attribute order.
    """
    previous = np.setbufsize(KERNEL_BUFSIZE)
    try:
        n_attributes = len(weights)
        q_all = queries.T[:, :, np.newaxis]
        c_all = cases[:, np.newaxis, :]
        num = np.zeros((len(queries), cases.shape[1]))
        group = max(1, min(BLOCK_PAIRS // max(num.size, 1), n_attributes))
        buffer = np.empty((group,) + num.shape)
        for start in range(0, n_attributes, group):
            stop = min(start + group, n_attributes)
            sim = buffer[: stop - start]
            np.subtract(q_all[start:stop], c_all[start:stop], out=sim)
            np.abs(sim, out=sim)
            np.subtract(1.0, sim, out=sim)
            np.maximum(sim, 0.0, out=sim)
            for j, plane in enumerate(sim, start):
                if degenerate[j]:
                    np.equal(q_all[j], c_all[j], out=plane)
                if weights[j] != 1.0:  # x * 1.0 == x, so skipping it keeps the bits
                    plane *= weights[j]
                num += plane  # not np.add.reduce over the group: it may sum pairwise
        num /= weight_sum
        return num
    finally:
        np.setbufsize(previous)


@lru_cache(maxsize=8)
def _scaling(params: NormalizationParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(mins, divisors, degenerate mask, any divisor below 1) of ``params``, built once per distinct params."""
    degenerate = np.array(params.degenerate, dtype=bool)
    arrays = np.array(params.mins), np.where(degenerate, 1.0, params.ranges), degenerate
    for array in arrays:
        array.flags.writeable = False  # shared by every caller with equal params
    return arrays + (bool(arrays[1].min() < 1.0),)


def _prepare(features: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Kernel rows from raw features: ``(x - lo) / range``, raw on degenerate attributes."""
    if features.shape[1] != len(params):
        raise ValueError(f"{features.shape[1]} attributes do not match parameters ({len(params)})")
    mins, divisors, degenerate, small_range = _scaling(params)
    rows = features - mins
    # A range below 1 can scale a finite value past the largest float; the
    # clamp scores that inf 0. Entering errstate costs more than the division
    # itself, so it is entered only then.
    if small_range:
        with np.errstate(over="ignore"):
            rows /= divisors
    else:
        rows /= divisors
    np.copyto(rows, features, where=degenerate)
    return rows


def _score_blocks(
    queries: Sequence[Case],
    case_base: CaseBase,
    config: SimilarityConfig,
    params: NormalizationParams,
) -> Iterator[np.ndarray]:
    """Scores of the queries against every distinct stored row, in blocks of consecutive queries."""
    if len(case_base) == 0:
        raise ValueError("cannot retrieve from an empty case base")
    cases = case_base.derived_rows(params, partial(_prepare, params=params)).T
    rows = _prepare(feature_matrix(queries), params)
    step = max(1, BLOCK_PAIRS // cases.shape[1])
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        yield _score_block(block, cases, config.weights, params.degenerate, config.weight_sum)


def _ranking(scores: np.ndarray, ids, targets) -> list[RankedMatch]:
    order = np.lexsort((ids, -scores))
    columns = (np.asarray(ids)[order], scores[order], np.asarray(targets)[order])
    return list(map(_new_match, zip(*(column.tolist() for column in columns))))


def global_similarity(
    query: Sequence[float],
    case: Sequence[float],
    config: SimilarityConfig,
    params: NormalizationParams,
) -> float:
    """Weighted average of the 13 local similarities between scaled vectors."""
    if len(query) != N_FEATURES or len(case) != N_FEATURES:
        raise ValueError("global similarity is defined over 13-attribute vectors")
    rows = np.array([query, case], dtype=np.float64)
    score = _score_block(rows[:1], rows[1:].T, config.weights, params.degenerate, config.weight_sum)
    return score.item()


def rank_scaled(
    query: Sequence[float],
    rows: Sequence[Sequence[float]],
    ids: Sequence[int],
    targets: Sequence[int],
    weights: Sequence[float],
) -> list[RankedMatch]:
    """Score pre-scaled rows against a pre-scaled query, best first.

    Generic over the number of attributes; no attribute is degenerate. The
    sort is descending by score with exact ties ordered by ascending case id.
    """
    queries = np.array([query], dtype=np.float64)
    cases = np.array(rows, dtype=np.float64).reshape(len(rows), len(query))
    degenerate = (False,) * len(query)
    scores = _score_block(queries, cases.T, weights, degenerate, _sequential_sum(weights))
    return _ranking(scores[0], ids, targets)


def _best_matches(scores: np.ndarray, case_base: CaseBase) -> list[tuple[int, float, int]]:
    """(target, score, case id) of the best stored case for each row of distinct-row ``scores``."""
    _, ids, targets = case_base.arrays()
    first, _ = case_base.distinct()
    top = scores.argmax(axis=1)
    rows = first[top]
    top_scores = scores[np.arange(len(top)), top]
    return list(zip(targets[rows].tolist(), top_scores.tolist(), ids[rows].tolist()))


def retrieve(
    query: Case,
    case_base: CaseBase,
    config: SimilarityConfig,
    params: NormalizationParams,
) -> list[RankedMatch]:
    """Rank every stored case against the query, highest similarity first, lowest id on ties."""
    scores = next(_score_blocks([query], case_base, config, params))
    _, ids, targets = case_base.arrays()
    return _ranking(scores[0][case_base.distinct()[1]], ids, targets)


def reuse(ranked: Sequence[RankedMatch]) -> int:
    """Copy the solution of the highest-scoring case, lowest id on ties."""
    if not ranked:
        raise ValueError("cannot reuse from an empty ranking")
    best = max(ranked, key=lambda m: (m.score, -m.case_id))
    logger.debug("reuse: case %d with score %.6f -> target %d", best.case_id, best.score, best.target)
    return best.target


def predict(
    query: Case,
    case_base: CaseBase,
    config: SimilarityConfig,
    params: NormalizationParams,
) -> Prediction:
    """Run retrieve + reuse for one query without retaining it.

    Only the best case is taken from the scores, so nothing is sorted; the
    ranking is :func:`retrieve`'s. The revise stage is intentionally a no-op:
    with a binary outcome there is nothing to adapt, so the reused solution
    is final.
    """
    scores = next(_score_blocks([query], case_base, config, params))
    ((predicted, score, best_id),) = _best_matches(scores, case_base)
    logger.debug("reuse: case %d, score %.6f -> target %d", best_id, score, predicted)
    logger.debug("revise: no-op (binary solution)")
    return Prediction(predicted, best_id, score)


def retain(
    query: Case,
    solved_target: int,
    case_base: CaseBase,
) -> tuple[CaseBase, NormalizationParams]:
    """Append the solved raw query to the case base and refit the scaling.

    The query is stored un-normalized under a fresh id, its 13 fields as
    given and ``solved_target`` in place of its own target. Only the target
    is checked here: a :class:`Case` was validated where it entered the
    program (``parse_csv``, ``read_case_base`` or the CLI query). The case
    base widens its extrema with the new row, so the refit costs the same at
    any size and gives what fitting the enlarged base from scratch gives.
    Requires exclusive access to the case base (single writer).
    """
    # A bool is not an integer target, as in validate_case; 1.0 is stored as 1.
    if isinstance(solved_target, bool) or solved_target not in (0, 1):
        raise CaseValidationError(f"solved target must be 0 or 1, got {solved_target!r}")
    case_id = case_base.add(replace(query, target=int(solved_target)))
    params = fit_minmax(case_base)
    logger.debug("retain: stored case %d with target %d", case_id, solved_target)
    return case_base, params


def evaluate(
    test_cases: Sequence[Case],
    case_base: CaseBase,
    config: SimilarityConfig,
    params: NormalizationParams,
    *,
    incremental_retain: bool = False,
) -> EvaluationReport:
    """Predict every test case in order and summarize the outcome.

    With ``incremental_retain`` each test case is retained with its predicted
    target before the next prediction, growing the case base as it goes (and
    mutating the one passed in); otherwise the base and scaling stay frozen
    and the queries are scored in blocks. The merged accuracy counts every
    original training case as correct by self-retrieval.
    """
    if not test_cases:
        raise ValueError("cannot evaluate an empty test set")
    for index, case in enumerate(test_cases):
        if case.target is None:
            raise ValueError(f"test case {index} is missing a target")

    n_train = len(case_base)
    best: list[tuple[int, float, int]] = []  # (predicted target, score, case id) per query
    if incremental_retain:
        for case in test_cases:
            p = predict(case, case_base, config, params)
            best.append((p.predicted_target, p.best_global_similarity, p.best_case_id))
            case_base, params = retain(case, p.predicted_target, case_base)
    else:
        for scores in _score_blocks(test_cases, case_base, config, params):
            best.extend(_best_matches(scores, case_base))

    results = tuple(
        CaseResult(index, case.target, predicted, score, case_id)  # type: ignore[arg-type]
        for index, (case, (predicted, score, case_id)) in enumerate(zip(test_cases, best))
    )
    outcomes = Counter((r.true_target, r.predicted_target) for r in results)
    correct = outcomes[0, 0] + outcomes[1, 1]
    n_test = len(results)
    return EvaluationReport(
        per_case=results,
        test_accuracy=correct / n_test,
        merged_accuracy=(n_train + correct) / (n_train + n_test),
        confusion=ConfusionCounts(
            tp=outcomes[1, 1], tn=outcomes[0, 0], fp=outcomes[0, 1], fn=outcomes[1, 0]
        ),
        n_train=n_train,
        n_test=n_test,
    )
