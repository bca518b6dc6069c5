"""Reference baselines: fuzzy membership functions and a small sigmoid MLP.

The membership functions are the classic triangular and trapezoidal shapes.
The network is a feed-forward 13-3-2 multilayer perceptron trained online
with the standard error-backpropagation delta rules; layer sizes are
configurable so the same machinery runs on toy problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import _read_json, _write_json, _write_rows

DEFAULT_SIZES = (13, 3, 2)


@dataclass(frozen=True)
class TriangularParams:
    """Triangle with lower limit a, peak m, upper limit b (a < m < b)."""

    a: float
    m: float
    b: float

    def __post_init__(self):
        if not (self.a < self.m < self.b):
            raise ValueError(f"require a < m < b, got {self.a}, {self.m}, {self.b}")


@dataclass(frozen=True)
class TrapezoidalParams:
    """Trapezoid with support [a, d] and plateau [b, c] (a <= b <= c <= d, a < d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"require a <= b <= c <= d, got {self.a}, {self.b}, {self.c}, {self.d}"
            )
        if not self.a < self.d:
            raise ValueError("require a < d")


def triangular_membership(x: float, p: TriangularParams) -> float:
    """Degree of membership under a triangular function."""
    if x <= p.a or x >= p.b:
        return 0.0
    if x <= p.m:
        return (x - p.a) / (p.m - p.a)
    return (p.b - x) / (p.b - p.m)


def trapezoidal_membership(x: float, p: TrapezoidalParams) -> float:
    """Degree of membership under a trapezoidal function.

    Degenerate edges (b == a or d == c) produce steps: the plateau branch
    wins at the shared breakpoint.
    """
    if x < p.a or x > p.d:
        return 0.0
    if p.b <= x <= p.c:
        return 1.0
    if x < p.b:
        return (x - p.a) / (p.b - p.a)
    return (p.d - x) / (p.d - p.c)


def sigmoid(y: float) -> float:
    """Logistic function 1 / (1 + e^-y), stable for large |y|."""
    if y >= 0:
        return 1.0 / (1.0 + math.exp(-y))
    z = math.exp(y)
    return z / (1.0 + z)


@dataclass
class MlpModel:
    """Fully connected sigmoid network with one hidden layer.

    Weight matrices include a bias column: each layer sees its input vector
    with a constant 1 appended. ``sizes`` is immutable after construction;
    training mutates the weight arrays in place.
    """

    sizes: tuple[int, int, int]
    w_hidden: np.ndarray
    w_out: np.ndarray
    eta: float
    seed: int

    def __post_init__(self):
        n_in, n_hidden, n_out = self.sizes
        if self.w_hidden.shape != (n_hidden, n_in + 1):
            raise ValueError(f"hidden weights must be {(n_hidden, n_in + 1)}")
        if self.w_out.shape != (n_out, n_hidden + 1):
            raise ValueError(f"output weights must be {(n_out, n_hidden + 1)}")
        if not (np.isfinite(self.w_hidden).all() and np.isfinite(self.w_out).all()):
            raise ValueError("weights must be finite")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.eta!r}")


def init_mlp(sizes: tuple[int, int, int] = DEFAULT_SIZES, eta: float = 0.1, seed: int = 0) -> MlpModel:
    """Create a model with small random weights, uniform in [-0.05, 0.05]."""
    n_in, n_hidden, n_out = sizes
    rng = np.random.default_rng(seed)
    w_hidden = rng.uniform(-0.05, 0.05, size=(n_hidden, n_in + 1))
    w_out = rng.uniform(-0.05, 0.05, size=(n_out, n_hidden + 1))
    return MlpModel(sizes=tuple(sizes), w_hidden=w_hidden, w_out=w_out, eta=eta, seed=seed)


# -- scalar core -------------------------------------------------------------
#
# One copy of the network arithmetic, on plain Python lists: weight rows come
# from ``ndarray.tolist()`` and every input vector carries the bias entry 1.0
# last. Sums run in index order, so the bias term is added last. At 13-3-2 a
# numpy call costs more than the arithmetic it does, so training and
# evaluation run entirely here; ``forward``, ``backprop_deltas`` and
# ``update_weights`` below are numpy adapters over the same helpers.


def _with_bias(vector: Sequence[float], n_in: int) -> list[float]:
    row = [float(v) for v in vector]
    if len(row) != n_in:
        raise ValueError(f"expected {n_in} inputs, got {len(row)}")
    row.append(1.0)
    return row


def _weight_lists(model: MlpModel) -> tuple[list[list[float]], list[list[float]]]:
    return model.w_hidden.tolist(), model.w_out.tolist()


def _layer(weights: list[list[float]], inputs: list[float]) -> list[float]:
    activations = []
    for row in weights:
        net = 0.0
        for w, v in zip(row, inputs):
            net += w * v
        activations.append(sigmoid(net))
    return activations


def _forward(w_hidden, w_out, x: list[float]) -> tuple[list[float], list[float]]:
    """(hidden with the bias 1.0 appended, outputs) for a bias-augmented input."""
    hidden = _layer(w_hidden, x)
    hidden.append(1.0)
    return hidden, _layer(w_out, hidden)


def _deltas(w_out, hidden: list[float], outputs: list[float], targets: Sequence[float]):
    """Output and hidden delta terms; ``hidden`` carries the bias entry, which gets none."""
    out_deltas = [output_delta(o, t) for o, t in zip(outputs, targets)]
    hidden_deltas = [
        hidden_delta(o_h, zip(column, out_deltas)) for o_h, column in zip(hidden[:-1], zip(*w_out))
    ]
    return out_deltas, hidden_deltas


def _update(w_hidden, w_out, eta: float, x, hidden, out_deltas, hidden_deltas) -> None:
    """w <- w + eta * (delta * input) for every weight, in place."""
    for weights, deltas, inputs in ((w_out, out_deltas, hidden), (w_hidden, hidden_deltas, x)):
        for row, delta in zip(weights, deltas):
            for i, v in enumerate(inputs):
                row[i] += eta * (delta * v)


def _predict(w_hidden, w_out, x: list[float]) -> int:
    _, outputs = _forward(w_hidden, w_out, x)
    return outputs.index(max(outputs))


def forward(model: MlpModel, inputs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Layer-wise sigmoid activations: returns (hidden, outputs)."""
    hidden, outputs = _forward(*_weight_lists(model), _with_bias(inputs, model.sizes[0]))
    return np.array(hidden[:-1]), np.array(outputs)


def output_delta(o_k: float, t_k: float) -> float:
    """Error term for an output unit: o(1 - o)(t - o)."""
    return o_k * (1.0 - o_k) * (t_k - o_k)


def hidden_delta(o_h: float, downstream: Iterable[tuple[float, float]]) -> float:
    """Error term for a hidden unit: o(1 - o) * sum of w_kh * delta_k."""
    back = 0.0
    for w_kh, delta_k in downstream:
        back += w_kh * delta_k
    return o_h * (1.0 - o_h) * back


def backprop_deltas(
    model: MlpModel, hidden: np.ndarray, outputs: np.ndarray, targets: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Delta error terms for every output and hidden unit."""
    out_deltas, hidden_deltas = _deltas(
        model.w_out.tolist(),
        _with_bias(hidden, model.sizes[1]),
        [float(o) for o in outputs],
        [float(t) for t in targets],
    )
    return np.array(out_deltas), np.array(hidden_deltas)


def update_weights(
    model: MlpModel,
    out_deltas: np.ndarray,
    hidden_deltas: np.ndarray,
    inputs: Sequence[float],
    hidden: np.ndarray,
) -> MlpModel:
    """Apply w <- w + eta * delta * input to every weight, in place."""
    w_hidden, w_out = _weight_lists(model)
    _update(
        w_hidden,
        w_out,
        model.eta,
        _with_bias(inputs, model.sizes[0]),
        _with_bias(hidden, model.sizes[1]),
        [float(d) for d in out_deltas],
        [float(d) for d in hidden_deltas],
    )
    model.w_hidden[:] = w_hidden
    model.w_out[:] = w_out
    return model


def one_hot_target(label: int) -> tuple[float, float]:
    """Class 0 (absence) -> (1, 0); class 1 (presence) -> (0, 1)."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    return (1.0, 0.0) if label == 0 else (0.0, 1.0)


def train_mlp(
    vectors: Sequence[Sequence[float]],
    labels: Sequence[int],
    epochs: int,
    eta: float = 0.1,
    seed: int = 0,
    sizes: tuple[int, int, int] = DEFAULT_SIZES,
) -> tuple[MlpModel, list[float]]:
    """Train online in example order; returns the model and per-epoch MSE.

    One weight update per example per epoch. The logged error is the mean of
    0.5 * sum((t - o)^2) over the epoch's examples, each measured before its
    update. Deterministic given the seed; eta = 0 leaves the initial weights
    untouched. The weights are copied to lists once, trained in the scalar
    core and written back into the model at the end.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not vectors:
        raise ValueError("cannot train on an empty set")
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must be aligned")
    if sizes[2] != 2:
        raise ValueError(f"one-hot targets need 2 output units, got {sizes[2]}")

    rows = [_with_bias(x, sizes[0]) for x in vectors]
    targets = [one_hot_target(label) for label in labels]
    model = init_mlp(sizes=sizes, eta=eta, seed=seed)
    w_hidden, w_out = _weight_lists(model)
    mse_log: list[float] = []
    for _ in range(epochs):
        total_error = 0.0
        for x, t in zip(rows, targets):
            hidden, outputs = _forward(w_hidden, w_out, x)
            error = 0.0
            for t_k, o_k in zip(t, outputs):
                diff = t_k - o_k
                error += diff * diff
            total_error += 0.5 * error
            out_deltas, hidden_deltas = _deltas(w_out, hidden, outputs, t)
            _update(w_hidden, w_out, eta, x, hidden, out_deltas, hidden_deltas)
        mse_log.append(total_error / len(rows))
    model.w_hidden[:] = w_hidden
    model.w_out[:] = w_out
    return model, mse_log


def predict_mlp(model: MlpModel, inputs: Sequence[float]) -> int:
    """Class of the larger output unit; ties resolve to class 0."""
    return _predict(*_weight_lists(model), _with_bias(inputs, model.sizes[0]))


def evaluate_mlp(
    model: MlpModel, vectors: Sequence[Sequence[float]], labels: Sequence[int]
) -> float:
    if not vectors:
        raise ValueError("cannot evaluate on an empty set")
    w_hidden, w_out = _weight_lists(model)
    n_in = model.sizes[0]
    correct = sum(
        1 for x, lab in zip(vectors, labels) if _predict(w_hidden, w_out, _with_bias(x, n_in)) == lab
    )
    return correct / len(vectors)


def write_model(model: MlpModel, path) -> None:
    payload = {
        "sizes": list(model.sizes),
        "eta": model.eta,
        "seed": model.seed,
        "w_hidden": model.w_hidden.tolist(),
        "w_out": model.w_out.tolist(),
    }
    _write_json(path, payload)


def read_model(path) -> MlpModel:
    payload = _read_json(path)
    return MlpModel(
        sizes=tuple(payload["sizes"]),
        w_hidden=np.array(payload["w_hidden"], dtype=np.float64),
        w_out=np.array(payload["w_out"], dtype=np.float64),
        eta=float(payload["eta"]),
        seed=int(payload["seed"]),
    )


def write_training_log(mse_log: Sequence[float], path) -> None:
    rows = ([epoch, repr(float(mse))] for epoch, mse in enumerate(mse_log, start=1))
    _write_rows(path, ["epoch", "mse"], rows)
