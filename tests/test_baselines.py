import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heartcbr.baselines import (
    MlpModel,
    TrapezoidalParams,
    TriangularParams,
    backprop_deltas,
    evaluate_mlp,
    forward,
    hidden_delta,
    init_mlp,
    one_hot_target,
    output_delta,
    sigmoid,
    train_mlp,
    trapezoidal_membership,
    triangular_membership,
    update_weights,
    write_model,
    write_training_log,
)
from heartcbr.cases import to_feature_vector, validate_case
from heartcbr.dataset import split_sequential
from heartcbr.scaling import fit_minmax, normalize
from heartcbr.synthetic import generate_rows

# --- membership functions -------------------------------------------------------


def test_triangular_peak_is_one():
    p = TriangularParams(0.0, 1.0, 2.0)
    assert triangular_membership(1.0, p) == 1.0


def test_triangular_zero_at_and_below_lower_limit():
    p = TriangularParams(0.0, 1.0, 2.0)
    assert triangular_membership(0.0, p) == 0.0
    assert triangular_membership(-3.0, p) == 0.0


def test_triangular_zero_at_and_above_upper_limit():
    p = TriangularParams(0.0, 1.0, 2.0)
    assert triangular_membership(2.0, p) == 0.0
    assert triangular_membership(5.0, p) == 0.0


def test_triangular_rising_edge_midpoint():
    p = TriangularParams(0.0, 1.0, 2.0)
    assert triangular_membership(0.5, p) == 0.5


def test_triangular_falling_edge():
    p = TriangularParams(0.0, 1.0, 2.0)
    assert triangular_membership(1.5, p) == 0.5


def test_triangular_params_must_be_ordered():
    with pytest.raises(ValueError):
        TriangularParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TriangularParams(0.0, 2.0, 1.0)


@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0.1, 5, allow_nan=False),
    st.floats(0.1, 5, allow_nan=False),
)
def test_triangular_membership_stays_in_unit_interval(x, a, left, right):
    p = TriangularParams(a, a + left, a + left + right)
    assert 0.0 <= triangular_membership(x, p) <= 1.0


def test_trapezoidal_plateau_is_one():
    p = TrapezoidalParams(0.0, 1.0, 2.0, 4.0)
    for x in (1.0, 1.5, 2.0):
        assert trapezoidal_membership(x, p) == 1.0


def test_trapezoidal_zero_outside_support():
    p = TrapezoidalParams(0.0, 1.0, 2.0, 4.0)
    assert trapezoidal_membership(-0.1, p) == 0.0
    assert trapezoidal_membership(4.1, p) == 0.0


def test_trapezoidal_falling_edge():
    p = TrapezoidalParams(0.0, 1.0, 2.0, 4.0)
    assert trapezoidal_membership(3.0, p) == 0.5


def test_trapezoidal_rising_edge_and_endpoints():
    p = TrapezoidalParams(0.0, 2.0, 3.0, 4.0)
    assert trapezoidal_membership(0.0, p) == 0.0
    assert trapezoidal_membership(1.0, p) == 0.5
    assert trapezoidal_membership(4.0, p) == 0.0


def test_trapezoidal_degenerate_edges_are_steps():
    left_step = TrapezoidalParams(0.0, 0.0, 1.0, 2.0)
    assert trapezoidal_membership(0.0, left_step) == 1.0
    assert trapezoidal_membership(-0.001, left_step) == 0.0
    right_step = TrapezoidalParams(0.0, 1.0, 2.0, 2.0)
    assert trapezoidal_membership(2.0, right_step) == 1.0
    assert trapezoidal_membership(2.001, right_step) == 0.0


def test_trapezoidal_params_must_be_ordered():
    with pytest.raises(ValueError):
        TrapezoidalParams(3.0, 2.0, 4.0, 5.0)
    with pytest.raises(ValueError):
        TrapezoidalParams(1.0, 1.0, 1.0, 1.0)


@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0, 3, allow_nan=False),
    st.floats(0, 3, allow_nan=False),
    st.floats(0.1, 3, allow_nan=False),
)
def test_trapezoidal_membership_stays_in_unit_interval(x, a, rise, flat, fall):
    p = TrapezoidalParams(a, a + rise, a + rise + flat, a + rise + flat + fall)
    assert 0.0 <= trapezoidal_membership(x, p) <= 1.0


# --- sigmoid ---------------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_at_log_three():
    assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0)
    assert 0.0 < sigmoid(-1000.0) or sigmoid(-1000.0) == 0.0


@given(st.floats(-30, 30, allow_nan=False))
def test_sigmoid_open_unit_interval(y):
    # float64 saturates to exactly 0.0 / 1.0 only beyond |y| ~ 37
    assert 0.0 < sigmoid(y) < 1.0


@given(st.floats(-500, 500, allow_nan=False))
def test_sigmoid_never_leaves_unit_interval(y):
    assert 0.0 <= sigmoid(y) <= 1.0


@given(st.floats(-30, 30), st.floats(-30, 30))
def test_sigmoid_quarter_lipschitz(y1, y2):
    assert abs(sigmoid(y1) - sigmoid(y2)) <= 0.25 * abs(y1 - y2) + 1e-15


# --- forward pass ----------------------------------------------------------------


def test_forward_zero_weights_gives_half_everywhere():
    model = init_mlp(sizes=(13, 3, 2), seed=0)
    model.w_hidden[:] = 0.0
    model.w_out[:] = 0.0
    hidden, outputs = forward(model, [0.3] * 13)
    assert np.all(hidden == 0.5)
    assert np.all(outputs == 0.5)


def test_forward_outputs_strictly_inside_unit_interval():
    model = init_mlp(seed=3)
    _, outputs = forward(model, [0.5] * 13)
    assert np.all(outputs > 0.0)
    assert np.all(outputs < 1.0)


def test_forward_matches_hand_computation_on_toy_network():
    model = init_mlp(sizes=(2, 2, 1), seed=0)
    model.w_hidden[:] = np.array([[0.1, 0.2, 0.05], [-0.3, 0.4, 0.0]])
    model.w_out[:] = np.array([[0.5, -0.25, 0.1]])
    x = (1.0, 2.0)
    hidden, outputs = forward(model, x)

    h1 = 1.0 / (1.0 + math.exp(-(0.1 * 1.0 + 0.2 * 2.0 + 0.05)))
    h2 = 1.0 / (1.0 + math.exp(-(-0.3 * 1.0 + 0.4 * 2.0 + 0.0)))
    o = 1.0 / (1.0 + math.exp(-(0.5 * h1 - 0.25 * h2 + 0.1)))
    assert hidden == pytest.approx([h1, h2], abs=1e-12)
    assert outputs == pytest.approx([o], abs=1e-12)


def test_forward_rejects_wrong_input_length():
    model = init_mlp(seed=0)
    with pytest.raises(ValueError):
        forward(model, [0.0] * 12)


# --- delta rules -----------------------------------------------------------------


def test_output_delta_examples():
    assert output_delta(0.5, 0.5) == 0.0
    assert output_delta(0.0, 1.0) == 0.0
    assert output_delta(1.0, 0.0) == 0.0
    assert output_delta(0.5, 1.0) == 0.125


def test_hidden_delta_examples():
    assert hidden_delta(0.5, [(2.0, 0.0), (1.0, 0.0)]) == 0.0
    assert hidden_delta(0.0, [(2.0, 0.125)]) == 0.0
    assert hidden_delta(1.0, [(2.0, 0.125)]) == 0.0
    assert hidden_delta(0.5, [(2.0, 0.125)]) == 0.0625


def test_backprop_deltas_match_scalar_rules():
    model = init_mlp(sizes=(3, 2, 2), seed=5)
    x = (0.2, -0.4, 0.9)
    t = one_hot_target(1)
    hidden, outputs = forward(model, x)
    out_deltas, hidden_deltas = backprop_deltas(model, hidden, outputs, t)
    for k in range(2):
        assert out_deltas[k] == pytest.approx(output_delta(outputs[k], t[k]), abs=1e-15)
    for h in range(2):
        downstream = [(model.w_out[k, h], out_deltas[k]) for k in range(2)]
        assert hidden_deltas[h] == pytest.approx(hidden_delta(hidden[h], downstream), abs=1e-15)


def test_forward_and_deltas_are_numpy_arrays_equal_to_the_scalar_rules():
    model = init_mlp(sizes=(3, 2, 2), seed=5)
    x = (0.2, -0.4, 0.9)
    t = one_hot_target(0)
    hidden, outputs = forward(model, x)
    out_deltas, hidden_deltas = backprop_deltas(model, hidden, outputs, t)
    for array in (hidden, outputs, out_deltas, hidden_deltas):
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.float64 and array.shape == (2,)

    def unit(weights, inputs):
        net = 0.0
        for w, v in zip(weights, inputs):  # index order, bias entry last
            net += w * v
        return sigmoid(net)

    w_hidden, w_out = model.w_hidden.tolist(), model.w_out.tolist()
    h = [unit(row, [*x, 1.0]) for row in w_hidden]
    o = [unit(row, [*h, 1.0]) for row in w_out]
    assert hidden.tolist() == h
    assert outputs.tolist() == o
    assert out_deltas.tolist() == [output_delta(o[k], t[k]) for k in range(2)]
    assert hidden_deltas.tolist() == [
        hidden_delta(h[j], [(w_out[k][j], out_deltas[k]) for k in range(2)]) for j in range(2)
    ]


def test_update_weights_rule():
    model = init_mlp(sizes=(1, 1, 1), eta=0.1, seed=0)
    model.w_hidden[:] = 0.0
    model.w_out[:] = 0.0
    update_weights(
        model,
        out_deltas=np.array([0.125]),
        hidden_deltas=np.array([0.0]),
        inputs=(1.0,),
        hidden=np.array([1.0]),
    )
    assert model.w_out[0, 0] == pytest.approx(0.0125)
    assert model.w_out[0, 1] == pytest.approx(0.0125)  # bias input is 1
    assert np.all(model.w_hidden == 0.0)


def test_update_weights_noop_cases():
    model = init_mlp(sizes=(2, 2, 1), eta=0.3, seed=1)
    before = (model.w_hidden.copy(), model.w_out.copy())
    update_weights(model, np.zeros(1), np.zeros(2), (0.5, 0.5), np.array([0.5, 0.5]))
    assert np.array_equal(model.w_hidden, before[0])
    assert np.array_equal(model.w_out, before[1])

    zero_eta = init_mlp(sizes=(2, 2, 1), eta=0.0, seed=1)
    before = (zero_eta.w_hidden.copy(), zero_eta.w_out.copy())
    update_weights(zero_eta, np.ones(1), np.ones(2), (0.5, 0.5), np.array([0.5, 0.5]))
    assert np.array_equal(zero_eta.w_hidden, before[0])
    assert np.array_equal(zero_eta.w_out, before[1])


def loss(model, x, t):
    _, outputs = forward(model, x)
    diff = np.asarray(t) - outputs
    return 0.5 * float(np.dot(diff, diff))


def analytic_gradients(model, x, t):
    hidden, outputs = forward(model, x)
    out_deltas, hidden_deltas = backprop_deltas(model, hidden, outputs, t)
    grad_out = -np.outer(out_deltas, np.append(hidden, 1.0))
    grad_hidden = -np.outer(hidden_deltas, np.append(np.asarray(x, dtype=float), 1.0))
    return grad_hidden, grad_out


def test_delta_rules_match_finite_differences():
    rng = np.random.default_rng(12)
    step = 1e-6
    for trial in range(10):
        sizes = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        model = init_mlp(sizes=sizes, seed=trial)
        x = tuple(rng.uniform(-1, 1, sizes[0]))
        t = tuple(rng.uniform(0, 1, sizes[2]))
        grad_hidden, grad_out = analytic_gradients(model, x, t)
        for grads, weights in ((grad_hidden, model.w_hidden), (grad_out, model.w_out)):
            for idx in np.ndindex(weights.shape):
                original = weights[idx]
                weights[idx] = original + step
                up = loss(model, x, t)
                weights[idx] = original - step
                down = loss(model, x, t)
                weights[idx] = original
                numeric = (up - down) / (2 * step)
                scale = max(1.0, abs(numeric), abs(grads[idx]))
                assert abs(numeric - grads[idx]) <= 1e-5 * scale


# --- training --------------------------------------------------------------------


XOR_X = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
XOR_Y = [0, 1, 1, 0]


def test_train_mlp_is_seed_deterministic():
    kwargs = dict(epochs=20, eta=0.2, seed=9, sizes=(2, 3, 2))
    model_a, log_a = train_mlp(XOR_X, XOR_Y, **kwargs)
    model_b, log_b = train_mlp(XOR_X, XOR_Y, **kwargs)
    assert np.array_equal(model_a.w_hidden, model_b.w_hidden)
    assert np.array_equal(model_a.w_out, model_b.w_out)
    assert log_a == log_b


def test_train_mlp_zero_eta_keeps_initial_weights():
    model, _ = train_mlp(XOR_X, XOR_Y, epochs=5, eta=0.0, seed=4, sizes=(2, 3, 2))
    fresh = init_mlp(sizes=(2, 3, 2), eta=0.0, seed=4)
    assert np.array_equal(model.w_hidden, fresh.w_hidden)
    assert np.array_equal(model.w_out, fresh.w_out)


def test_train_mlp_mse_non_increasing_early():
    _, log = train_mlp(XOR_X, XOR_Y, epochs=10, eta=0.1, seed=0, sizes=(2, 3, 2))
    for earlier, later in zip(log, log[1:]):
        assert later <= earlier + 1e-12


def test_train_mlp_validates_arguments():
    with pytest.raises(ValueError):
        train_mlp(XOR_X, XOR_Y, epochs=0)
    with pytest.raises(ValueError):
        train_mlp([], [], epochs=1)
    with pytest.raises(ValueError):
        train_mlp(XOR_X, XOR_Y[:-1], epochs=1)
    with pytest.raises(ValueError):
        train_mlp(XOR_X, XOR_Y, epochs=1, sizes=(2, 3, 1))


def test_train_and_evaluate_reject_a_vector_of_the_wrong_length():
    vectors = [(0.0, 0.0), (0.0, 1.0, 0.5), (1.0, 0.0)]
    with pytest.raises(ValueError, match="expected 2 inputs"):
        train_mlp(vectors, [0, 1, 1], epochs=1, sizes=(2, 3, 2))
    model = init_mlp(sizes=(2, 3, 2), seed=0)
    with pytest.raises(ValueError, match="expected 2 inputs"):
        evaluate_mlp(model, vectors, [0, 1, 1])


def test_evaluate_mlp_ties_resolve_to_class_zero():
    model = init_mlp(sizes=(2, 2, 2), seed=0)
    model.w_hidden[:] = 0.0
    model.w_out[:] = 0.0
    assert evaluate_mlp(model, [(0.0, 0.0)], [0]) == 1.0


def test_evaluate_mlp_counts_matches():
    model = init_mlp(sizes=(2, 2, 2), seed=0)
    # The class of the larger output unit, 0 on a tie.
    labels = [int(outputs[1] > outputs[0]) for outputs in (forward(model, x)[1] for x in XOR_X)]
    assert evaluate_mlp(model, XOR_X, labels) == 1.0
    flipped = [1 - lab for lab in labels]
    assert evaluate_mlp(model, XOR_X, flipped) == 0.0


@pytest.mark.parametrize("labels", [[0, 0], [0] * 7], ids=["fewer", "more"])
def test_evaluate_mlp_rejects_labels_not_aligned_with_the_vectors(labels):
    model = init_mlp(sizes=(2, 2, 2), seed=0)
    with pytest.raises(ValueError, match=f"^length mismatch: 4 predictions vs {len(labels)} truths$"):
        evaluate_mlp(model, XOR_X, labels)


def test_one_hot_target():
    assert one_hot_target(0) == (1.0, 0.0)
    assert one_hot_target(1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        one_hot_target(2)


def test_model_serialization_round_trip(tmp_path):
    model, log = train_mlp(XOR_X, XOR_Y, epochs=3, eta=0.1, seed=2, sizes=(2, 3, 2))
    path = tmp_path / "model.json"
    write_model(model, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert tuple(loaded["sizes"]) == model.sizes
    assert np.array_equal(loaded["w_hidden"], model.w_hidden)
    assert np.array_equal(loaded["w_out"], model.w_out)

    log_path = tmp_path / "log.csv"
    write_training_log(log, log_path)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "epoch,mse"
    assert len(lines) == 4


def test_model_shape_validation():
    with pytest.raises(ValueError):
        MlpModel(sizes=(2, 2, 1), w_hidden=np.zeros((2, 2)), w_out=np.zeros((1, 3)), eta=0.1, seed=0)
    with pytest.raises(ValueError):
        MlpModel(sizes=(2, 2, 1), w_hidden=np.zeros((2, 3)), w_out=np.zeros((1, 3)), eta=-0.1, seed=0)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_non_finite_learning_rate_is_rejected(eta):
    # A nan or inf eta would train nan weights.
    with pytest.raises(ValueError, match="learning rate"):
        init_mlp(eta=eta)
    with pytest.raises(ValueError, match="learning rate"):
        train_mlp([[0.0] * 13], [1], epochs=1, eta=eta)


def test_default_architecture_is_13_3_2():
    model = init_mlp(seed=0)
    assert model.sizes == (13, 3, 2)
    assert model.w_hidden.shape == (3, 14)
    assert model.w_out.shape == (2, 4)


# --- regression pin --------------------------------------------------------------

# train_mlp(epochs=2, eta=0.1, seed=7) on synthetic seed 7 (1,025 rows, no
# duplicates), first 3/5 for training, min-max scaled on the training rows.
# Recorded from the earlier numpy implementation; the index-order scalar sums
# differ from its BLAS sums only in the last bits.
PINNED_W_HIDDEN = [
    [
        0.024075724868968154, 0.0038230363928202548, 0.006339937340312461,
        -0.04262095623869304, -0.03775105273306705, 0.008367058007276391,
        -0.07970310899704089, -0.06251056720374024, 0.14823262906990795,
        0.015991991514959805, -0.026386183402996307, -0.027833450865263062,
        0.002972206467126463, -0.02129165275277007,
    ],
    [
        0.010838101698772269, -0.03129932288304944, 0.02782339221292421,
        0.01365235516828669, -0.006165674059922647, 0.020371445530743198,
        -0.058857731930415165, -0.12718349690330397, 0.1255773001566124,
        -0.0277982912849861, -0.053870276630134634, -0.00515499327209208,
        0.022061548004169082, 0.02434717942030468,
    ],
    [
        0.020917895693598525, -0.03234376100641752, -0.02012543874112597,
        -0.03927030939447074, -0.0659603173690318, -0.055907764630686536,
        -0.008202744141336638, -0.11204189048371826, 0.08464830066633268,
        -0.03521515295470781, 0.025325940633878788, -0.0413016004762538,
        -0.002665803515070953, 0.02101824474788389,
    ],
]
PINNED_W_OUT = [
    [
        0.11771467379092873, 0.15576118187381593, 0.12050389065682243,
        0.17499946735476202,
    ],
    [
        -0.1772076534485632, -0.13686027713042337, -0.12497299722870536,
        -0.15300971988692239,
    ],
]
PINNED_MSE_LOG = [0.24273311888210009, 0.24173528896247048]
PINNED_CORRECT = 243  # of 410 test rows


def scaled_synthetic_split():
    cases = [validate_case(row)[0] for row in generate_rows(1025, seed=7, duplicate_fraction=0.0)]
    split = split_sequential(cases, Fraction(3, 5))
    params = fit_minmax(split.train)
    train = split.train.cases()
    return (
        [normalize(to_feature_vector(c), params) for c in train],
        [c.target for c in train],
        [normalize(to_feature_vector(c), params) for c in split.test],
        [c.target for c in split.test],
    )


def test_train_mlp_matches_recorded_weights_log_and_accuracy():
    train_v, train_l, test_v, test_l = scaled_synthetic_split()
    model, log = train_mlp(train_v, train_l, epochs=2, eta=0.1, seed=7)
    assert np.abs(model.w_hidden - np.array(PINNED_W_HIDDEN)).max() <= 1e-12
    assert np.abs(model.w_out - np.array(PINNED_W_OUT)).max() <= 1e-12
    assert len(log) == 2
    assert all(abs(got - want) <= 1e-12 for got, want in zip(log, PINNED_MSE_LOG))
    assert len(test_v) == 410
    assert evaluate_mlp(model, test_v, test_l) == PINNED_CORRECT / 410
