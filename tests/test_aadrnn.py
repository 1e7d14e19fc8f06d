"""Random-network forward pass against hand-written loops, activation laws,
weight initialization, and serialization."""

import json

import numpy as np
import pytest

from aadetect.aadrnn import (ActivationParams, AadrnnModel, AadrnnShape,
                             activation, init_hidden_weights, model_from_json,
                             model_to_json)
from aadetect.metrics import DimensionError


def hand_forward(model, x):
    """Reconstruction computed with nothing but Python loops and scalar math."""
    h = list(map(float, x))
    for w in model.hidden_weights:
        nxt = []
        for i in range(w.shape[0]):
            pre = sum(w[i, j] * h[j] for j in range(w.shape[1]))
            pre = max(pre, 0.0)
            nxt.append(pre / (model.act.r + model.act.c * pre))
        h = nxt
    out = []
    for j in range(model.readout.shape[1]):
        out.append(sum(h[i] * model.readout[i, j] for i in range(len(h))))
    return np.array(out)


def random_model(rng, dim=None, layers=None):
    dim = dim or int(rng.integers(2, 6))
    layers = layers or int(rng.integers(1, 4))
    act = ActivationParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 2.0)))
    shape = AadrnnShape(dim, (dim,) * layers, act, seed=int(rng.integers(10_000)))
    model = AadrnnModel.initial(shape)
    return model.with_readout(rng.normal(0, 1, size=(dim, dim)))


# -- activation -----------------------------------------------------------------


def test_activation_fixed_points():
    assert activation(np.array([0.0]))[0] == 0.0
    assert activation(np.array([1.0]), ActivationParams(1.0, 1.0))[0] == 0.5
    assert activation(np.array([-7.0]))[0] == 0.0  # clipped before the rational map


def test_activation_monotone_and_bounded():
    rng = np.random.default_rng(31)
    for case in range(100):
        params = ActivationParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(1.0, 3.0)))
        a, b = sorted(rng.uniform(0, 1e6, size=2))
        ya, yb = activation(np.array([a, b]), params)
        assert ya <= yb
        assert 0.0 <= ya < 1.0 and 0.0 <= yb < 1.0
        assert yb < 1.0 / params.c + 1e-15


def test_activation_bound_is_general_one_over_c():
    params = ActivationParams(0.5, 0.25)  # c < 1: bound is 1/c = 4, not 1
    y = activation(np.array([1e12]), params)[0]
    assert 3.9 < y < 4.0


def test_activation_params_must_be_positive():
    with pytest.raises(ValueError):
        ActivationParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ActivationParams(1.0, -1.0)


# -- shapes and weights ------------------------------------------------------------


def test_shape_validation_and_default_geometry():
    with pytest.raises(ValueError):
        AadrnnShape(0, (3,))
    with pytest.raises(ValueError):
        AadrnnShape(3, ())
    with pytest.raises(ValueError):
        AadrnnShape(3, (3, 0))
    shape = AadrnnShape.default(6)
    assert shape.hidden_widths == (6, 6, 6)


def test_hidden_weights_distribution_and_determinism():
    shape = AadrnnShape(4, (8, 4), seed=17)
    w1, w2 = init_hidden_weights(shape), init_hidden_weights(shape)
    assert all(np.array_equal(a, b) for a, b in zip(w1, w2))
    assert w1[0].shape == (8, 4) and w1[1].shape == (4, 8)
    assert np.all(w1[0] >= 0) and np.all(w1[0] < 1 / 4)
    assert np.all(w1[1] >= 0) and np.all(w1[1] < 1 / 8)
    assert not w1[0].flags.writeable
    other = init_hidden_weights(AadrnnShape(4, (8, 4), seed=18))
    assert not np.array_equal(w1[0], other[0])


# -- forward pass --------------------------------------------------------------------


def test_forward_matches_hand_loops():
    rng = np.random.default_rng(41)
    for case in range(30):
        model = random_model(rng)
        x = rng.uniform(0, 3, size=model.input_dim)
        assert np.allclose(model.forward(x), hand_forward(model, x), rtol=1e-12, atol=1e-12)


def test_zero_input_reconstructs_to_zero():
    rng = np.random.default_rng(43)
    for case in range(20):
        model = random_model(rng)
        assert np.array_equal(model.forward(np.zeros(model.input_dim)),
                              np.zeros(model.input_dim))


def test_hidden_activations_in_unit_interval():
    rng = np.random.default_rng(47)
    for case in range(100):
        model = random_model(rng)
        x = rng.uniform(0, 100, size=model.input_dim)
        h = model.hidden(x)
        assert np.all(h >= 0.0) and np.all(h < 1.0)


def test_first_layer_perturbation_bound():
    # zeta has slope at most 1/r, so each first-layer entry moves by at most
    # max_i sum_j |W1[i,j]| * delta / r under an inf-norm input perturbation.
    rng = np.random.default_rng(53)
    for case in range(100):
        model = random_model(rng, layers=1)
        w1 = model.hidden_weights[0]
        x = rng.uniform(0, 5, size=model.input_dim)
        delta = float(rng.uniform(0, 1))
        x2 = x + rng.uniform(-delta, delta, size=model.input_dim)
        h1, h2 = model.hidden(x), model.hidden(x2)
        bound = np.abs(w1).sum(axis=1).max() * delta / model.act.r
        assert np.max(np.abs(h1 - h2)) <= bound + 1e-12


def test_hidden_accepts_matrix_of_rows():
    rng = np.random.default_rng(59)
    model = random_model(rng, dim=3, layers=2)
    rows = rng.uniform(0, 2, size=(5, 3))
    batch = model.hidden(rows)
    for i in range(5):
        assert np.allclose(batch[i], model.hidden(rows[i]), rtol=1e-12)


def test_forward_input_validation():
    model = AadrnnModel.initial(AadrnnShape.default(3))
    with pytest.raises(DimensionError):
        model.forward(np.zeros(4))
    with pytest.raises(ValueError):
        model.forward(np.array([1.0, np.nan, 0.0]))


def test_with_readout_shape_check_and_immutability():
    model = AadrnnModel.initial(AadrnnShape(3, (5, 4)))
    assert model.hidden_dim == 4 and model.layers == 2
    with pytest.raises(DimensionError):
        model.with_readout(np.zeros((3, 3)))
    fitted = model.with_readout(np.ones((4, 3)))
    assert not fitted.readout.flags.writeable
    assert fitted.hidden_weights is model.hidden_weights  # the same geometry, shared
    assert (fitted.act, fitted.input_dim, fitted.seed) == (model.act, 3, model.seed)


# -- serialization --------------------------------------------------------------------


def test_model_json_round_trip_is_exact():
    rng = np.random.default_rng(61)
    for case in range(20):
        model = random_model(rng)
        doc = json.loads(json.dumps(model_to_json(model)))
        back = model_from_json(doc)
        assert back.input_dim == model.input_dim and back.seed == model.seed
        assert back.act == model.act
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.hidden_weights, model.hidden_weights))
        assert np.array_equal(back.readout, model.readout)
        x = rng.uniform(0, 2, size=model.input_dim)
        assert np.array_equal(back.forward(x), model.forward(x))


def test_model_json_layer_count_mismatch():
    model = AadrnnModel.initial(AadrnnShape.default(3))
    doc = model_to_json(model)
    doc["L"] = 5
    with pytest.raises(ValueError):
        model_from_json(doc)
