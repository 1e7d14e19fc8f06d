"""The stock network's forward pass against hand-written loops, activation
laws, weight initialization, and serialization."""

import json

import numpy as np
import pytest

from aadetect.aadrnn import (LAYERS, AadrnnModel, activation, init_hidden_weights,
                             model_from_json, model_to_json)
from aadetect.metrics import DimensionError


def hand_forward(model, x):
    """Reconstruction computed with nothing but Python loops and scalar math."""
    h = list(map(float, x))
    for w in model.hidden_weights:
        nxt = []
        for i in range(w.shape[0]):
            pre = sum(w[i, j] * h[j] for j in range(w.shape[1]))
            pre = max(pre, 0.0)
            nxt.append(pre / (1.0 + pre))
        h = nxt
    out = []
    for j in range(model.readout.shape[1]):
        out.append(sum(h[i] * model.readout[i, j] for i in range(len(h))))
    return np.array(out)


def random_model(rng, dim=None):
    """A stock model of a width from 1 to 20 and a random seed, with a random readout."""
    dim = dim or int(rng.choice([1, 2, 3, 5, 6, 20]))
    model = AadrnnModel.initial(dim, int(rng.integers(10_000)))
    return model.with_readout(rng.normal(0, 1, size=(dim, dim)))


# -- activation -----------------------------------------------------------------


def test_activation_fixed_points():
    assert activation(np.array([0.0]))[0] == 0.0
    assert activation(np.array([1.0]), 1.0, 1.0)[0] == 0.5
    assert activation(np.array([-7.0]))[0] == 0.0  # clipped before the rational map


def test_activation_monotone_and_bounded():
    rng = np.random.default_rng(31)
    for case in range(100):
        r, c = float(rng.uniform(0.2, 3.0)), float(rng.uniform(1.0, 3.0))
        a, b = sorted(rng.uniform(0, 1e6, size=2))
        ya, yb = activation(np.array([a, b]), r, c)
        assert ya <= yb
        assert 0.0 <= ya < 1.0 and 0.0 <= yb < 1.0
        assert yb < 1.0 / c + 1e-15


def test_activation_bound_is_general_one_over_c():
    y = activation(np.array([1e12]), 0.5, 0.25)[0]  # c < 1: bound is 1/c = 4, not 1
    assert 3.9 < y < 4.0


# -- geometry and weights ------------------------------------------------------------


def test_initial_model_is_the_stock_geometry():
    for dim, seed in ((1, 0), (3, 5), (6, 17), (20, 2**40)):
        model = AadrnnModel.initial(dim, seed)
        assert LAYERS == 3 and len(model.hidden_weights) == LAYERS
        assert all(w.shape == (dim, dim) for w in model.hidden_weights)
        assert model.input_dim == dim and model.seed == seed
        assert np.array_equal(model.readout, np.zeros((dim, dim)))
        assert not model.readout.flags.writeable


def test_hidden_weights_distribution_and_determinism():
    for dim, seed in ((4, 17), (3, 0), (20, 412)):
        w1, w2 = init_hidden_weights(dim, seed), init_hidden_weights(dim, seed)
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))
        # Layer after layer from one generator: the draws every saved state holds.
        rng = np.random.default_rng(seed)
        for w in w1:
            assert np.array_equal(w, rng.uniform(0.0, 1.0 / dim, size=(dim, dim)))
            assert np.all(w >= 0) and np.all(w < 1 / dim)
            assert not w.flags.writeable
        other = init_hidden_weights(dim, seed + 1)
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
    # zeta has slope at most 1, so each first-layer entry moves by at most
    # max_i sum_j |W1[i,j]| * delta under an inf-norm input perturbation, and
    # each later layer multiplies that bound by its own largest row sum.
    rng = np.random.default_rng(53)
    for case in range(100):
        model = random_model(rng)
        w1 = model.hidden_weights[0]
        x = rng.uniform(0, 5, size=model.input_dim)
        delta = float(rng.uniform(0, 1))
        x2 = x + rng.uniform(-delta, delta, size=model.input_dim)
        first = np.abs(activation(x @ w1.T) - activation(x2 @ w1.T))
        bound = np.abs(w1).sum(axis=1).max() * delta
        assert np.max(first) <= bound + 1e-12
        for w in model.hidden_weights[1:]:
            bound *= np.abs(w).sum(axis=1).max()
        assert np.max(np.abs(model.hidden(x) - model.hidden(x2))) <= bound + 1e-12


def test_hidden_accepts_matrix_of_rows():
    rng = np.random.default_rng(59)
    model = random_model(rng, dim=3)
    rows = rng.uniform(0, 2, size=(5, 3))
    batch = model.hidden(rows)
    for i in range(5):
        assert np.allclose(batch[i], model.hidden(rows[i]), rtol=1e-12)


def test_forward_input_validation():
    model = AadrnnModel.initial(3, 0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros(4))
    with pytest.raises(ValueError):
        model.forward(np.array([1.0, np.nan, 0.0]))


def test_with_readout_shape_check_and_immutability():
    model = AadrnnModel.initial(3, 9)
    for shape in ((3, 4), (4, 3), (3,)):
        with pytest.raises(DimensionError):
            model.with_readout(np.zeros(shape))
    readout = np.ones((3, 3))
    fitted = model.with_readout(readout)
    assert not fitted.readout.flags.writeable and readout.flags.writeable  # a copy
    assert fitted.hidden_weights is model.hidden_weights  # the same geometry, shared
    assert (fitted.input_dim, fitted.seed) == (3, 9)


# -- serialization --------------------------------------------------------------------


def test_model_json_round_trip_is_exact():
    rng = np.random.default_rng(61)
    for case in range(20):
        model = random_model(rng)
        doc = json.loads(json.dumps(model_to_json(model)))
        back = model_from_json(doc)
        assert back.input_dim == model.input_dim and back.seed == model.seed
        assert (doc["L"], doc["act"]) == (3, {"r": 1.0, "c": 1.0})
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.hidden_weights, model.hidden_weights))
        assert np.array_equal(back.readout, model.readout)
        x = rng.uniform(0, 2, size=model.input_dim)
        assert np.array_equal(back.forward(x), model.forward(x))


def test_model_json_layer_count_mismatch():
    model = AadrnnModel.initial(3, 0)
    doc = model_to_json(model)
    doc["L"] = 5
    with pytest.raises(ValueError):
        model_from_json(doc)


def test_model_json_rejects_every_network_but_the_stock_one():
    doc = json.loads(json.dumps(model_to_json(AadrnnModel.initial(3, 1))))
    weights = doc["hidden_weights"]
    wide = [row + [0.0] for row in weights[0]]  # (M, M + 1)
    for bad, error in [
            (dict(doc, L=2), r"L=2: only the stock 3-layer network"),
            (dict(doc, L=2, hidden_weights=weights[:2]), r"L=2"),
            (dict(doc, act={"r": 2.0, "c": 1.0}), r"only the stock activation r=1, c=1"),
            (dict(doc, act={"r": 1.0, "c": 1.0, "k": 1.0}), r"only the stock activation"),
            (dict(doc, hidden_weights=weights[:2]), r"2 hidden weights, expected L=3"),
            (dict(doc, hidden_weights=weights + weights[:1]), r"4 hidden weights"),
            (dict(doc, hidden_weights=[wide] + weights[1:]),
             r"hidden weight 0 has shape \(3, 4\), expected \(3, 3\)"),
            (dict(doc, hidden_weights=weights[:2] + [weights[2][:2]]),
             r"hidden weight 2 has shape \(2, 3\)"),
            (dict(doc, readout=[row + [0.0] for row in doc["readout"]]),
             r"readout has shape \(3, 4\)"),
            (dict(doc, M=4), r"hidden weight 0 has shape \(3, 3\), expected \(4, 4\)")]:
        with pytest.raises(ValueError, match=error):
            model_from_json(bad)
    assert model_from_json(dict(doc, act={"c": 1, "r": 1})).input_dim == 3  # ints are fine
