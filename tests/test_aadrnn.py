"""The stock network's forward pass against hand-written loops, activation
laws and weight initialization. A model's state-file form is checked with
the detector's (``tests/test_detector.py``)."""

import numpy as np
import pytest

from aadetect.aadrnn import LAYERS, AadrnnModel, init_hidden_weights
from aadetect.metrics import DimensionError
from oracles import hand_forward, layer_by_layer_hidden, zeta


def random_model(rng, dim=None):
    """A stock model of a width from 1 to 20 and a random seed, with a random readout."""
    dim = dim or int(rng.choice([1, 2, 3, 5, 6, 20]))
    model = AadrnnModel.initial(dim, int(rng.integers(10_000)))
    return model.with_readout(rng.normal(0, 1, size=(dim, dim)))


# -- activation -----------------------------------------------------------------


def zeta_layer(dim):
    """A one-layer network whose only weight is the identity: its ``hidden`` is
    the package's zeta on its own."""
    return AadrnnModel((np.eye(dim),), np.zeros((dim, dim)), 0)


def test_activation_fixed_points():
    v = np.array([0.0, 1.0, -7.0])  # -7 is clipped to 0 before the rational map
    assert zeta_layer(3).hidden(v).tolist() == zeta(v).tolist() == [0.0, 0.5, 0.0]


def test_activation_monotone_and_bounded():
    rng = np.random.default_rng(31)
    layer = zeta_layer(2)
    for case in range(100):
        a, b = sorted(rng.uniform(0, 1e6, size=2))
        ya, yb = layer.hidden(np.array([a, b]))
        assert 0.0 <= ya <= yb < 1.0
        assert [ya, yb] == zeta([a, b]).tolist()
        # The stock network's hidden outputs inherit the laws: nonnegative
        # weights keep them monotone in each input, and below 1.
        model = random_model(rng)
        x = rng.uniform(0, 1e6, size=model.input_dim)
        lo, hi = model.hidden(x), model.hidden(x + rng.uniform(0, 1e6, size=model.input_dim))
        assert np.all(0.0 <= lo) and np.all(lo <= hi) and np.all(hi < 1.0)
        assert np.array_equal(lo, layer_by_layer_hidden(model, x))
        assert np.array_equal(model.hidden(-x), np.zeros(model.input_dim))


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


@pytest.mark.parametrize("dim", [3, 6, 20])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**40, 2**64 - 1, 2**70, 2**130])
def test_hidden_weights_equal_numpys_pcg64_draws(seed, dim):
    # The package computes SeedSequence and PCG64 itself, without numpy.random;
    # 2**64 - 1, 2**70 and 2**130 are 2, 3 and 5 entropy words: past 4 words, the
    # rest is mixed into the pool one word at a time.
    rng = np.random.default_rng(seed)
    for w in init_hidden_weights(dim, seed):
        expected = rng.uniform(0.0, 1.0 / dim, size=(dim, dim))
        assert w.dtype == expected.dtype and w.tobytes() == expected.tobytes()


def test_hidden_weights_reject_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        init_hidden_weights(3, -1)


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
        first = np.abs(zeta(x @ w1.T) - zeta(x2 @ w1.T))
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

