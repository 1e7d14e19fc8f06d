"""Readout fitting against a closed-form ridge oracle, corruption laws, and the
batch/incremental equivalence."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aadetect import training
from aadetect.aadrnn import AadrnnModel
from aadetect.config import TrainSection, config_from_dict
from aadetect.detector import salt_for_address
from aadetect.metrics import DimensionError
from aadetect.training import (SufficientStats, TrainingError, corrupt, fit_batch_with_stats,
                               noise_rng, solve_readout, update_incremental)
from oracles import (layer_by_layer_hidden, oracle_noise, oracle_readout,
                     per_row_accumulate_pairs, per_row_corrupt_window)

def random_rows(rng, n, dim):
    return rng.uniform(0.0, 2.0, size=(n, dim))


# -- corruption -------------------------------------------------------------------


def test_corrupt_sigma_zero_is_clipped_identity():
    x = np.array([0.5, -0.25, 2.0])
    # No noise is drawn at sigma 0.
    with mock.patch.object(training.NoiseStream, "normal", side_effect=AssertionError):
        out = corrupt(x, 0.0, noise_rng(0, 0))
    assert np.array_equal(out, [0.5, 0.0, 2.0])


def test_corrupt_output_is_nonnegative():
    rng = np.random.default_rng(1)
    for case in range(100):
        x = rng.uniform(-1, 1, size=5)
        assert np.all(corrupt(x, 0.5, noise_rng(1, case)) >= 0.0)


def test_corrupt_mean_is_centered_away_from_the_clip():
    # At x = 1 with sigma = 0.1 the clip at zero is a 10-sigma event, so the
    # empirical mean perturbation over many rows stays within +/- 0.01.
    draws = corrupt(np.ones((20_000, 1)), 0.1, noise_rng(2, 0))[:, 0] - 1.0
    assert abs(draws.mean()) < 0.01


def test_corrupt_rejects_non_finite():
    with pytest.raises(ValueError):
        corrupt(np.array([np.inf]), 0.1, noise_rng(0, 0))


def test_noise_rng_is_keyed_by_seed_index_and_salt():
    a = noise_rng(7, 3).normal(1.0, (4,))
    assert np.array_equal(a, noise_rng(7, 3).normal(1.0, (4,)))
    assert not np.array_equal(a, noise_rng(7, 4).normal(1.0, (4,)))
    assert not np.array_equal(a, noise_rng(8, 3).normal(1.0, (4,)))
    assert not np.array_equal(a, noise_rng(7, 3, salt=1).normal(1.0, (4,)))


# -- keyed noise: a chunk's draw is the rows' draws, value by value the oracle's -------


@pytest.mark.parametrize("salt", [None, 0, salt_for_address("10.0.0.3")])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**40, 2**70])
def test_window_noise_equals_per_row_noise_rng(seed, salt):
    # A window's draw from the stream at its first row equals each row's draw
    # from the stream at that row, at any start and width.
    for start in (0, 1, 2**32 - 3):
        for width in (3, 6, 20):
            expected = np.array([noise_rng(seed, start + j, salt).normal(0.25, (width,))
                                 for j in range(300)])
            for n_rows in (1, 255, 300):
                got = noise_rng(seed, start, salt).normal(0.25, (n_rows, width))
                assert got.shape == (n_rows, width)
                assert np.array_equal(got, expected[:n_rows]), (start, width, n_rows)
    row = noise_rng(seed, 2**32 - 3, salt).normal(0.25, (3,))
    assert row.tolist() == [oracle_noise(seed, salt, 2**32 - 3, j, 3, 0.25) for j in range(3)]


def test_window_noise_rejects_a_negative_seed_as_noise_rng_does():
    with pytest.raises(ValueError):
        noise_rng(-1, 0)
    with pytest.raises(ValueError):
        noise_rng(0, 0, salt=-1)
    with pytest.raises(ValueError):
        noise_rng(0, -1)
    with pytest.raises(ValueError):  # the noise is keyed by the model's seed
        fit_batch_with_stats(AadrnnModel.initial(3, 1)._replace(seed=-1), np.ones((5, 3)),
                             TrainSection())


def test_corrupt_window_equals_per_row_corrupt():
    X = random_rows(np.random.default_rng(5), 300, 4) - 0.5  # some rows clip
    cfg = TrainSection(noise_sigma=0.2, seed=11)
    for salt in (None, 99):
        window = corrupt(X, cfg.noise_sigma, noise_rng(cfg.seed, 2**32 - 100, salt))
        assert np.array_equal(window, per_row_corrupt_window(X, 2**32 - 100, cfg, salt))
    identity = corrupt(X, 0.0, noise_rng(11, 0))
    assert np.array_equal(identity, np.maximum(X, 0.0))


@given(seed=st.integers(0, 2**66), salt=st.sampled_from([None, 0, 2**32 - 1]),
       index=st.integers(0, 2**40), width=st.integers(1, 20), rows=st.integers(1, 3),
       sigma=st.sampled_from([0.1, 0.25, 1.0, 3e-7]))
def test_noise_equals_the_per_value_oracle(seed, salt, index, width, rows, sigma):
    got = noise_rng(seed, index, salt).normal(sigma, (rows, width))
    expected = [[oracle_noise(seed, salt, index + i, j, width, sigma) for j in range(width)]
                for i in range(rows)]
    assert got.tolist() == expected


def test_noise_moments_over_30000_rows_of_20():
    sigma = 0.1
    values = noise_rng(5, 0).normal(sigma, (30_000, 20))
    assert abs(values.mean()) < 0.01 * sigma
    assert abs(values.std() - sigma) < 0.01 * sigma
    assert np.abs(values).max() <= 6 * sigma


def test_training_draws_noise_once_per_fold_chunk_through_the_module_attributes(monkeypatch):
    # The benchmark's tracer times training.noise_rng and training.corrupt by
    # replacing them on the module; the fold must call them there: noise_rng once a
    # fold, for its key, and corrupt once a chunk.
    calls = {"noise_rng": 0, "corrupt": 0}

    def counted(name):
        original = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    model = AadrnnModel.initial(4, 3)
    X = random_rows(np.random.default_rng(7), 600, 4)
    cfg = TrainSection(seed=2)
    expected = fit_batch_with_stats(model, X, cfg)[0]
    for name in calls:
        monkeypatch.setattr(training, name, counted(name))
    stats = fit_batch_with_stats(model, X, cfg)[0]  # chunks of 256, 256 and 88 rows
    assert calls == {"noise_rng": 1, "corrupt": 3}
    assert np.array_equal(stats.G, expected.G) and np.array_equal(stats.C, expected.C)
    update_incremental(stats, X[:257], model, cfg)
    assert calls == {"noise_rng": 2, "corrupt": 5}


# -- closed-form oracle ---------------------------------------------------------------


def test_fit_batch_matches_closed_form_oracle():
    rng = np.random.default_rng(11)
    for case, dim in enumerate((1, 2, 3, 4, 6, 2, 3, 4, 6, 8)):
        initial = AadrnnModel.initial(dim, int(rng.integers(1000)))
        cfg = TrainSection(noise_sigma=0.1, ridge_lambda=1e-4, seed=int(rng.integers(1000)))
        X = random_rows(rng, int(rng.integers(5, 30)), dim)
        salt = int(rng.integers(1 << 16)) if case % 2 else None
        model = fit_batch_with_stats(initial, X, cfg, salt)[1]
        expected = oracle_readout(initial, X, cfg, salt)
        assert np.allclose(model.readout, expected, rtol=1e-9, atol=1e-11)


def test_constant_rows_become_a_near_fixed_point():
    # Training on identical rows with no noise and a tiny ridge reproduces the
    # row almost exactly.
    x_star = np.array([0.6, 0.3, 0.9])
    X = np.tile(x_star, (50, 1))
    cfg = TrainSection(noise_sigma=0.0, ridge_lambda=1e-8)
    model = fit_batch_with_stats(AadrnnModel.initial(3, 5), X, cfg)[1]
    assert np.max(np.abs(model.forward(x_star) - x_star)) <= 1e-4


def test_all_zero_window_with_no_noise_yields_zero_readout():
    cfg = TrainSection(noise_sigma=0.0, ridge_lambda=1e-4)
    model = fit_batch_with_stats(AadrnnModel.initial(3, 0), np.zeros((10, 3)), cfg)[1]
    assert np.array_equal(model.readout, np.zeros((3, 3)))


# -- sufficient statistics ---------------------------------------------------------------


def test_batch_equals_incremental_over_random_partitions():
    rng = np.random.default_rng(13)
    cfg = TrainSection(noise_sigma=0.1, ridge_lambda=1e-4, seed=3)
    for dim in (3, 6, 20):
        initial = AadrnnModel.initial(dim, 2)
        X = random_rows(rng, 1500, dim)
        batch_stats, batch_model = fit_batch_with_stats(initial, X, cfg)
        # Window sizes on both sides of the fold's chunk of rows, then random cuts.
        partitions = [np.cumsum([1, 7, 511, 513])]
        for case in range(5):
            partitions.append(np.sort(rng.choice(np.arange(1, len(X)),
                                                 size=int(rng.integers(1, 12)), replace=False)))
        for cuts in partitions:
            stats, model = SufficientStats.empty(dim), initial
            for chunk in np.split(X, cuts):
                stats, model = update_incremental(stats, chunk, model, cfg)
            assert stats.n == batch_stats.n == 1500
            assert np.array_equal(model.readout, batch_model.readout)
            assert np.array_equal(stats.G, batch_stats.G)
            assert np.array_equal(stats.C, batch_stats.C)


def test_noise_is_keyed_to_global_row_index_not_window_position():
    # Splitting after row k must corrupt row k+1 identically to the batch fit;
    # a window-local index would break this.
    initial = AadrnnModel.initial(2, 9)
    cfg = TrainSection(noise_sigma=0.3, ridge_lambda=1e-4, seed=1)
    X = random_rows(np.random.default_rng(17), 6, 2)
    whole = fit_batch_with_stats(initial, X, cfg)[1]
    stats, model = SufficientStats.empty(2), initial
    stats, model = update_incremental(stats, X[:1], model, cfg)
    stats, model = update_incremental(stats, X[1:], model, cfg)
    assert np.array_equal(model.readout, whole.readout)


def test_the_noise_is_keyed_by_the_models_seed_not_by_train_seed():
    # A resumed run refits with the noise of the seed its network was drawn
    # from, whatever the replay's train.seed: train.seed only draws a network.
    model = AadrnnModel.initial(3, 5)
    X = random_rows(np.random.default_rng(19), 40, 3)
    expected = per_row_accumulate_pairs(SufficientStats.empty(3), per_row_corrupt_window(
        X, 0, TrainSection(seed=5), None), X, model)
    for seed in (0, 5, 6):
        stats = fit_batch_with_stats(model, X, TrainSection(seed=seed))[0]
        assert np.array_equal(stats.G, expected.G) and np.array_equal(stats.C, expected.C)


@pytest.mark.parametrize("dim", [3, 6, 20])
def test_stacked_hidden_equals_per_row_hidden(dim):
    # The chunked fold relies on a stacked (n, 1, M) forward doing one
    # matrix-vector product per row, as the per-row call does; a 2-D (n, M)
    # gemm blocks differently and is not bit-equal.
    model = AadrnnModel.initial(dim, dim)
    X = random_rows(np.random.default_rng(dim), 600, dim)
    per_row = np.array([model.hidden(x) for x in X])
    assert np.array_equal(model.hidden(X[:, None, :])[:, 0], per_row)
    for size in (1, 7, 256):
        pieces = [model.hidden(X[i:i + size, None, :])[:, 0] for i in range(0, len(X), size)]
        assert np.array_equal(np.concatenate(pieces), per_row)


@pytest.mark.parametrize("dim", [3, 6, 20])
def test_chunked_fold_equals_per_row_oracle(dim):
    rng = np.random.default_rng(31 + dim)
    model = AadrnnModel.initial(dim, dim)
    X = random_rows(rng, 600, dim)
    for sigma, salt in ((0.1, None), (0.1, 12345), (0.0, None)):
        cfg = TrainSection(noise_sigma=sigma, ridge_lambda=1e-4, seed=model.seed)
        empty = SufficientStats.empty(dim)
        noisy = per_row_corrupt_window(X, 0, cfg, salt)
        expected = per_row_accumulate_pairs(empty, noisy, X, model)
        stats, fitted = fit_batch_with_stats(model, X, cfg, salt)
        assert stats.n == expected.n == 600
        assert np.array_equal(stats.G, expected.G) and np.array_equal(stats.C, expected.C)
        assert np.array_equal(fitted.readout, solve_readout(expected, cfg.ridge_lambda))
        # Folding on top of existing statistics adds onto them in row order too.
        again = per_row_accumulate_pairs(expected, per_row_corrupt_window(X[:5], 600, cfg, salt),
                                         X[:5], model)
        got = update_incremental(stats, X[:5], model, cfg, salt)[0]
        assert np.array_equal(got.G, again.G) and np.array_equal(got.C, again.C)


def same_bits(a, b):
    """Equal shapes and bytes: -0.0 and 0.0 differ here, unlike under ==."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 20])
def test_one_chunk_pass_equals_the_per_row_oracles_at_chunk_edges(dim):
    # 255, 256, 257 and 513 rows end just before, on and just after a
    # _FOLD_CHUNK boundary; each is folded onto empty statistics and onto
    # statistics the per-row oracle built from other rows.
    model = AadrnnModel.initial(dim, 50 + dim)
    rng = np.random.default_rng(60 + dim)
    head = random_rows(rng, 37, dim)
    for salt in (None, 4321):
        cfg = TrainSection(noise_sigma=0.1, ridge_lambda=1e-4, seed=model.seed)
        empty = SufficientStats.empty(dim)
        earlier = per_row_accumulate_pairs(empty, per_row_corrupt_window(head, 0, cfg, salt),
                                           head, model)
        for n in (1, 255, 256, 257, 513):
            X = random_rows(rng, n, dim)
            for stats in (empty, earlier):
                noisy = per_row_corrupt_window(X, stats.n, cfg, salt)
                expected = per_row_accumulate_pairs(stats, noisy, X, model)
                got, fitted = update_incremental(stats, X, model, cfg, salt)
                assert same_bits(got.G, expected.G) and same_bits(got.C, expected.C)
                assert got.n == expected.n == stats.n + n
                assert same_bits(fitted.readout, solve_readout(expected, cfg.ridge_lambda))


# Values that a plain uniform draw never gives: zeros of both signs, a
# subnormal and magnitudes far past the noise.
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, 2.0**60, -1e100, 1e100])


@st.composite
def fold_cases(draw):
    """Rows of width 1-20 and the window edges to cut them at, each edge at or
    next to a multiple of the fold chunk; equal edges make empty windows. The
    chunk is the module's ``_FOLD_CHUNK`` or a small one, so that short runs
    cross many chunk edges too."""
    chunk = draw(st.sampled_from([training._FOLD_CHUNK, 2, 3, 7]))
    near_edge = st.builds(lambda m, d: max(m * chunk + d, 0), st.integers(0, 2), st.integers(-2, 2))
    edges = sorted(draw(st.lists(near_edge, min_size=1, max_size=4)))
    head = draw(st.sampled_from([0, 1, chunk + 1]))  # rows the per-row oracle folds first
    width, seed = draw(st.integers(1, 20)), draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(head + edges[-1], width))
    odd = rng.random(X.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    X[odd] = rng.choice(SPECIAL_VALUES, size=int(odd.sum()))
    cfg = TrainSection(noise_sigma=draw(st.sampled_from([0.1, 0.0, 2.5])), ridge_lambda=1e-4,
                       seed=draw(st.sampled_from([3, 2**40])))
    return chunk, X[:head], np.split(X[head:], edges[:-1]), cfg, draw(
        st.sampled_from([None, 0, salt_for_address("10.0.0.3")]))


@given(fold_cases())
def test_fold_over_random_windows_equals_the_per_row_oracles(case):
    # Any split of the rows into windows, each folded a chunk at a time,
    # gives the bits of the per-row corrupt-and-fold oracles after every
    # window, from empty statistics or from statistics the oracle built.
    chunk, head, windows, cfg, salt = case
    model = AadrnnModel.initial(head.shape[1], cfg.seed)
    expected = stats = SufficientStats.empty(head.shape[1])
    if len(head):
        expected = stats = per_row_accumulate_pairs(
            expected, per_row_corrupt_window(head, 0, cfg, salt), head, model)
    with mock.patch.object(training, "_FOLD_CHUNK", chunk):
        for window in windows:
            stats, fitted = update_incremental(stats, window, model, cfg, salt)
            expected = per_row_accumulate_pairs(
                expected, per_row_corrupt_window(window, expected.n, cfg, salt), window, model)
            assert same_bits(stats.G, expected.G) and same_bits(stats.C, expected.C)
            assert stats.n == expected.n
            if len(window):
                assert same_bits(fitted.readout, solve_readout(expected, cfg.ridge_lambda))


@pytest.mark.parametrize("dim", [1, 3, 20])
def test_hidden_equals_the_layer_by_layer_activation_and_leaves_its_input(dim):
    model = AadrnnModel.initial(dim, 70 + dim)
    X = np.random.default_rng(dim).uniform(-1.0, 3.0, size=(40, dim))
    X[0] = 0.0
    X[1] = -0.0  # a signed-zero row: bits are compared, not values
    for x in (X[5], X, X[:, None, :], X[:1]):
        before = x.copy()
        assert same_bits(model.hidden(x), layer_by_layer_hidden(model, x))
        assert same_bits(x, before)


def test_accumulation_is_permutation_symmetric():
    # G and C are sums over rows, so folding the same rows in any order gives
    # the same readout (without noise, which is keyed to a row's position).
    rng = np.random.default_rng(19)
    model = AadrnnModel.initial(3, 4)
    rows = random_rows(rng, 40, 3)
    cfg = TrainSection(noise_sigma=0.0)
    stats_fwd = update_incremental(SufficientStats.empty(3), rows, model, cfg)[0]
    perm = rng.permutation(len(rows))
    stats_perm = update_incremental(SufficientStats.empty(3), rows[perm], model, cfg)[0]
    assert np.allclose(stats_fwd.G, stats_perm.G, rtol=1e-12, atol=1e-12)
    assert np.allclose(solve_readout(stats_fwd, 1e-4), solve_readout(stats_perm, 1e-4),
                       rtol=1e-9, atol=1e-12)


def test_gram_matrix_is_symmetric_psd():
    rng = np.random.default_rng(23)
    for case in range(100):
        model = AadrnnModel.initial(3, int(rng.integers(100)))
        stats = SufficientStats.empty(3)
        cfg = TrainSection(seed=int(rng.integers(100)))
        for _ in range(int(rng.integers(1, 4))):
            stats, model = update_incremental(
                stats, random_rows(rng, int(rng.integers(1, 8)), 3), model, cfg)
        assert np.allclose(stats.G, stats.G.T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(stats.G).min() >= -1e-10


def test_a_window_is_an_n_by_m_matrix():
    # One row is a (1, M) window; a bare row, a wider one or a stack of windows is refused.
    model = AadrnnModel.initial(3, 0)
    stats = SufficientStats.empty(3)
    for window in (np.array([0.5, 0.25, 1.0]), np.ones((2, 4)), np.ones((1, 2, 3))):
        with pytest.raises(DimensionError, match=r"model expects \(n, 3\)"):
            update_incremental(stats, window, model, TrainSection())
    stats, model = update_incremental(stats, np.array([[0.5, 0.25, 1.0]]), model, TrainSection())
    assert stats.n == 1 and model.readout.shape == (3, 3)


# -- validation and failure paths -----------------------------------------------------------


def test_train_config_validation():
    # noise_sigma, ridge_lambda and seed are checked with the rest of the config
    # (tests/test_config_cli.py); so is the window policy.
    with pytest.raises(ValueError, match="train.window_len"):
        config_from_dict({"train": {"window_len": 0}})
    with pytest.raises(ValueError, match="train.window_seconds"):
        config_from_dict({"train": {"window_seconds": 0.0}})
    config_from_dict({"train": {"window_len": None, "window_seconds": None}})  # no online updates


def test_fit_batch_validation():
    model = AadrnnModel.initial(3, 0)
    with pytest.raises(ValueError):
        fit_batch_with_stats(model, np.empty((0, 3)), TrainSection())
    with pytest.raises(DimensionError):
        fit_batch_with_stats(model, np.zeros((4, 2)), TrainSection())
    with pytest.raises(DimensionError):
        update_incremental(SufficientStats.empty(3), np.zeros((2, 4)),
                           model, TrainSection())
    with pytest.raises(ValueError, match="non-finite training row"):
        update_incremental(SufficientStats.empty(3),
                           np.array([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]),
                           model, TrainSection())


def test_solve_readout_validation_and_failure():
    with pytest.raises(ValueError):
        solve_readout(SufficientStats.empty(3), 0.0)
    bad = SufficientStats(np.full((2, 2), np.nan), np.zeros((2, 2)), 1)
    with pytest.raises(TrainingError):
        solve_readout(bad, 1e-4)
