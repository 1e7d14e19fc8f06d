"""Readout fitting against a closed-form ridge oracle, corruption laws, and the
batch/incremental equivalence."""

import numpy as np
import pytest

from aadetect.aadrnn import AadrnnModel
from aadetect.config import TrainSection, config_from_dict
from aadetect.detector import salt_for_address
from aadetect.metrics import DimensionError
from aadetect.training import (SufficientStats, TrainingError,
                               _corrupt_window, _window_noise, accumulate_pairs,
                               corrupt, fit_batch_with_stats,
                               noise_rng, solve_readout, update_incremental)


def hand_hidden(model, x):
    """Hidden activations via scalar loops only (independent of the library)."""
    h = list(map(float, x))
    for w in model.hidden_weights:
        nxt = []
        for i in range(w.shape[0]):
            pre = max(sum(w[i, j] * h[j] for j in range(w.shape[1])), 0.0)
            nxt.append(pre / (1.0 + pre))
        h = nxt
    return np.array(h)


def oracle_readout(model, X, cfg, salt=None):
    """Closed-form (H^T H + lambda I)^{-1} H^T X with H rebuilt from scratch:
    per-row keyed noise, scalar-loop hidden activations, explicit inverse."""
    H = []
    for i, row in enumerate(X):
        entropy = [cfg.seed, i] if salt is None else [cfg.seed, salt, i]
        rng = np.random.default_rng(entropy)
        noisy = np.maximum(row + rng.normal(0.0, cfg.noise_sigma, size=row.shape), 0.0)
        H.append(hand_hidden(model, noisy))
    H = np.array(H)
    A = H.T @ H + cfg.ridge_lambda * np.eye(H.shape[1])
    return np.linalg.inv(A) @ (H.T @ np.asarray(X, dtype=float))


def random_rows(rng, n, dim):
    return rng.uniform(0.0, 2.0, size=(n, dim))


# The per-row training fold as the library first wrote it, kept as the
# reference the chunked fold must match bit for bit.


def per_row_corrupt_window(window, start_index, cfg, salt):
    noisy = np.empty_like(window)
    for j in range(window.shape[0]):
        rng = noise_rng(cfg.seed, start_index + j, salt)
        noisy[j] = corrupt(window[j], cfg.noise_sigma, rng)
    return noisy


def per_row_accumulate_pairs(stats, noisy, clean, model):
    if noisy.shape != clean.shape:
        raise DimensionError(f"noisy shape {noisy.shape} != clean shape {clean.shape}")
    if noisy.ndim == 1:
        noisy = noisy.reshape(1, -1)
        clean = clean.reshape(1, -1)
    G, C = stats.G.copy(), stats.C.copy()
    for j in range(noisy.shape[0]):
        h = model.hidden(noisy[j])
        G += np.outer(h, h)
        C += np.outer(h, clean[j])
    return SufficientStats(G, C, stats.n + noisy.shape[0])


# -- corruption -------------------------------------------------------------------


def test_corrupt_sigma_zero_is_clipped_identity():
    rng = np.random.default_rng(0)
    x = np.array([0.5, -0.25, 2.0])
    out = corrupt(x, 0.0, rng)
    assert np.array_equal(out, [0.5, 0.0, 2.0])
    # No draws consumed: the generator state is untouched.
    assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)


def test_corrupt_output_is_nonnegative():
    rng = np.random.default_rng(1)
    for case in range(100):
        x = rng.uniform(-1, 1, size=5)
        assert np.all(corrupt(x, 0.5, rng) >= 0.0)


def test_corrupt_mean_is_centered_away_from_the_clip():
    # At x = 1 with sigma = 0.1 the clip at zero is a 10-sigma event, so the
    # empirical mean perturbation over many draws stays within +/- 0.01.
    rng = np.random.default_rng(2)
    x = np.ones(1)
    draws = np.array([corrupt(x, 0.1, rng)[0] - 1.0 for _ in range(20_000)])
    assert abs(draws.mean()) < 0.01


def test_corrupt_rejects_non_finite():
    with pytest.raises(ValueError):
        corrupt(np.array([np.inf]), 0.1, np.random.default_rng(0))


def test_noise_rng_is_keyed_by_seed_index_and_salt():
    a = noise_rng(7, 3).normal(size=4)
    assert np.array_equal(a, noise_rng(7, 3).normal(size=4))
    assert not np.array_equal(a, noise_rng(7, 4).normal(size=4))
    assert not np.array_equal(a, noise_rng(8, 3).normal(size=4))
    assert not np.array_equal(a, noise_rng(7, 3, salt=1).normal(size=4))


# -- window noise: seeds hashed per window, draws equal to noise_rng's ------------------


@pytest.mark.parametrize("salt", [None, 0, salt_for_address("10.0.0.3")])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**40, 2**70])
def test_window_noise_equals_per_row_noise_rng(seed, salt):
    # 2**40 and 2**70 split into 2 and 3 entropy words; with a salt, or with an
    # index past 2**32 (which gains a second word), 2**70 gives more entropy
    # words than SeedSequence's pool of 4.
    cfg = TrainSection(noise_sigma=0.25, seed=seed)
    for start in (0, 1, 2**32 - 3):
        for width in (3, 6, 20):
            expected = np.array([noise_rng(seed, start + j, salt).normal(0.0, 0.25, size=width)
                                 for j in range(1000)])
            for n_rows in (1, 255, 1000):
                got = _window_noise(start, n_rows, width, cfg, salt)
                assert got.shape == (n_rows, width)
                assert np.array_equal(got, expected[:n_rows]), (start, width, n_rows)


def test_window_noise_rejects_a_negative_seed_as_noise_rng_does():
    with pytest.raises(ValueError):
        noise_rng(-1, 0)
    with pytest.raises(ValueError):
        _window_noise(0, 5, 3, TrainSection(seed=-1), None)
    with pytest.raises(ValueError):
        fit_batch_with_stats(AadrnnModel.initial(3, 1), np.ones((5, 3)),
                             TrainSection(seed=-1))


def test_corrupt_window_equals_per_row_corrupt():
    X = random_rows(np.random.default_rng(5), 300, 4) - 0.5  # some rows clip
    cfg = TrainSection(noise_sigma=0.2, seed=11)
    for salt in (None, 99):
        assert np.array_equal(_corrupt_window(X, 2**32 - 100, cfg, salt),
                              per_row_corrupt_window(X, 2**32 - 100, cfg, salt))
    identity = _corrupt_window(X, 0, TrainSection(noise_sigma=0.0, seed=11), None)
    assert np.array_equal(identity, np.maximum(X, 0.0))


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
        cfg = TrainSection(noise_sigma=sigma, ridge_lambda=1e-4, seed=7)
        empty = SufficientStats.empty(dim)
        noisy = per_row_corrupt_window(X, 0, cfg, salt)
        expected = per_row_accumulate_pairs(empty, noisy, X, model)
        got = accumulate_pairs(empty, noisy, X, model)
        assert np.array_equal(got.G, expected.G) and np.array_equal(got.C, expected.C)
        # Folding on top of existing statistics adds onto them in row order too.
        again = per_row_accumulate_pairs(expected, noisy[:5], X[:5], model)
        got = accumulate_pairs(expected, noisy[:5], X[:5], model)
        assert np.array_equal(got.G, again.G) and np.array_equal(got.C, again.C)
        stats, fitted = fit_batch_with_stats(model, X, cfg, salt)
        assert stats.n == expected.n == 600
        assert np.array_equal(stats.G, expected.G) and np.array_equal(stats.C, expected.C)
        assert np.array_equal(fitted.readout, solve_readout(expected, cfg.ridge_lambda))


def test_accumulation_is_permutation_symmetric():
    # G and C are sums over rows, so folding the same (noisy, clean) pairs in
    # any order gives the same readout.
    rng = np.random.default_rng(19)
    model = AadrnnModel.initial(3, 4)
    clean = random_rows(rng, 40, 3)
    noisy = np.maximum(clean + rng.normal(0, 0.1, size=clean.shape), 0)
    stats_fwd = accumulate_pairs(SufficientStats.empty(3), noisy, clean, model)
    perm = rng.permutation(len(clean))
    stats_perm = accumulate_pairs(SufficientStats.empty(3), noisy[perm], clean[perm], model)
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


def test_empty_window_is_a_no_op():
    model = AadrnnModel.initial(3, 0)
    stats = SufficientStats.empty(3)
    out_stats, out_model = update_incremental(stats, np.empty((0, 3)), model, TrainSection())
    assert out_stats is stats and out_model is model


def test_one_row_window_is_reshaped():
    model = AadrnnModel.initial(3, 0)
    stats = SufficientStats.empty(3)
    stats, model = update_incremental(stats, np.array([0.5, 0.25, 1.0]), model, TrainSection())
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


def test_accumulate_pairs_shape_mismatch():
    model = AadrnnModel.initial(3, 0)
    with pytest.raises(DimensionError):
        accumulate_pairs(SufficientStats.empty(3), np.zeros((2, 3)),
                         np.zeros((3, 3)), model)


def test_solve_readout_validation_and_failure():
    with pytest.raises(ValueError):
        solve_readout(SufficientStats.empty(3), 0.0)
    bad = SufficientStats(np.full((2, 2), np.nan), np.zeros((2, 2)), 1)
    with pytest.raises(TrainingError):
        solve_readout(bad, 1e-4)
