"""Denoising auto-associative training of the readout.

The readout is the ridge solution of hidden activations of *corrupted* benign
rows against the *clean* rows:

    W_out = (H^T H + lambda I)^{-1} H^T X,   H = hidden(max(0, X + noise))

Both offline and online training accumulate the same sufficient statistics
G = sum H^T H and C = sum H^T X, so a batch fit equals any sequence of
windowed incremental updates over the same rows, bit for bit. Two things make
that exact:

- Noise draws are keyed to the global accepted-row counter (not to window
  boundaries): row i is corrupted with ``noise_rng(seed, i, salt)``.
- Rows are folded into G and C one at a time, in order. The fold is done on
  chunks of rows as arrays, but performs the same float operations as a
  per-row loop: the hidden forward is a stacked per-row matmul
  (``hidden(X[:, None, :])``, one matrix-vector product per row, unlike a 2-D
  gemm whose blocking varies with the row count), and the outer products are
  summed with ``np.add.accumulate`` along the row axis, which adds them one
  after another onto the running G and C.

With the fold vectorised, seeding a generator per row (a SeedSequence hash
plus a PCG64 construction) is the dominant cost of training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .aadrnn import AadrnnModel, AadrnnShape
from .metrics import DimensionError


class TrainingError(RuntimeError):
    """The readout system could not be solved."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the denoising regression and the online window policy."""

    noise_sigma: float = 0.1
    ridge_lambda: float = 1e-4
    window_len: Optional[int] = 500
    window_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")
        if self.window_len is not None and self.window_len < 1:
            raise ValueError("window_len must be >= 1 (or None for no updates)")
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive when set")


@dataclass(frozen=True)
class SufficientStats:
    """Accumulated G = sum H^T H, C = sum H^T X, and the accepted-row count."""

    G: np.ndarray
    C: np.ndarray
    n: int = 0

    @classmethod
    def empty(cls, hidden_dim: int, out_dim: int) -> "SufficientStats":
        return cls(np.zeros((hidden_dim, hidden_dim)), np.zeros((hidden_dim, out_dim)), 0)


def noise_rng(seed: int, index: int, salt: Optional[int] = None) -> np.random.Generator:
    """The generator for the ``index``-th accepted row. Independent of how rows
    are grouped into windows; ``salt`` namespaces per-device noise streams."""
    entropy = [seed, index] if salt is None else [seed, salt, index]
    return np.random.default_rng(entropy)


def corrupt(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise clipped at zero: max(0, x + N(0, sigma^2))."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite training row")
    if sigma == 0.0:
        return np.maximum(x, 0.0)
    return np.maximum(x + rng.normal(0.0, sigma, size=x.shape), 0.0)


def _corrupt_window(window: np.ndarray, start_index: int, cfg: TrainConfig,
                    salt: Optional[int]) -> np.ndarray:
    """``corrupt`` applied to each row of a window, row j with the generator of
    global row ``start_index + j``."""
    if not np.all(np.isfinite(window)):
        raise ValueError("non-finite training row")
    if cfg.noise_sigma == 0.0:
        return np.maximum(window, 0.0)
    noise = np.empty_like(window)
    for j in range(window.shape[0]):
        noise[j] = noise_rng(cfg.seed, start_index + j, salt).normal(
            0.0, cfg.noise_sigma, size=window.shape[1])
    return np.maximum(window + noise, 0.0)


# Rows per vectorised fold step: bounds the (rows, d, d) outer-product buffers
# to about a megabyte each at d = 20.
_FOLD_CHUNK = 256


def _fold_outer(S: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S + outer(a_1, b_1) + outer(a_2, b_2) + ..., added one row at a time in
    order, as ``S += np.outer(a_j, b_j)`` in a loop would."""
    return np.add.accumulate(np.concatenate([S[None], A[:, :, None] * B[:, None, :]]),
                             axis=0)[-1]


def accumulate_pairs(stats: SufficientStats, noisy: np.ndarray, clean: np.ndarray,
                     model: AadrnnModel) -> SufficientStats:
    """Fold explicit (noisy, clean) row pairs into the statistics, one row at a
    time in order. Row-wise accumulation performs the same float operations for
    every window partition of the same rows, so incremental training stays
    bit-equal to the one-shot batch fit instead of drifting with gemm blocking.
    Chunks of rows are folded as arrays with the same operations in the same
    order (see the module docstring)."""
    if noisy.shape != clean.shape:
        raise DimensionError(f"noisy shape {noisy.shape} != clean shape {clean.shape}")
    if noisy.ndim == 1:
        noisy = noisy.reshape(1, -1)
        clean = clean.reshape(1, -1)
    G, C = stats.G, stats.C
    for lo in range(0, noisy.shape[0], _FOLD_CHUNK):
        H = model.hidden(noisy[lo:lo + _FOLD_CHUNK, None, :])[:, 0, :]
        G = _fold_outer(G, H, H)
        C = _fold_outer(C, H, clean[lo:lo + _FOLD_CHUNK])
    # Copies: never share stats.G, nor keep the last chunk's buffer alive.
    return SufficientStats(G.copy(), C.copy(), stats.n + noisy.shape[0])


def solve_readout(stats: SufficientStats, ridge_lambda: float) -> np.ndarray:
    """W_out = (G + lambda I)^{-1} C."""
    if ridge_lambda <= 0:
        raise ValueError("ridge_lambda must be positive")
    A = stats.G + ridge_lambda * np.eye(stats.G.shape[0])
    try:
        readout = np.linalg.solve(A, stats.C)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"readout system is singular despite ridge: {exc}") from None
    if not np.all(np.isfinite(readout)):
        raise TrainingError("readout solve produced non-finite values")
    readout.flags.writeable = False
    return readout


def update_incremental(stats: SufficientStats, window: np.ndarray, model: AadrnnModel,
                       cfg: TrainConfig, salt: Optional[int] = None
                       ) -> Tuple[SufficientStats, AadrnnModel]:
    """Fold one window of accepted benign rows into the statistics and return
    (updated stats, refreshed model snapshot). The previous snapshot is not
    touched; callers may keep serving it until they swap."""
    window = np.asarray(window, dtype=float)
    if window.ndim == 1:
        window = window.reshape(1, -1)
    if window.shape[1] != model.input_dim:
        raise DimensionError(f"window rows have {window.shape[1]} values, model expects {model.input_dim}")
    if window.shape[0] == 0:
        return stats, model
    noisy = _corrupt_window(window, stats.n, cfg, salt)
    stats = accumulate_pairs(stats, noisy, window, model)
    return stats, model.with_readout(solve_readout(stats, cfg.ridge_lambda))


def fit_batch_with_stats(shape: AadrnnShape, X: np.ndarray, cfg: TrainConfig,
                         salt: Optional[int] = None) -> Tuple[SufficientStats, AadrnnModel]:
    """Offline fit over a benign batch: empty statistics plus one window.
    Returns the statistics too, so online training can keep accumulating on
    top of the initial fit."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("fit_batch needs a non-empty (n, M) matrix of benign rows")
    if X.shape[1] != shape.input_dim:
        raise DimensionError(f"rows have {X.shape[1]} values, shape expects {shape.input_dim}")
    base = AadrnnModel.initial(shape)
    stats = SufficientStats.empty(base.hidden_dim, base.input_dim)
    return update_incremental(stats, X, base, cfg, salt)


def fit_batch(shape: AadrnnShape, X: np.ndarray, cfg: TrainConfig,
              salt: Optional[int] = None) -> AadrnnModel:
    """Offline fit over a benign batch; the model of ``fit_batch_with_stats``."""
    return fit_batch_with_stats(shape, X, cfg, salt)[1]
