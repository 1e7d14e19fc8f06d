"""Denoising auto-associative training of the readout.

The readout is the ridge solution of hidden activations of *corrupted* benign
rows against the *clean* rows:

    W_out = (H^T H + lambda I)^{-1} H^T X,   H = hidden(max(0, X + noise))

``fit_batch_with_stats`` and ``update_incremental`` take the run's
``config.train``, checked by ``Config.validate``, and read its ``noise_sigma``
(the noise's standard deviation) and ``ridge_lambda`` (lambda); the noise is
keyed by the model's ``seed``, the one its hidden network was drawn from.

Both offline and online training accumulate the same sufficient statistics
G = sum H^T H and C = sum H^T X, so a batch fit equals any sequence of
windowed incremental updates over the same rows, bit for bit. Two things make
that exact:

- The noise of row i, column j is a function of (seed, salt, i, j) alone, not
  of window boundaries. It is a keyed counter hash (Salmon et al., "Parallel
  random numbers: as easy as 1, 2, 3", SC 2011): at width M,

      noise[i, j] = sigma / 65536 * (the sum of the 16-bit lanes of s_0, s_1, s_2 - 6 * 65536),
      s_k = SplitMix64(key, 3 * (i * M + j) + k),

  SplitMix64(key, c) being output c of SplitMix64 seeded with ``key``, the
  finalizer of key + (c + 1) * 0x9E3779B97F4A7C15 mod 2**64. The key starts at
  0 and folds in the seed, then the salt if there is one, as the count of its
  64-bit words and then each word, little-endian: key = SplitMix64(key ^ word,
  0). The lane sum is the Irwin-Hall approximation of N(0, sigma**2): mean
  -6/65536 sigma, variance (1 - 2**-32) sigma**2, every value within 6 sigma.
  ``noise_rng(seed, i, salt)`` is the field from row i on; a chunk draws its
  noise as uint64 arrays, with no generator to start and no ``numpy.random``.
- Rows are folded into G and C one at a time, in order. The fold makes one
  pass over chunks of rows (corrupt, hidden forward, fold) as arrays, but
  performs the same float operations as a per-row loop: the hidden forward is
  a stacked per-row matmul (``hidden(X[:, None, :])``, one matrix-vector
  product per row, unlike a 2-D gemm whose blocking varies with the row
  count), and ``np.add.reduce`` sums a C-contiguous (k + 1, M, 2M) buffer of
  ``[G | C]`` and the chunk's outer products over its first axis, which adds
  them one after another onto ``[G | C]``; pairwise summation applies only
  along the contiguous axis.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .aadrnn import AadrnnModel
from .config import TrainSection
from .metrics import DimensionError


class TrainingError(RuntimeError):
    """The readout system could not be solved."""


class SufficientStats(NamedTuple):
    """Accumulated G = sum H^T H, C = sum H^T X, and the accepted-row count."""

    G: np.ndarray
    C: np.ndarray
    n: int = 0

    @classmethod
    def empty(cls, dim: int) -> "SufficientStats":
        """No rows yet, for a model of input width ``dim``."""
        return cls(np.zeros((dim, dim)), np.zeros((dim, dim)), 0)


# SplitMix64's increment and finalizer, applied to uint64 arrays with uint64
# constants only: numpy 1 and 2 promote a Python int against uint64 differently.
_GAMMA, _MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1
_FINALIZER = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
              (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output for each (already advanced) state of ``z``, in place."""
    for shift, mult in _FINALIZER:
        z ^= z >> shift
        z *= mult
    z ^= z >> np.uint64(31)
    return z


def _noise_key(seed: int, salt: Optional[int]) -> int:
    key = np.zeros(1, dtype=np.uint64)
    for value in (seed,) if salt is None else (seed, salt):
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value >> k & _MASK64 for k in range(0, max(value.bit_length(), 1), 64)]
        for word in (len(words), *words):  # key = SplitMix64(key ^ word, 0)
            key ^= np.uint64(word)
            key += np.uint64(_GAMMA)
            _splitmix(key)
    return int(key[0])


class NoiseStream(NamedTuple):
    """The noise field of ``key`` from global row ``index`` on (see the module
    docstring)."""

    key: int
    index: int

    def normal(self, scale: float, shape: Tuple[int, ...]) -> np.ndarray:
        """Rows ``index``, ``index + 1``, ... of the field at width ``shape[-1]``, times
        ``scale``. Oracle: tests/oracles.py:oracle_noise; property:
        tests/test_training.py::test_noise_equals_the_per_value_oracle."""
        n = math.prod(shape)
        z = np.arange(3 * n, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64((self.key + (3 * self.index * shape[-1] + 1) * _GAMMA) & _MASK64)
        lanes = _splitmix(z).view(np.uint16).reshape(n, 12)
        total = lanes[:, 0].astype(np.int64)
        for k in range(1, 12):
            total += lanes[:, k]
        return ((total - 6 * 65536) * (scale / 65536)).reshape(shape)


def noise_rng(seed: int, index: int, salt: Optional[int] = None) -> NoiseStream:
    """The noise from the ``index``-th accepted row on. Independent of how rows
    are grouped into windows; ``salt`` namespaces per-device noise streams."""
    index = operator.index(index)
    if index < 0:
        raise ValueError(f"row index {index} is negative")
    return NoiseStream(_noise_key(seed, salt), index)


def corrupt(x: np.ndarray, sigma: float, rng: NoiseStream) -> np.ndarray:
    """Additive noise clipped at zero: max(0, x + sigma * noise), for one row
    or a chunk of rows drawn from ``rng``."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite training row")
    if sigma == 0.0:
        return np.maximum(x, 0.0)
    return np.maximum(x + rng.normal(sigma, x.shape), 0.0)


# Rows per fold step: bounds the (rows + 1, M, 2M) fold buffer to about 1.6 MB
# at M = 20; it is reused, so later chunks fault in no new pages.
_FOLD_CHUNK = 256


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
                       train: TrainSection, salt: Optional[int] = None
                       ) -> Tuple[SufficientStats, AadrnnModel]:
    """Fold one window of accepted benign rows into the statistics and return
    (updated stats, refreshed model snapshot). The previous snapshot is not
    touched; callers may keep serving it until they swap.

    The window is folded ``_FOLD_CHUNK`` rows at a time, in order, each chunk
    corrupted by ``corrupt`` with the noise of its global rows. Row 0 of one
    reused buffer holds ``[G | C]`` and rows 1..k the chunk's
    ``H (x) [H | clean]``; ``np.add.reduce`` over its axis 0 adds them one
    after another onto row 0 (see the module docstring). ``np.einsum`` stores
    a -0.0 product as 0.0 (it adds it to 0.0), which moves no bit of sums
    that start at +0.0: a round-to-nearest sum never returns to -0.0. Oracles:
    tests/oracles.py:per_row_corrupt_window and tests/oracles.py:per_row_accumulate_pairs;
    property: tests/test_training.py::test_fold_over_random_windows_equals_the_per_row_oracles."""
    window = np.asarray(window, dtype=float)
    m = model.input_dim
    if window.shape[1:] != (m,):
        raise DimensionError(f"window has shape {window.shape}, model expects (n, {m})")
    acc = np.concatenate([stats.G, stats.C], axis=1)
    buf = np.empty((min(len(window), _FOLD_CHUNK) + 1, m, 2 * m))
    rng = noise_rng(model.seed, stats.n, salt)  # one key per fold; each chunk steps the index
    for lo in range(0, len(window), _FOLD_CHUNK):
        clean = window[lo:lo + _FOLD_CHUNK]
        noisy = corrupt(clean, train.noise_sigma, rng._replace(index=stats.n + lo))
        H = model.hidden(noisy[:, None, :])[:, 0, :]
        part = buf[:len(clean) + 1]
        part[0] = acc
        np.einsum("ij,ik->ijk", H, np.concatenate([H, clean], axis=1), out=part[1:])
        acc = np.add.reduce(part, axis=0)
    stats = SufficientStats(acc[:, :m].copy(), acc[:, m:].copy(), stats.n + len(window))
    return stats, model.with_readout(solve_readout(stats, train.ridge_lambda))


def fit_batch_with_stats(model: AadrnnModel, X: np.ndarray, train: TrainSection,
                         salt: Optional[int] = None) -> Tuple[SufficientStats, AadrnnModel]:
    """Offline fit of an initial ``model`` (``AadrnnModel.initial``) over a
    benign batch: empty statistics plus one window. Returns the statistics
    too, so online training can keep accumulating on top of the initial fit."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("a batch fit needs a non-empty (n, M) matrix of benign rows")
    return update_incremental(SufficientStats.empty(model.input_dim), X, model, train, salt)
